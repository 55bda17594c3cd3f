package core

import (
	"testing"

	"swvec/internal/aln"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// scratchWorkload builds a few batches of assorted shapes plus queries
// of different lengths, so a shared scratch is exercised across
// growing and shrinking buffer demands.
func scratchWorkload(t *testing.T) ([]*seqio.Batch, [][]uint8, *submat.Matrix, *submat.CodeTables) {
	t.Helper()
	mat := submat.Blosum62()
	g := seqio.NewGenerator(31)
	db := g.Database(80)
	batches := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{})
	queries := [][]uint8{
		g.Protein("q0", 200).Encode(mat.Alphabet()),
		g.Protein("q1", 37).Encode(mat.Alphabet()),
		g.Protein("q2", 350).Encode(mat.Alphabet()),
	}
	return batches, queries, mat, submat.NewCodeTables(mat)
}

// shortDatabase draws count sequences of 25 to 64 residues. The
// zero-alloc and cross-width invariants depend on lane strides, batch
// shapes and query lengths, not on Swiss-Prot's long tail, and short
// lanes keep the modeled sweeps to seconds.
func shortDatabase(g *seqio.Generator, count int) []seqio.Sequence {
	g.MeanLen, g.MaxLen = 40, 64
	return g.Database(count)
}

func TestAlignBatch8ScratchReuse(t *testing.T) {
	batches, queries, _, tables := scratchWorkload(t)
	for _, opt := range []BatchOptions{
		{Gaps: aln.DefaultGaps()},
		{Gaps: aln.DefaultGaps(), BlockCols: 64},
		{Gaps: aln.Linear(2)},
	} {
		shared := NewScratch()
		for _, q := range queries {
			for bi, b := range batches {
				fresh, err := AlignBatch8(vek.Bare, q, tables, b, opt)
				if err != nil {
					t.Fatal(err)
				}
				withScratch := opt
				withScratch.Scratch = shared
				got, err := AlignBatch8(vek.Bare, q, tables, b, withScratch)
				if err != nil {
					t.Fatal(err)
				}
				if got != fresh {
					t.Fatalf("opt %+v batch %d qlen %d: scratch reuse changed result", opt, bi, len(q))
				}
			}
		}
	}
}

func TestAlignBatch16ScratchReuse(t *testing.T) {
	batches, queries, _, tables := scratchWorkload(t)
	for _, gaps := range []aln.Gaps{aln.DefaultGaps(), aln.Linear(2)} {
		shared := NewScratch()
		for _, q := range queries {
			for bi, b := range batches {
				fresh, err := AlignBatch16(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
				if err != nil {
					t.Fatal(err)
				}
				got, err := AlignBatch16(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps, Scratch: shared})
				if err != nil {
					t.Fatal(err)
				}
				if got != fresh {
					t.Fatalf("gaps %+v batch %d qlen %d: scratch reuse changed result", gaps, bi, len(q))
				}
			}
		}
	}
}

func TestAlignPair32ScratchReuse(t *testing.T) {
	mat := submat.Blosum62()
	g := seqio.NewGenerator(32)
	pairs := [][2][]uint8{
		{g.Protein("a", 120).Encode(mat.Alphabet()), g.Protein("b", 400).Encode(mat.Alphabet())},
		{g.Protein("c", 33).Encode(mat.Alphabet()), g.Protein("d", 61).Encode(mat.Alphabet())},
		{g.Protein("e", 250).Encode(mat.Alphabet()), g.Protein("f", 90).Encode(mat.Alphabet())},
	}
	shared := NewScratch()
	for i, p := range pairs {
		fresh, err := AlignPair32(vek.Bare, p[0], p[1], mat, PairOptions{Gaps: aln.DefaultGaps()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AlignPair32(vek.Bare, p[0], p[1], mat, PairOptions{Gaps: aln.DefaultGaps(), Scratch: shared})
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != fresh.Score {
			t.Fatalf("pair %d: scratch score %d != fresh %d", i, got.Score, fresh.Score)
		}
	}
}

func TestAlignBatch8MultiScratchReuse(t *testing.T) {
	batches, queries, _, tables := scratchWorkload(t)
	for _, opt := range []BatchOptions{
		{Gaps: aln.DefaultGaps()},
		{Gaps: aln.DefaultGaps(), BlockCols: 48},
	} {
		shared := NewScratch()
		for bi, b := range batches {
			fresh, err := AlignBatch8Multi(vek.Bare, queries, tables, b, opt)
			if err != nil {
				t.Fatal(err)
			}
			withScratch := opt
			withScratch.Scratch = shared
			got, err := AlignBatch8Multi(vek.Bare, queries, tables, b, withScratch)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range fresh {
				if got[qi] != fresh[qi] {
					t.Fatalf("opt %+v batch %d query %d: scratch reuse changed result", opt, bi, qi)
				}
			}
		}
	}
}

// TestAlignBatch8ScratchZeroAlloc verifies the tentpole acceptance
// criterion at the kernel level: once the scratch is warm, the 8-bit
// batch engine performs zero heap allocations per call — at both the
// 256-bit (32-lane) and 512-bit (64-lane) instantiations of the
// generic kernel.
func TestAlignBatch8ScratchZeroAlloc(t *testing.T) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(31)
	db := shortDatabase(g, 2*seqio.MaxBatchLanes)
	queries := [][]uint8{
		g.Protein("q0", 200).Encode(mat.Alphabet()),
		g.Protein("q1", 37).Encode(mat.Alphabet()),
		g.Protein("q2", 350).Encode(mat.Alphabet()),
	}
	for _, lanes := range []int{seqio.BatchLanes, seqio.MaxBatchLanes} {
		batches := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{Lanes: lanes})
		scratch := NewScratch()
		opt := BatchOptions{Gaps: aln.DefaultGaps(), Scratch: scratch}
		warm := func() {
			for _, q := range queries {
				for _, b := range batches {
					if _, err := AlignBatch8(vek.Bare, q, tables, b, opt); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		warm()
		allocs := testing.AllocsPerRun(3, warm)
		if allocs != 0 {
			t.Fatalf("lanes=%d: warm AlignBatch8 allocates %.1f times per sweep, want 0", lanes, allocs)
		}
	}
}

// TestAlignBatch16ScratchZeroAlloc is the 16-bit rescue stage's side
// of the same invariant: swlint's hotpathalloc analyzer proves the
// kernels issue no allocating constructs statically, and this proves
// it dynamically at both lane strides.
func TestAlignBatch16ScratchZeroAlloc(t *testing.T) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(35)
	db := shortDatabase(g, 2*seqio.MaxBatchLanes)
	queries := [][]uint8{
		g.Protein("q0", 200).Encode(mat.Alphabet()),
		g.Protein("q1", 37).Encode(mat.Alphabet()),
	}
	for _, lanes := range []int{seqio.BatchLanes, seqio.MaxBatchLanes} {
		batches := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{Lanes: lanes})
		scratch := NewScratch()
		opt := BatchOptions{Gaps: aln.DefaultGaps(), Scratch: scratch}
		warm := func() {
			for _, q := range queries {
				for _, b := range batches {
					if _, err := AlignBatch16(vek.Bare, q, tables, b, opt); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		warm()
		allocs := testing.AllocsPerRun(3, warm)
		if allocs != 0 {
			t.Fatalf("lanes=%d: warm AlignBatch16 allocates %.1f times per sweep, want 0", lanes, allocs)
		}
	}
}

// TestScratchAcrossWidths is the regression test for the per-width row
// buffer sizing: one shared scratch serving interleaved 32-lane and
// 64-lane batches (8- and 16-bit engines) must produce the same result
// as fresh buffers. Before the generic kernel, the 16-bit row buffers
// were sized with a hardcoded 32-lane stride, which under-allocates
// for a 64-lane batch.
func TestScratchAcrossWidths(t *testing.T) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(33)
	db := shortDatabase(g, 2*seqio.MaxBatchLanes+17)
	queries := [][]uint8{
		g.Protein("q0", 180).Encode(mat.Alphabet()),
		g.Protein("q1", 41).Encode(mat.Alphabet()),
	}
	narrow := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{Lanes: seqio.BatchLanes})
	wide := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{Lanes: seqio.MaxBatchLanes})
	shared := NewScratch()
	for _, gaps := range []aln.Gaps{aln.DefaultGaps(), aln.Linear(2)} {
		for _, q := range queries {
			// Alternate widths on the shared scratch so each engine
			// inherits buffers the other one sized.
			for i := 0; i < len(narrow) || i < len(wide); i++ {
				var round []*seqio.Batch
				if i < len(narrow) {
					round = append(round, narrow[i])
				}
				if i < len(wide) {
					round = append(round, wide[i])
				}
				for _, b := range round {
					fresh8, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
					if err != nil {
						t.Fatal(err)
					}
					got8, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps, Scratch: shared})
					if err != nil {
						t.Fatal(err)
					}
					if got8 != fresh8 {
						t.Fatalf("gaps %+v stride %d qlen %d: 8-bit shared scratch changed result", gaps, b.Stride(), len(q))
					}
					fresh16, err := AlignBatch16(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
					if err != nil {
						t.Fatal(err)
					}
					got16, err := AlignBatch16(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps, Scratch: shared})
					if err != nil {
						t.Fatal(err)
					}
					if got16 != fresh16 {
						t.Fatalf("gaps %+v stride %d qlen %d: 16-bit shared scratch changed result", gaps, b.Stride(), len(q))
					}
				}
			}
		}
	}
}

// TestAlignBatchWideMatchesNarrow checks that a 64-lane batch scores
// every sequence identically to the 32-lane batches covering the same
// database slice, for both batch engines.
func TestAlignBatchWideMatchesNarrow(t *testing.T) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(34)
	db := g.Database(seqio.MaxBatchLanes + 9)
	q := g.Protein("q", 150).Encode(mat.Alphabet())
	narrow := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{Lanes: seqio.BatchLanes})
	wide := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{Lanes: seqio.MaxBatchLanes})
	gaps := aln.DefaultGaps()

	score8 := make(map[int]int32)
	score16 := make(map[int]int32)
	for _, b := range narrow {
		r8, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
		if err != nil {
			t.Fatal(err)
		}
		r16, err := AlignBatch16(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
		if err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < b.Count; lane++ {
			score8[b.Index[lane]] = r8.Scores[lane]
			score16[b.Index[lane]] = r16.Scores[lane]
		}
	}
	for _, b := range wide {
		r8, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
		if err != nil {
			t.Fatal(err)
		}
		r16, err := AlignBatch16(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
		if err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < b.Count; lane++ {
			si := b.Index[lane]
			if r8.Scores[lane] != score8[si] {
				t.Errorf("seq %d: 8-bit wide score %d != narrow %d", si, r8.Scores[lane], score8[si])
			}
			if r16.Scores[lane] != score16[si] {
				t.Errorf("seq %d: 16-bit wide score %d != narrow %d", si, r16.Scores[lane], score16[si])
			}
		}
	}
}
