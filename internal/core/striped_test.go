package core

import (
	"fmt"
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// stripedKernels are the two members of the striped family under test.
// A kernel family is a modeled-backend choice (the native backend runs
// native.Pair32 whatever the family; see native_test.go), so these
// tests run the modeled kernels.
var stripedKernels = []Kernel{KernelStriped, KernelLazyF}

// TestStripedPairMatchesDiagonal sweeps query lengths around every
// segment-count boundary of every lane width, at both element widths,
// and requires the striped family to reproduce the diagonal kernel's
// ScoreResult bit for bit — scores, saturation flags, and the
// score-only -1 end positions.
func TestStripedPairMatchesDiagonal(t *testing.T) {
	g := seqio.NewGenerator(71)
	qlens := []int{1, 3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129, 300}
	dlens := []int{1, 37, 180}
	gapsList := []aln.Gaps{
		{Open: 11, Extend: 1},
		{Open: 2, Extend: 1},
		{Open: 20, Extend: 15},
	}
	for _, ql := range qlens {
		q := g.Protein(fmt.Sprintf("q%d", ql), ql).Encode(protAlpha)
		for _, dl := range dlens {
			d := g.Protein(fmt.Sprintf("d%d-%d", ql, dl), dl).Encode(protAlpha)
			for _, gaps := range gapsList {
				opt := PairOptions{Gaps: gaps}
				want8, err := AlignPair8(vek.Bare, q, d, b62, opt)
				if err != nil {
					t.Fatal(err)
				}
				want8w, err := AlignPair8W(vek.Bare, q, d, b62, opt)
				if err != nil {
					t.Fatal(err)
				}
				want16, _, err := AlignPair16(vek.Bare, q, d, b62, opt)
				if err != nil {
					t.Fatal(err)
				}
				want16w, err := AlignPair16W(vek.Bare, q, d, b62, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, kern := range stripedKernels {
					kopt := PairOptions{Gaps: gaps, Kernel: kern}
					tag := fmt.Sprintf("q%d d%d gaps%+v kernel=%v", ql, dl, gaps, kern)
					got8, err := AlignPair8(vek.Bare, q, d, b62, kopt)
					if err != nil {
						t.Fatal(err)
					}
					if got8 != want8 {
						t.Fatalf("%s: pair8 %+v != diagonal %+v", tag, got8, want8)
					}
					got8w, err := AlignPair8W(vek.Bare, q, d, b62, kopt)
					if err != nil {
						t.Fatal(err)
					}
					if got8w != want8w {
						t.Fatalf("%s: pair8w %+v != diagonal %+v", tag, got8w, want8w)
					}
					got16, tb, err := AlignPair16(vek.Bare, q, d, b62, kopt)
					if err != nil {
						t.Fatal(err)
					}
					if tb != nil {
						t.Fatalf("%s: striped pair16 returned a traceback", tag)
					}
					if got16 != want16 {
						t.Fatalf("%s: pair16 %+v != diagonal %+v", tag, got16, want16)
					}
					got16w, err := AlignPair16W(vek.Bare, q, d, b62, kopt)
					if err != nil {
						t.Fatal(err)
					}
					if got16w != want16w {
						t.Fatalf("%s: pair16w %+v != diagonal %+v", tag, got16w, want16w)
					}
				}
			}
		}
	}
}

// TestStripedTinyGapOpen pins the deletion-adjacent-insertion case: with
// gap open this cheap, optimal paths can pair a vertical and a
// horizontal gap back to back, which the correction loops only handle
// because they refresh the E row from corrected H cells. Checked
// against the scalar oracle, not just the diagonal kernel.
func TestStripedTinyGapOpen(t *testing.T) {
	g := seqio.NewGenerator(72)
	gaps := aln.Gaps{Open: 2, Extend: 1}
	for i := 0; i < 40; i++ {
		q := g.Protein(fmt.Sprintf("q%d", i), 20+i*7).Encode(protAlpha)
		d := g.Protein(fmt.Sprintf("d%d", i), 30+i*5).Encode(protAlpha)
		want := baselines.ScalarAffine(q, d, b62, gaps)
		for _, kern := range stripedKernels {
			got, _, err := AlignPair16(vek.Bare, q, d, b62, PairOptions{Gaps: gaps, Kernel: kern})
			if err != nil {
				t.Fatal(err)
			}
			if got.Score != want.Score {
				t.Fatalf("case %d kernel=%v: score %d != scalar %d", i, kern, got.Score, want.Score)
			}
		}
	}
}

// TestStripedLinearGapsRouteToDiagonal: the striped family serves the
// affine model only; a linear-gap request must fall through to the
// diagonal kernel and still be exact.
func TestStripedLinearGapsRouteToDiagonal(t *testing.T) {
	g := seqio.NewGenerator(73)
	q := g.Protein("q", 120).Encode(protAlpha)
	d := g.Protein("d", 150).Encode(protAlpha)
	gaps := aln.Linear(2)
	want := baselines.ScalarLinear(q, d, b62, gaps.Extend)
	for _, kern := range stripedKernels {
		got, _, err := AlignPair16(vek.Bare, q, d, b62, PairOptions{Gaps: gaps, Kernel: kern})
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("kernel=%v: linear-gap score %d != scalar %d", kern, got.Score, want.Score)
		}
	}
}

// TestStripedAdaptiveLadder runs the 8->16->32 saturation ladder with a
// striped kernel selected: the 8-bit striped tier must flag saturation
// exactly like the diagonal tier, and the escalations must land on the
// exact score.
func TestStripedAdaptiveLadder(t *testing.T) {
	// A self-alignment long enough to saturate 8 bits (and, at the far
	// end, 16 bits) with BLOSUM62's diagonal.
	alpha := protAlpha
	mk := func(n int) []uint8 {
		s := make([]uint8, n)
		for i := range s {
			s[i] = alpha.EncodeString("W")[0]
		}
		return s
	}
	for _, n := range []int{40, 400, 3200} {
		q := mk(n)
		want := baselines.ScalarAffine(q, q, b62, aln.DefaultGaps())
		for _, kern := range stripedKernels {
			opt := PairOptions{Gaps: aln.DefaultGaps(), Kernel: kern}
			r8, err := AlignPair8(vek.Bare, q, q, b62, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want.Score >= 127 != r8.Saturated {
				t.Fatalf("n=%d kernel=%v: 8-bit saturation %v vs scalar score %d", n, kern, r8.Saturated, want.Score)
			}
			res, _, err := AlignPairAdaptive(vek.Bare, q, q, b62, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Score != want.Score || res.Saturated {
				t.Fatalf("n=%d kernel=%v: adaptive %+v, want exact %d", n, kern, res, want.Score)
			}
		}
	}
}

// TestStripedBatchMatchesDiagonal runs whole batches (both strides,
// both element widths) with a striped kernel selected and requires
// lane-for-lane identical BatchResults against the diagonal batch
// engines, plus the same via the multi-query entry.
func TestStripedBatchMatchesDiagonal(t *testing.T) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(74)
	db := g.Database(seqio.MaxBatchLanes + 9)
	queries := [][]uint8{
		g.Protein("q0", 150).Encode(mat.Alphabet()),
		g.Protein("q1", 41).Encode(mat.Alphabet()),
	}
	gaps := aln.DefaultGaps()
	for _, lanes := range []int{seqio.BatchLanes, seqio.MaxBatchLanes} {
		batches := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{Lanes: lanes})
		for _, b := range batches {
			for _, q := range queries {
				want8, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
				if err != nil {
					t.Fatal(err)
				}
				want16, err := AlignBatch16(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
				if err != nil {
					t.Fatal(err)
				}
				for _, kern := range stripedKernels {
					opt := BatchOptions{Gaps: gaps, Kernel: kern, Scratch: NewScratch()}
					got8, err := AlignBatch8(vek.Bare, q, tables, b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got8 != want8 {
						t.Fatalf("lanes=%d kernel=%v: batch8 diverged from diagonal", lanes, kern)
					}
					got16, err := AlignBatch16(vek.Bare, q, tables, b, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got16 != want16 {
						t.Fatalf("lanes=%d kernel=%v: batch16 diverged from diagonal", lanes, kern)
					}
				}
			}
			wantMulti, err := AlignBatch8Multi(vek.Bare, queries, tables, b, BatchOptions{Gaps: gaps})
			if err != nil {
				t.Fatal(err)
			}
			for _, kern := range stripedKernels {
				gotMulti, err := AlignBatch8Multi(vek.Bare, queries, tables, b, BatchOptions{Gaps: gaps, Kernel: kern, Scratch: NewScratch()})
				if err != nil {
					t.Fatal(err)
				}
				for qi := range wantMulti {
					if gotMulti[qi] != wantMulti[qi] {
						t.Fatalf("lanes=%d kernel=%v: batch8 multi query %d diverged", lanes, kern, qi)
					}
				}
			}
		}
	}
}

// TestStripedScratchReuse runs the striped family twice on one scratch
// — across kernels and differing shapes — and requires the second pass
// to reproduce fresh-buffer results, proving the cached profile and
// column rows are reinitialized correctly.
func TestStripedScratchReuse(t *testing.T) {
	g := seqio.NewGenerator(75)
	pairs := [][2][]uint8{
		{g.Protein("a", 120).Encode(protAlpha), g.Protein("b", 200).Encode(protAlpha)},
		{g.Protein("c", 33).Encode(protAlpha), g.Protein("d", 61).Encode(protAlpha)},
		{g.Protein("e", 300).Encode(protAlpha), g.Protein("f", 90).Encode(protAlpha)},
	}
	shared := NewScratch()
	for _, kern := range stripedKernels {
		for i, p := range pairs {
			opt := PairOptions{Gaps: aln.DefaultGaps(), Kernel: kern}
			fresh, err := AlignPair8(vek.Bare, p[0], p[1], b62, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.Scratch = shared
			// Twice: the second call exercises the warm-cache path.
			for pass := 0; pass < 2; pass++ {
				got, err := AlignPair8(vek.Bare, p[0], p[1], b62, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got != fresh {
					t.Fatalf("kernel=%v pair %d pass %d: scratch changed result", kern, i, pass)
				}
			}
		}
	}
}

// TestProfileCacheKeyIncludesGaps is the regression test for the
// query-profile cache key: aligning the same query with different gap
// penalties must rebuild the profile, not serve the cached one. Checked
// through the observable hit counter for both the diagonal 8-bit
// profile and the striped profile (both element widths, and both lane
// counts at 8 bits).
func TestProfileCacheKeyIncludesGaps(t *testing.T) {
	g := seqio.NewGenerator(76)
	q := g.Protein("q", 120).Encode(protAlpha)
	d := g.Protein("d", 200).Encode(protAlpha)
	gapsA := aln.Gaps{Open: 11, Extend: 1}
	gapsB := aln.Gaps{Open: 7, Extend: 2}

	cases := []struct {
		name  string
		align func(s *Scratch, gaps aln.Gaps)
	}{
		{"diagonal-modeled", func(s *Scratch, gaps aln.Gaps) {
			if _, err := AlignPair8(vek.Bare, q, d, b62, PairOptions{Gaps: gaps, Scratch: s, Backend: BackendModeled}); err != nil {
				t.Fatal(err)
			}
		}},
		{"striped-modeled", func(s *Scratch, gaps aln.Gaps) {
			if _, err := AlignPair8(vek.Bare, q, d, b62, PairOptions{Gaps: gaps, Scratch: s, Backend: BackendModeled, Kernel: KernelStriped}); err != nil {
				t.Fatal(err)
			}
		}},
		{"striped-wide", func(s *Scratch, gaps aln.Gaps) {
			if _, err := AlignPair8W(vek.Bare, q, d, b62, PairOptions{Gaps: gaps, Scratch: s, Backend: BackendModeled, Kernel: KernelLazyF}); err != nil {
				t.Fatal(err)
			}
		}},
		{"striped-16", func(s *Scratch, gaps aln.Gaps) {
			if _, _, err := AlignPair16(vek.Bare, q, d, b62, PairOptions{Gaps: gaps, Scratch: s, Backend: BackendModeled, Kernel: KernelStriped}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewScratch()
			tc.align(s, gapsA)
			tc.align(s, gapsA)
			if hits := s.TakeProfileCacheHits(); hits != 1 {
				t.Fatalf("repeat with same gaps: %d hits, want 1", hits)
			}
			// Same query and matrix, different gaps: the profile must be
			// rebuilt — a hit here is the stale-profile bug.
			tc.align(s, gapsB)
			if hits := s.TakeProfileCacheHits(); hits != 0 {
				t.Fatalf("changed gaps still hit the profile cache (%d hits)", hits)
			}
			tc.align(s, gapsB)
			if hits := s.TakeProfileCacheHits(); hits != 1 {
				t.Fatalf("repeat after gap change: %d hits, want 1", hits)
			}
		})
	}
}

// FuzzKernelsVsDiagonal is the cross-kernel differential fuzzer: for
// arbitrary sequences and affine gap models, the modeled striped family
// (both correction variants, both element widths) must reproduce the
// diagonal kernel's results bit for bit, including the batch entry.
func FuzzKernelsVsDiagonal(f *testing.F) {
	f.Add([]byte("MKVLAWMKVLAWMKVLAW"), []byte("MKVLAWMKVLNW"), byte(11), byte(1))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
		[]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), byte(1), byte(1))
	f.Add([]byte("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW"),
		[]byte("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW"), byte(0), byte(0))
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("YWVTSRQPNMLKIHGFEDCA"), byte(19), byte(4))
	f.Add([]byte("M"), []byte("M"), byte(5), byte(2))

	bl62 := submat.Blosum62()
	tables := submat.NewCodeTables(bl62)

	f.Fuzz(func(t *testing.T, qraw, draw []byte, openB, extB byte) {
		size := bl62.Alphabet().Size()
		q := fuzzCodes(qraw, size, 300)
		d := fuzzCodes(draw, size, 300)
		if len(q) == 0 || len(d) == 0 {
			t.Skip()
		}
		ext := 1 + int32(extB)%15
		open := ext + int32(openB)%20
		gaps := aln.Gaps{Open: open, Extend: ext}
		opt := PairOptions{Gaps: gaps}

		want8, err := AlignPair8(vek.Bare, q, d, bl62, opt)
		if err != nil {
			t.Fatal(err)
		}
		want8w, err := AlignPair8W(vek.Bare, q, d, bl62, opt)
		if err != nil {
			t.Fatal(err)
		}
		want16, _, err := AlignPair16(vek.Bare, q, d, bl62, opt)
		if err != nil {
			t.Fatal(err)
		}
		want16w, err := AlignPair16W(vek.Bare, q, d, bl62, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, kern := range stripedKernels {
			kopt := PairOptions{Gaps: gaps, Kernel: kern}
			tag := fmt.Sprintf("kernel=%v gaps=%+v qlen=%d dlen=%d", kern, gaps, len(q), len(d))
			got8, err := AlignPair8(vek.Bare, q, d, bl62, kopt)
			if err != nil {
				t.Fatal(err)
			}
			if got8 != want8 {
				t.Fatalf("%s: pair8 %+v != diagonal %+v", tag, got8, want8)
			}
			got8w, err := AlignPair8W(vek.Bare, q, d, bl62, kopt)
			if err != nil {
				t.Fatal(err)
			}
			if got8w != want8w {
				t.Fatalf("%s: pair8w %+v != diagonal %+v", tag, got8w, want8w)
			}
			got16, _, err := AlignPair16(vek.Bare, q, d, bl62, kopt)
			if err != nil {
				t.Fatal(err)
			}
			if got16 != want16 {
				t.Fatalf("%s: pair16 %+v != diagonal %+v", tag, got16, want16)
			}
			got16w, err := AlignPair16W(vek.Bare, q, d, bl62, kopt)
			if err != nil {
				t.Fatal(err)
			}
			if got16w != want16w {
				t.Fatalf("%s: pair16w %+v != diagonal %+v", tag, got16w, want16w)
			}
		}

		// Batch entry on a single-lane batch, both strides.
		alpha := bl62.Alphabet()
		letters := make([]byte, len(d))
		for i, c := range d {
			letters[i] = alpha.Letter(c)
		}
		db := []seqio.Sequence{{ID: "fuzz", Residues: letters}}
		for _, lanes := range []int{seqio.BatchLanes, seqio.MaxBatchLanes} {
			b := seqio.MakeBatch(db, []int{0}, alpha, lanes)
			wantB, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps})
			if err != nil {
				t.Fatal(err)
			}
			for _, kern := range stripedKernels {
				gotB, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps, Kernel: kern})
				if err != nil {
					t.Fatal(err)
				}
				if gotB != wantB {
					t.Fatalf("kernel=%v lanes=%d: batch8 diverged from diagonal", kern, lanes)
				}
			}
		}
	})
}
