package core

import (
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// The native backend computes every score-only result with
// native.Pair32: exact on the first pass and never saturated, whatever
// the entry point's nominal width or kernel family. These tests hold
// every native entry point to the scalar reference, and the modeled
// adaptive ladder to the same score, for every width, matrix family
// and gap model; the modeled-only knobs must keep reaching the modeled
// kernels.

// nativeMatrices is the matrix families the kernels special-case:
// full substitution (gather/profile scoring), fixed match/mismatch
// (compare-and-blend), and the DNA default (different alphabet size).
func nativeMatrices() []*submat.Matrix {
	return []*submat.Matrix{
		submat.Blosum62(),
		submat.MatchMismatch(protAlpha, 2, -1),
		submat.DNADefault(),
	}
}

// nativeGaps is the gap models under test: the protein default, a
// cheap-open affine model, and a linear model (Open == Extend), which
// exercises the reduced modeled kernels against the native backend's
// single affine recurrence.
func nativeGaps() []aln.Gaps {
	return []aln.Gaps{
		{Open: 11, Extend: 1},
		{Open: 5, Extend: 1},
		aln.Linear(2),
	}
}

// checkPairBackends runs one (q, d, mat, gaps) case through every
// score-only pair entry point on the native backend, under every
// kernel family, and requires the scalar reference's exact score with
// no saturation flag and the score-only -1 positions. The modeled
// adaptive ladder must land on the same score, and position tracking,
// a modeled-only knob, must return the modeled result on native.
func checkPairBackends(t *testing.T, q, d []uint8, mat *submat.Matrix, gaps aln.Gaps) {
	t.Helper()
	want := aln.ScoreResult{Score: baselines.ScalarAffine(q, d, mat, gaps).Score, EndQ: -1, EndD: -1}
	mod, _, err := AlignPairAdaptive(vek.Bare, q, d, mat, PairOptions{Gaps: gaps, Backend: BackendModeled})
	if err != nil {
		t.Fatalf("adaptive modeled: %v", err)
	}
	if mod != want {
		t.Errorf("adaptive modeled %+v, scalar %+v", mod, want)
	}
	type pairFn struct {
		name string
		run  func(PairOptions) (aln.ScoreResult, error)
	}
	fns := []pairFn{
		{"pair8", func(o PairOptions) (aln.ScoreResult, error) {
			return AlignPair8(vek.Bare, q, d, mat, o)
		}},
		{"pair8w", func(o PairOptions) (aln.ScoreResult, error) {
			return AlignPair8W(vek.Bare, q, d, mat, o)
		}},
		{"pair16", func(o PairOptions) (aln.ScoreResult, error) {
			r, _, err := AlignPair16(vek.Bare, q, d, mat, o)
			return r, err
		}},
		{"pair16w", func(o PairOptions) (aln.ScoreResult, error) {
			return AlignPair16W(vek.Bare, q, d, mat, o)
		}},
		{"pair32", func(o PairOptions) (aln.ScoreResult, error) {
			return AlignPair32(vek.Bare, q, d, mat, o)
		}},
		{"adaptive", func(o PairOptions) (aln.ScoreResult, error) {
			r, _, err := AlignPairAdaptive(vek.Bare, q, d, mat, o)
			return r, err
		}},
	}
	for _, fn := range fns {
		for _, kern := range []Kernel{KernelAuto, KernelStriped, KernelLazyF} {
			nat, err := fn.run(PairOptions{Gaps: gaps, Backend: BackendNative, Kernel: kern})
			if err != nil {
				t.Fatalf("%s native kernel=%v: %v", fn.name, kern, err)
			}
			if nat != want {
				t.Errorf("%s native kernel=%v: %+v, scalar %+v", fn.name, kern, nat, want)
			}
		}
	}
	pos := PairOptions{Gaps: gaps, TrackPosition: true, Backend: BackendModeled}
	modPos, _, err := AlignPair16(vek.Bare, q, d, mat, pos)
	if err != nil {
		t.Fatalf("pair16pos modeled: %v", err)
	}
	pos.Backend = BackendNative
	natPos, _, err := AlignPair16(vek.Bare, q, d, mat, pos)
	if err != nil {
		t.Fatalf("pair16pos native: %v", err)
	}
	if natPos != modPos {
		t.Errorf("pair16pos: native %+v != modeled %+v", natPos, modPos)
	}
}

func TestNativePairMatchesModeled(t *testing.T) {
	g := seqio.NewGenerator(301)
	for _, mat := range nativeMatrices() {
		alpha := mat.Alphabet()
		for _, gaps := range nativeGaps() {
			for trial := 0; trial < 12; trial++ {
				qlen := 1 + trial*29%230
				dlen := 1 + trial*41%310
				q := g.Protein("q", qlen).Encode(protAlpha)
				d := g.Protein("d", dlen).Encode(protAlpha)
				// Re-map codes into the matrix's alphabet range so the
				// DNA matrix sees valid input.
				for i := range q {
					q[i] %= uint8(alpha.Size())
				}
				for i := range d {
					d[i] %= uint8(alpha.Size())
				}
				checkPairBackends(t, q, d, mat, gaps)
			}
		}
	}
}

// TestNativePairRelated drives long, high-identity pairs through both
// backends: these saturate the modeled 8-bit tier and score high in
// the 16-bit one, while every native entry point scores them exactly
// on the first pass. A gap open above the 8-bit range checks that the
// 8-bit entry points hand native.Pair32 the caller's gaps, not the
// byte-clamped ones their modeled kernels run with.
func TestNativePairRelated(t *testing.T) {
	g := seqio.NewGenerator(302)
	for trial := 0; trial < 6; trial++ {
		src := g.Protein("src", 300+trial*200)
		rel := g.Related(src, "rel", 0.1, 0.02)
		q := src.Encode(protAlpha)
		d := rel.Encode(protAlpha)
		for _, gaps := range []aln.Gaps{aln.DefaultGaps(), {Open: 200, Extend: 1}} {
			checkPairBackends(t, q, d, b62, gaps)
		}
	}
}

// TestPairPositionTiebreak pins the modeled position tracker's
// contract by value: the winning cell is the maximum-scoring cell with
// the smallest anti-diagonal (i+j), then the smallest row, and the
// coordinates are -1/-1 on a zero score. A native position kernel must
// reproduce it.
func TestPairPositionTiebreak(t *testing.T) {
	cases := []struct {
		q, d       string
		score      int32
		endQ, endD int
	}{
		{"MKVLAW", "MKVLAW", 33, 5, 5},
		{"AAAA", "AAAA", 16, 3, 3},     // many equal-scoring cells
		{"AWAWAW", "WAWAWA", 41, 5, 4}, // repeated motif, diagonal ties
		{"MKV", "QQQ", 1, 1, 0},        // K/Q ties along row 1: smallest column
		// W/W at (0,4) and M/M+F/F ending at (2,1) both score 11:
		// row-major order meets (0,4) first, but (2,1) lies on the
		// smaller anti-diagonal and wins.
		{"WMF", "MFPPW", 11, 2, 1},
		// The same tie on one anti-diagonal: (0,3) and (2,1) both lie on
		// i+j = 3, and the smaller row wins.
		{"WMF", "MFPW", 11, 0, 3},
		{"MKV", "PPP", 0, -1, -1}, // zero score: no end cell
	}
	for _, c := range cases {
		q, d := enc(c.q), enc(c.d)
		got, _, err := AlignPair16(vek.Bare, q, d, b62,
			PairOptions{Gaps: aln.DefaultGaps(), TrackPosition: true, Backend: BackendModeled})
		if err != nil {
			t.Fatal(err)
		}
		want := aln.ScoreResult{Score: c.score, EndQ: c.endQ, EndD: c.endD}
		if got != want {
			t.Errorf("%s/%s: %+v, want %+v", c.q, c.d, got, want)
		}
	}
}

// laneResidues returns lane's residue codes out of the transposed
// batch.
func laneResidues(b *seqio.Batch, lane int) []uint8 {
	out := make([]uint8, b.Lens[lane])
	for j := range out {
		out[j] = b.T[j*b.Stride()+lane]
	}
	return out
}

// checkNativeBatch requires a native batch result to hold the scalar
// reference's score in every real lane and zero in every padding lane,
// with no saturation flag anywhere.
func checkNativeBatch(t *testing.T, name string, query []uint8, mat *submat.Matrix, batch *seqio.Batch, gaps aln.Gaps, nat BatchResult) {
	t.Helper()
	var want BatchResult
	for lane := 0; lane < batch.Count; lane++ {
		want.Scores[lane] = baselines.ScalarAffine(query, laneResidues(batch, lane), mat, gaps).Score
	}
	if nat != want {
		t.Errorf("%s lanes=%d: native batch diverges from the scalar reference\nnative %v\nscalar %v",
			name, batch.Stride(), nat.Scores, want.Scores)
	}
}

// checkBatchBackends aligns one query against one batch through the
// 8- and 16-bit batch entry points on both backends: native must match
// the scalar reference exactly and unflagged, and the modeled engine
// must agree with native on every lane it did not flag as saturated.
func checkBatchBackends(t *testing.T, query []uint8, tables *submat.CodeTables, batch *seqio.Batch, gaps aln.Gaps) {
	t.Helper()
	for _, width := range []struct {
		name string
		run  func(BatchOptions) (BatchResult, error)
	}{
		{"batch8", func(o BatchOptions) (BatchResult, error) {
			return AlignBatch8(vek.Bare, query, tables, batch, o)
		}},
		{"batch16", func(o BatchOptions) (BatchResult, error) {
			return AlignBatch16(vek.Bare, query, tables, batch, o)
		}},
	} {
		mod, err := width.run(BatchOptions{Gaps: gaps, Backend: BackendModeled})
		if err != nil {
			t.Fatalf("%s modeled: %v", width.name, err)
		}
		nat, err := width.run(BatchOptions{Gaps: gaps, Backend: BackendNative})
		if err != nil {
			t.Fatalf("%s native: %v", width.name, err)
		}
		checkNativeBatch(t, width.name, query, tables.Matrix(), batch, gaps, nat)
		for lane := 0; lane < batch.Stride(); lane++ {
			if !mod.Saturated[lane] && mod.Scores[lane] != nat.Scores[lane] {
				t.Errorf("%s lanes=%d lane %d: modeled %d, native %d",
					width.name, batch.Stride(), lane, mod.Scores[lane], nat.Scores[lane])
			}
		}
	}
}

func TestNativeBatchMatchesModeled(t *testing.T) {
	g := seqio.NewGenerator(303)
	db := g.Database(70)
	tables := submat.NewCodeTables(b62)
	for _, lanes := range []int{seqio.BatchLanes, seqio.MaxBatchLanes} {
		// A full batch and a partial one (padding lanes must stay zero).
		full := make([]int, lanes)
		for i := range full {
			full[i] = i
		}
		partial := []int{0, 3, 7}
		for _, members := range [][]int{full, partial} {
			b := seqio.MakeBatch(db, members, protAlpha, lanes)
			for _, gaps := range nativeGaps() {
				q := g.Protein("q", 90).Encode(protAlpha)
				checkBatchBackends(t, q, tables, b, gaps)
			}
		}
	}
}

// TestNativeBatchMultiMatchesModeled checks the shared-batch
// multi-query path: each query's native lanes equal the one-query
// native call and the scalar reference, and the modeled multi-query
// engine agrees wherever it did not saturate.
func TestNativeBatchMultiMatchesModeled(t *testing.T) {
	g := seqio.NewGenerator(304)
	db := g.Database(40)
	tables := submat.NewCodeTables(b62)
	b := seqio.MakeBatch(db, []int{0, 1, 2, 3, 4, 5, 6, 7}, protAlpha, seqio.BatchLanes)
	queries := [][]uint8{
		g.Protein("q1", 60).Encode(protAlpha),
		g.Protein("q2", 150).Encode(protAlpha),
		g.Protein("q3", 25).Encode(protAlpha),
	}
	gaps := aln.DefaultGaps()
	mod, err := AlignBatch8Multi(vek.Bare, queries, tables, b,
		BatchOptions{Gaps: gaps, Backend: BackendModeled})
	if err != nil {
		t.Fatal(err)
	}
	nat, err := AlignBatch8Multi(vek.Bare, queries, tables, b,
		BatchOptions{Gaps: gaps, Backend: BackendNative, Scratch: NewScratch()})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		checkNativeBatch(t, "multi", q, b62, b, gaps, nat[qi])
		one, err := AlignBatch8(vek.Bare, q, tables, b, BatchOptions{Gaps: gaps, Backend: BackendNative})
		if err != nil {
			t.Fatal(err)
		}
		if one != nat[qi] {
			t.Errorf("query %d: multi-query native lanes differ from the one-query call", qi)
		}
		for lane := 0; lane < b.Count; lane++ {
			if !mod[qi].Saturated[lane] && mod[qi].Scores[lane] != nat[qi].Scores[lane] {
				t.Errorf("query %d lane %d: modeled %d, native %d", qi, lane, mod[qi].Scores[lane], nat[qi].Scores[lane])
			}
		}
	}
}

// TestNativeSaturationEscalation runs a pair past both the 8- and
// 16-bit ceilings: a 4000-residue identical pair under a +9 match
// matrix scores 36000. The modeled ladder must flag each tier and
// land on the exact score; every native entry point must return that
// score on the first pass, unflagged.
func TestNativeSaturationEscalation(t *testing.T) {
	mat := submat.MatchMismatch(protAlpha, 9, -4)
	n := 4000
	q := make([]uint8, n)
	for i := range q {
		q[i] = uint8(i % 20)
	}
	d := append([]uint8(nil), q...)
	want := int32(9 * n)
	opt := PairOptions{Gaps: aln.DefaultGaps(), Backend: BackendModeled}
	r8, err := AlignPair8(vek.Bare, q, d, mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !r8.Saturated {
		t.Fatalf("modeled 8-bit tier did not saturate (score %d)", r8.Score)
	}
	r16, _, err := AlignPair16(vek.Bare, q, d, mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !r16.Saturated {
		t.Fatalf("modeled 16-bit tier did not saturate (score %d)", r16.Score)
	}
	res, _, err := AlignPairAdaptive(vek.Bare, q, d, mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != want || res.Saturated {
		t.Fatalf("modeled adaptive score %d (saturated %v), want %d exact", res.Score, res.Saturated, want)
	}
	opt.Backend = BackendNative
	exact := aln.ScoreResult{Score: want, EndQ: -1, EndD: -1}
	for name, run := range map[string]func() (aln.ScoreResult, error){
		"pair8": func() (aln.ScoreResult, error) { return AlignPair8(vek.Bare, q, d, mat, opt) },
		"pair16": func() (aln.ScoreResult, error) {
			r, _, err := AlignPair16(vek.Bare, q, d, mat, opt)
			return r, err
		},
		"adaptive": func() (aln.ScoreResult, error) {
			r, _, err := AlignPairAdaptive(vek.Bare, q, d, mat, opt)
			return r, err
		},
	} {
		got, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if got != exact {
			t.Errorf("native %s: %+v, want %+v", name, got, exact)
		}
	}
}

// TestProfileCacheHits verifies the scratch-held query-profile cache:
// repeating a query on one scratch rebuilds the 8-bit profile only
// once, a changed query or matrix misses, and the hit counter drains
// through TakeProfileCacheHits.
func TestProfileCacheHits(t *testing.T) {
	g := seqio.NewGenerator(305)
	q := g.Protein("q", 120).Encode(protAlpha)
	q2 := g.Protein("q2", 120).Encode(protAlpha)
	d := g.Protein("d", 200).Encode(protAlpha)
	s := NewScratch()
	opt := PairOptions{Gaps: aln.DefaultGaps(), Scratch: s, Backend: BackendModeled}
	for i := 0; i < 3; i++ {
		if _, err := AlignPair8(vek.Bare, q, d, b62, opt); err != nil {
			t.Fatal(err)
		}
	}
	if hits := s.TakeProfileCacheHits(); hits != 2 {
		t.Fatalf("profile cache hits = %d, want 2 (one build, two reuses)", hits)
	}
	// A different query must rebuild, not hit.
	if _, err := AlignPair8(vek.Bare, q2, d, b62, opt); err != nil {
		t.Fatal(err)
	}
	if hits := s.TakeProfileCacheHits(); hits != 0 {
		t.Fatalf("changed query still hit the cache (%d hits)", hits)
	}
	// The counter drained above; one more repeat yields exactly one hit.
	if _, err := AlignPair8(vek.Bare, q2, d, b62, opt); err != nil {
		t.Fatal(err)
	}
	if hits := s.TakeProfileCacheHits(); hits != 1 {
		t.Fatalf("repeat after drain: hits = %d, want 1", hits)
	}
	// The cached profile must not alias the caller's buffer: mutating
	// the old query bytes and re-running must still hit (private copy).
	q2[0] = (q2[0] + 1) % 20
	if _, err := AlignPair8(vek.Bare, q2, d, b62, opt); err != nil {
		t.Fatal(err)
	}
	if hits := s.TakeProfileCacheHits(); hits != 0 {
		t.Fatalf("mutated query buffer falsely hit the cache (%d hits)", hits)
	}
}

// FuzzNativeVsModeled fuzzes the backend seam the same way
// FuzzAlignWidths fuzzes the width ladder: for arbitrary sequences,
// gap models, and matrix families, every native entry point must
// return the scalar reference's score unflagged, and the modeled
// adaptive ladder must agree (see checkPairBackends and
// checkBatchBackends).
func FuzzNativeVsModeled(f *testing.F) {
	f.Add([]byte("MKVLAWMKVLAWMKVLAW"), []byte("MKVLAWMKVLNW"), byte(11), byte(1), false)
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"),
		[]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), byte(1), byte(1), true)
	f.Add([]byte("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW"),
		[]byte("WWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWWW"), byte(0), byte(0), false)
	f.Add([]byte("ACDEFGHIKLMNPQRSTVWY"), []byte("YWVTSRQPNMLKIHGFEDCA"), byte(19), byte(4), false)
	f.Add([]byte("M"), []byte("M"), byte(5), byte(2), true)

	bl62 := submat.Blosum62()
	fixed := submat.MatchMismatch(bl62.Alphabet(), 2, -1)

	f.Fuzz(func(t *testing.T, qraw, draw []byte, openB, extB byte, useFixed bool) {
		mat := bl62
		if useFixed {
			mat = fixed
		}
		size := mat.Alphabet().Size()
		q := fuzzCodes(qraw, size, 300)
		d := fuzzCodes(draw, size, 300)
		if len(q) == 0 || len(d) == 0 {
			t.Skip()
		}
		ext := 1 + int32(extB)%15
		open := ext + int32(openB)%20
		gaps := aln.Gaps{Open: open, Extend: ext}

		checkPairBackends(t, q, d, mat, gaps)
		checkPairBackends(t, q, d, mat, aln.Linear(ext))

		alpha := mat.Alphabet()
		letters := make([]byte, len(d))
		for i, c := range d {
			letters[i] = alpha.Letter(c)
		}
		db := []seqio.Sequence{{ID: "fuzz", Residues: letters}}
		tables := submat.NewCodeTables(mat)
		for _, lanes := range []int{seqio.BatchLanes, seqio.MaxBatchLanes} {
			b := seqio.MakeBatch(db, []int{0}, alpha, lanes)
			checkBatchBackends(t, q, tables, b, gaps)
		}
	})
}
