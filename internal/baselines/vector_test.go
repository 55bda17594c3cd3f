package baselines

import (
	"testing"
	"testing/quick"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

var b62 = submat.Blosum62()

func randomPair(g *seqio.Generator, qlen, dlen int) ([]uint8, []uint8) {
	q := g.Protein("q", qlen).Encode(protAlpha)
	d := g.Protein("d", dlen).Encode(protAlpha)
	return q, d
}

func TestDiag16MatchesScalar(t *testing.T) {
	g := seqio.NewGenerator(61)
	gaps := aln.DefaultGaps()
	for trial := 0; trial < 30; trial++ {
		q, d := randomPair(g, 3+trial*9, 5+trial*13)
		want := ScalarAffine(q, d, b62, gaps)
		got := Diag16(vek.Bare, q, d, b62, gaps)
		if got.Score != want.Score {
			t.Fatalf("trial %d: score %d, want %d", trial, got.Score, want.Score)
		}
	}
}

func TestDiag16Homologs(t *testing.T) {
	g := seqio.NewGenerator(62)
	gaps := aln.Gaps{Open: 5, Extend: 1}
	for trial := 0; trial < 10; trial++ {
		src := g.Protein("s", 150+trial*31)
		rel := g.Related(src, "r", 0.15, 0.04)
		q, d := src.Encode(protAlpha), rel.Encode(protAlpha)
		want := ScalarAffine(q, d, b62, gaps)
		got := Diag16(vek.Bare, q, d, b62, gaps)
		if got.Score != want.Score {
			t.Fatalf("trial %d: score %d, want %d", trial, got.Score, want.Score)
		}
	}
}

func TestScan16MatchesScalar(t *testing.T) {
	g := seqio.NewGenerator(63)
	gaps := aln.DefaultGaps()
	for trial := 0; trial < 30; trial++ {
		q, d := randomPair(g, 3+trial*9, 5+trial*13)
		want := ScalarAffine(q, d, b62, gaps)
		got, _ := Scan16(vek.Bare, q, d, b62, gaps)
		if got.Score != want.Score {
			t.Fatalf("trial %d (%dx%d): score %d, want %d", trial, len(q), len(d), got.Score, want.Score)
		}
	}
}

func TestScan16Homologs(t *testing.T) {
	g := seqio.NewGenerator(64)
	gaps := aln.Gaps{Open: 4, Extend: 1}
	for trial := 0; trial < 10; trial++ {
		src := g.Protein("s", 120+trial*41)
		rel := g.Related(src, "r", 0.2, 0.06)
		q, d := src.Encode(protAlpha), rel.Encode(protAlpha)
		want := ScalarAffine(q, d, b62, gaps)
		got, stats := Scan16(vek.Bare, q, d, b62, gaps)
		if got.Score != want.Score {
			t.Fatalf("trial %d: score %d, want %d", trial, got.Score, want.Score)
		}
		if stats.Columns != len(d) {
			t.Fatalf("columns %d, want %d", stats.Columns, len(d))
		}
	}
}

func TestScan16GapHeavyCorrections(t *testing.T) {
	// A long vertical gap forces F to dominate across chunk
	// boundaries, exercising the correction pass.
	g := seqio.NewGenerator(65)
	src := g.Protein("s", 400)
	q := src.Encode(protAlpha)
	// Database = query with a large block deleted: optimal alignment
	// needs a long insertion (vertical gap).
	d := append(append([]uint8{}, q[:100]...), q[300:]...)
	gaps := aln.Gaps{Open: 3, Extend: 1}
	want := ScalarAffine(q, d, b62, gaps)
	got, stats := Scan16(vek.Bare, q, d, b62, gaps)
	if got.Score != want.Score {
		t.Fatalf("score %d, want %d", got.Score, want.Score)
	}
	if stats.Corrections == 0 {
		t.Error("expected E corrections on a gap-heavy input")
	}
}

// stripedPair runs Fig. 14's striped baseline, core's KernelStriped
// family, at 16x16 (bits 16) or 8x32 (bits 8) on mch.
func stripedPair(t *testing.T, mch vek.Machine, bits int, q, d []uint8, gaps aln.Gaps) aln.ScoreResult {
	t.Helper()
	opt := core.PairOptions{Gaps: gaps, Kernel: core.KernelStriped}
	var r aln.ScoreResult
	var err error
	if bits == 8 {
		r, err = core.AlignPair8(mch, q, d, b62, opt)
	} else {
		r, _, err = core.AlignPair16(mch, q, d, b62, opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// lazyFRate is the striped kernel's lazy-F iterations per database
// column: each iteration issues exactly one movemask.
func lazyFRate(t *testing.T, bits int, q, d []uint8, gaps aln.Gaps) float64 {
	t.Helper()
	mch, tal := vek.NewMachine()
	stripedPair(t, mch, bits, q, d, gaps)
	return float64(tal.N256[vek.OpMoveMask]) / float64(len(d))
}

func TestStriped16MatchesScalar(t *testing.T) {
	g := seqio.NewGenerator(66)
	gaps := aln.DefaultGaps()
	for trial := 0; trial < 30; trial++ {
		q, d := randomPair(g, 3+trial*9, 5+trial*13)
		want := ScalarAffine(q, d, b62, gaps)
		got := stripedPair(t, vek.Bare, 16, q, d, gaps)
		if got.Score != want.Score {
			t.Fatalf("trial %d (%dx%d): score %d, want %d", trial, len(q), len(d), got.Score, want.Score)
		}
	}
}

func TestStriped16Homologs(t *testing.T) {
	g := seqio.NewGenerator(67)
	gaps := aln.Gaps{Open: 4, Extend: 1}
	for trial := 0; trial < 10; trial++ {
		src := g.Protein("s", 130+trial*37)
		rel := g.Related(src, "r", 0.18, 0.05)
		q, d := src.Encode(protAlpha), rel.Encode(protAlpha)
		want := ScalarAffine(q, d, b62, gaps)
		got := stripedPair(t, vek.Bare, 16, q, d, gaps)
		if got.Score != want.Score {
			t.Fatalf("trial %d: score %d, want %d", trial, got.Score, want.Score)
		}
	}
}

func TestStriped16LazyFVariesWithInput(t *testing.T) {
	// The paper's determinism argument: striped's correction work is
	// data dependent. A gap-heavy input must trigger more lazy-F
	// iterations per column than an unrelated random input.
	g := seqio.NewGenerator(68)
	q := g.Protein("s", 400).Encode(protAlpha)
	gaps := aln.Gaps{Open: 3, Extend: 1}
	dGap := append(append([]uint8{}, q[:100]...), q[300:]...)
	dRand := g.Protein("d", len(dGap)).Encode(protAlpha)
	gapRate, randRate := lazyFRate(t, 16, q, dGap, gaps), lazyFRate(t, 16, q, dRand, gaps)
	if gapRate <= randRate {
		t.Errorf("lazy-F rate on homologous input (%.2f) should exceed random (%.2f)", gapRate, randRate)
	}
}

func TestStriped8MatchesScalarUnderSaturation(t *testing.T) {
	g := seqio.NewGenerator(71)
	gaps := aln.DefaultGaps()
	for trial := 0; trial < 30; trial++ {
		q, d := randomPair(g, 3+trial*9, 5+trial*13)
		want := ScalarAffine(q, d, b62, gaps).Score
		got := stripedPair(t, vek.Bare, 8, q, d, gaps)
		if want < 127 {
			if got.Score != want {
				t.Fatalf("trial %d: score %d, want %d", trial, got.Score, want)
			}
			if got.Saturated {
				t.Fatalf("trial %d: spurious saturation", trial)
			}
		} else if !got.Saturated {
			t.Fatalf("trial %d: true score %d should saturate", trial, want)
		}
	}
}

func TestStriped8SaturatesOnHomologs(t *testing.T) {
	g := seqio.NewGenerator(72)
	src := g.Protein("s", 300)
	rel := g.Related(src, "r", 0.05, 0.01)
	q, d := src.Encode(protAlpha), rel.Encode(protAlpha)
	if ScalarAffine(q, d, b62, aln.DefaultGaps()).Score <= 127 {
		t.Skip("homolog unexpectedly weak")
	}
	if got := stripedPair(t, vek.Bare, 8, q, d, aln.DefaultGaps()); !got.Saturated {
		t.Fatalf("expected saturation, score %d", got.Score)
	}
}

func TestStriped8LazyFDataDependence(t *testing.T) {
	g := seqio.NewGenerator(73)
	q := g.Protein("s", 400).Encode(protAlpha)
	gaps := aln.Gaps{Open: 3, Extend: 1}
	dGap := append(append([]uint8{}, q[:100]...), q[300:]...)
	dRand := g.Protein("d", len(dGap)).Encode(protAlpha)
	gapRate, randRate := lazyFRate(t, 8, q, dGap, gaps), lazyFRate(t, 8, q, dRand, gaps)
	if gapRate <= randRate {
		t.Errorf("lazy-F rate on homologous input (%.2f) should exceed random (%.2f)", gapRate, randRate)
	}
}

func TestAllKernelsAgreeProperty(t *testing.T) {
	g := seqio.NewGenerator(69)
	gaps := aln.DefaultGaps()
	f := func(ql, dl uint8) bool {
		qlen := 1 + int(ql)%150
		dlen := 1 + int(dl)%150
		q, d := randomPair(g, qlen, dlen)
		want := ScalarAffine(q, d, b62, gaps).Score
		if Diag16(vek.Bare, q, d, b62, gaps).Score != want {
			return false
		}
		got, _ := Scan16(vek.Bare, q, d, b62, gaps)
		return got.Score == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKernelsEmptyInputs(t *testing.T) {
	q := enc("ACD")
	gaps := aln.DefaultGaps()
	if got := Diag16(vek.Bare, nil, q, b62, gaps); got.Score != 0 {
		t.Error("diag empty query")
	}
	if got, _ := Scan16(vek.Bare, q, nil, b62, gaps); got.Score != 0 {
		t.Error("scan empty database")
	}
}

func TestDiagCheaperThanScalarButCostsMoreThanGather(t *testing.T) {
	// Sanity on the op mix: Parasail-diag spends scalar loads on score
	// assembly that the paper's kernel replaces with gathers.
	g := seqio.NewGenerator(70)
	q, d := randomPair(g, 128, 256)
	mch, tal := vek.NewMachine()
	Diag16(mch, q, d, b62, aln.DefaultGaps())
	if tal.N256[vek.OpGather32] != 0 {
		t.Error("Parasail-style diag must not use gathers")
	}
	if tal.N256[vek.OpScalarLoad] == 0 {
		t.Error("diag should assemble scores with scalar loads")
	}
	if tal.N256[vek.OpReduce] == 0 {
		t.Error("diag reduces eagerly; expected reduce ops")
	}
}
