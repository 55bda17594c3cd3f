package core

import (
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

func TestPair32MatchesScalar(t *testing.T) {
	g := seqio.NewGenerator(131)
	gaps := aln.DefaultGaps()
	for trial := 0; trial < 30; trial++ {
		q := g.Protein("q", 3+trial*13).Encode(protAlpha)
		d := g.Protein("d", 5+trial*17).Encode(protAlpha)
		want := baselines.ScalarAffine(q, d, b62, gaps)
		got, err := AlignPair32(vek.Bare, q, d, b62, PairOptions{Gaps: gaps})
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want.Score {
			t.Fatalf("trial %d: score %d, want %d", trial, got.Score, want.Score)
		}
	}
}

func TestPair32BeyondInt16Range(t *testing.T) {
	// Scores above 32767 are exact at 32 bits: 4000 tryptophans
	// self-aligned score 44000.
	w := make([]uint8, 4000)
	for i := range w {
		w[i] = protAlpha.Index('W')
	}
	got, err := AlignPair32(vek.Bare, w, w, b62, defaultOpt())
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != 44000 {
		t.Fatalf("score = %d, want 44000", got.Score)
	}
	if got.Saturated {
		t.Error("32-bit kernel must not saturate")
	}
}

func TestPair32Homologs(t *testing.T) {
	g := seqio.NewGenerator(132)
	gaps := aln.Gaps{Open: 5, Extend: 1}
	src := g.Protein("s", 250)
	rel := g.Related(src, "r", 0.15, 0.04)
	q, d := src.Encode(protAlpha), rel.Encode(protAlpha)
	want := baselines.ScalarAffine(q, d, b62, gaps)
	got, err := AlignPair32(vek.Bare, q, d, b62, PairOptions{Gaps: gaps})
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != want.Score {
		t.Fatalf("score %d, want %d", got.Score, want.Score)
	}
}

func TestPair32ScalarThresholdInvariance(t *testing.T) {
	g := seqio.NewGenerator(133)
	q := g.Protein("q", 60).Encode(protAlpha)
	d := g.Protein("d", 110).Encode(protAlpha)
	want := baselines.ScalarAffine(q, d, b62, aln.DefaultGaps()).Score
	for _, thr := range []int{1, 4, 8, 100} {
		got, err := AlignPair32(vek.Bare, q, d, b62, PairOptions{Gaps: aln.DefaultGaps(), ScalarThreshold: thr})
		if err != nil {
			t.Fatal(err)
		}
		if got.Score != want {
			t.Fatalf("thr %d: score %d, want %d", thr, got.Score, want)
		}
	}
}

func TestAdaptiveReaches32BitTier(t *testing.T) {
	w := make([]uint8, 3500)
	for i := range w {
		w[i] = protAlpha.Index('W')
	}
	got, _, err := AlignPairAdaptive(vek.Bare, w, w, b62, defaultOpt())
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != 38500 {
		t.Fatalf("adaptive score = %d, want 38500", got.Score)
	}
	if got.Saturated {
		t.Error("32-bit tier must clear the saturation flag")
	}
}

func TestPair32Errors(t *testing.T) {
	if _, err := AlignPair32(vek.Bare, nil, enc("ACD"), b62, defaultOpt()); err == nil {
		t.Error("empty query accepted")
	}
}

// ungappedBest is the best local alignment score without gaps: the
// best Kadane run along every diagonal of the DP matrix.
func ungappedBest(q, d []uint8, mat *submat.Matrix) int32 {
	var best int32
	for off := -len(q) + 1; off < len(d); off++ {
		var run int32
		for i := 0; i < len(q); i++ {
			j := i + off
			if j < 0 || j >= len(d) {
				continue
			}
			run = max(run+int32(mat.Score(q[i], d[j])), 0)
			best = max(best, run)
		}
	}
	return best
}

// TestGapPenaltyBound runs the int32 recurrences — native.Pair32, the
// modeled 32-bit kernel, the adaptive ladder on both backends and the
// scalar reference — at the largest penalties aln.Gaps.Validate
// accepts, where E and F come closest to the int32 floor. No gap can
// pay for itself there, so every one must return the best ungapped
// score; one past the bound must be refused.
func TestGapPenaltyBound(t *testing.T) {
	const bound = 1 << 29 // aln.Gaps.Validate's documented bound
	q := enc("MKVLAWGHKLAMDERTY")
	d := enc("MKVLAWDERTYGHKLAM")
	want := ungappedBest(q, d, b62)
	for _, gaps := range []aln.Gaps{{Open: bound, Extend: bound}, {Open: bound, Extend: 1}} {
		if got := baselines.ScalarAffine(q, d, b62, gaps).Score; got != want {
			t.Fatalf("gaps %+v: scalar reference %d, ungapped best %d", gaps, got, want)
		}
		for _, be := range []Backend{BackendModeled, BackendNative} {
			opt := PairOptions{Gaps: gaps, Backend: be}
			r32, err := AlignPair32(vek.Bare, q, d, b62, opt)
			if err != nil {
				t.Fatal(err)
			}
			ra, _, err := AlignPairAdaptive(vek.Bare, q, d, b62, opt)
			if err != nil {
				t.Fatal(err)
			}
			if r32.Score != want || ra.Score != want {
				t.Errorf("gaps %+v backend=%v: pair32 %d, adaptive %d, want %d", gaps, be, r32.Score, ra.Score, want)
			}
		}
	}
	over := aln.Gaps{Open: bound + 1, Extend: 1}
	for _, be := range []Backend{BackendModeled, BackendNative} {
		opt := PairOptions{Gaps: over, Backend: be}
		if _, err := AlignPair32(vek.Bare, q, d, b62, opt); err == nil {
			t.Errorf("backend=%v: pair32 accepted gaps %+v past the bound", be, over)
		}
		if _, _, err := AlignPairAdaptive(vek.Bare, q, d, b62, opt); err == nil {
			t.Errorf("backend=%v: adaptive accepted gaps %+v past the bound", be, over)
		}
	}
}
