package core

import (
	"swvec/internal/aln"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// lanes16w is the lane count of the 512-bit 16-bit kernel.
const lanes16w = 32

// AlignPair16W is the AVX-512 build of the wavefront kernel: identical
// structure to AlignPair16 but 32 16-bit lanes per issue, wide gathers
// and wide saturating arithmetic — the same generic engine instantiated
// at I16x32. It exists for the Fig. 6 comparison: half the instruction
// count per cell, but the architecture models apply AVX-512 frequency
// licenses and port costs, so the end-to-end speedup stays well under
// 2x (score-only; traceback uses the 256-bit kernel).
func AlignPair16W(mch vek.Machine, q, dseq []uint8, mat *submat.Matrix, opt PairOptions) (aln.ScoreResult, error) {
	if err := checkPair(q, dseq, &opt); err != nil {
		return aln.ScoreResult{EndQ: -1, EndD: -1}, err
	}
	// Score-only wide build: always the affine kernel with padded
	// tails, no traceback or position tracking.
	opt.Traceback = false
	opt.TrackPosition = false
	opt.EagerMax = false
	opt.RowMajorLayout = false
	opt.ScalarTail = false
	if opt.Backend == BackendNative {
		return nativePair32(q, dseq, mat, &opt), nil
	}
	if opt.Kernel.Striped() && !opt.Gaps.IsLinear() {
		return alignStriped[vek.I16x32, int16](vek.E16x32{}, mch, q, dseq, mat, &opt, stripedState16(opt.Scratch)), nil
	}
	bufs := &pairBufs[int16]{}
	if opt.Scratch != nil {
		bufs = &opt.Scratch.pair16
	}
	res, _, err := alignPairAffine[vek.I16x32, int16](vek.E16x32{}, mch, q, dseq, mat, opt, bufs)
	return res, err
}
