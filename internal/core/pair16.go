package core

import (
	"swvec/internal/aln"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// lanes16 is the lane count of the 256-bit 16-bit kernel.
const lanes16 = 16

// AlignPair16 aligns encoded query q against encoded database sequence
// dseq with the paper's 16-bit wavefront kernel: anti-diagonal
// vectorization (16 cells per instruction), substitution scores fetched
// by 32-bit gathers into the reorganized flat matrix, diagonal-indexed
// rolling buffers, zero-padded or scalar tails for short segments, and
// the deferred per-lane maximum of §III-D. It instantiates the generic
// lane engine at 16 bits x 16 lanes; Open == Extend selects the
// reduced linear-gap variant (Fig. 7).
//
// When opt.Traceback is set the returned TraceMatrix holds one
// direction byte per cell in diagonal-linearized storage and the
// result carries the end coordinates; otherwise the trace is nil and,
// unless opt.TrackPosition is set, EndQ/EndD are -1 (the deferred
// maximum intentionally discards positions until the final reduction).
// A score-only call on the native backend runs native.Pair32 instead:
// the exact score, never saturated.
func AlignPair16(mch vek.Machine, q, dseq []uint8, mat *submat.Matrix, opt PairOptions) (aln.ScoreResult, *TraceMatrix, error) {
	if err := checkPair(q, dseq, &opt); err != nil {
		return aln.ScoreResult{EndQ: -1, EndD: -1}, nil, err
	}
	if nativePairOK(&opt) {
		return nativePair32(q, dseq, mat, &opt), nil, nil
	}
	// The striped family is score-only and affine-only; anything that
	// needs positions, a trace, a diagonal-only ablation, or the linear
	// gap model stays on the diagonal kernel.
	if opt.Kernel.Striped() && !opt.Gaps.IsLinear() && !opt.Traceback && !opt.TrackPosition && !opt.EagerMax && !opt.RowMajorLayout {
		return alignStriped[vek.I16x16, int16](vek.E16x16{}, mch, q, dseq, mat, &opt, stripedState16(opt.Scratch)), nil, nil
	}
	bufs := &pairBufs[int16]{}
	if opt.Scratch != nil {
		bufs = &opt.Scratch.pair16
	}
	if opt.Gaps.IsLinear() {
		return alignPairLinear[vek.I16x16, int16](vek.E16x16{}, mch, q, dseq, mat, opt, bufs)
	}
	return alignPairAffine[vek.I16x16, int16](vek.E16x16{}, mch, q, dseq, mat, opt, bufs)
}
