package core

import (
	"swvec/internal/aln"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// lanes32 is the lane count of the 256-bit 32-bit kernel.
const lanes32 = 8

// negInf32 is the E/F boundary for the 32-bit kernel; headroom for
// repeated subtraction without wraparound.
const negInf32 = int32(-1 << 29)

// AlignPair32 is the 32-bit wavefront kernel: 8 cells per issue, no
// saturation for any biologically plausible score, substitution scores
// gathered directly (the 32-bit case of §III-C, no narrowing needed).
// It is the final escalation tier when 16-bit scores saturate, so the
// whole adaptive chain stays vectorized. opt.Scratch, when set,
// supplies the working buffers so the search pipeline's escalation
// path does not allocate. On the native backend it runs
// native.Pair32.
func AlignPair32(mch vek.Machine, q, dseq []uint8, mat *submat.Matrix, opt PairOptions) (aln.ScoreResult, error) {
	if err := checkPair(q, dseq, &opt); err != nil {
		return aln.ScoreResult{EndQ: -1, EndD: -1}, err
	}
	// Score-only tier: traceback, position tracking and the 16-bit
	// ablation knobs do not apply; tails always use the padded vector.
	opt.Traceback = false
	opt.TrackPosition = false
	opt.EagerMax = false
	opt.RowMajorLayout = false
	opt.ScalarTail = false
	if opt.Backend == BackendNative {
		return nativePair32(q, dseq, mat, &opt), nil
	}
	var local pairBufs[int32]
	bufs := &local
	if opt.Scratch != nil {
		bufs = &opt.Scratch.pair32
	}
	res, _, err := alignPairAffine[vek.I32x8, int32](vek.E32x8{}, mch, q, dseq, mat, opt, bufs)
	return res, err
}
