package core

import (
	"swvec/internal/aln"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// pair8Opt normalizes options for the score-only 8-bit pair kernels:
// traceback and position tracking live in the 16-bit kernel, the gap
// penalties must fit the byte range, and the ablation knobs that only
// the 16-bit kernel models are cleared.
func pair8Opt(opt PairOptions) PairOptions {
	if opt.Gaps.Open > 127 {
		opt.Gaps.Open = 127
	}
	if opt.Gaps.Extend > 127 {
		opt.Gaps.Extend = 127
	}
	opt.Traceback = false
	opt.TrackPosition = false
	opt.EagerMax = false
	opt.RowMajorLayout = false
	return opt
}

// AlignPair8 aligns one pair with the 8-bit wavefront kernel: 32 cells
// per instruction, affine gaps, deferred per-lane maxima, score-only.
// Scores saturate at 127; callers check Saturated and escalate to
// AlignPair16 (or use AlignPairAdaptive, which does it for them).
//
// Scoring has two paths. With a uniform match/mismatch matrix the
// scores come from a fully vectorized compare-and-blend. With a full
// substitution matrix there is no 8-bit gather on AVX2, so the scores
// are assembled lane by lane from the query profile — the performance
// problem §III-C describes, and the reason the 8-bit database-search
// path uses the batch engine (AlignBatch8) instead.
//
// On the native backend every pair entry point, this one included,
// runs native.Pair32 with the caller's gaps: the exact score, never
// saturated.
func AlignPair8(mch vek.Machine, q, dseq []uint8, mat *submat.Matrix, opt PairOptions) (aln.ScoreResult, error) {
	if err := checkPair(q, dseq, &opt); err != nil {
		return aln.ScoreResult{EndQ: -1, EndD: -1}, err
	}
	if opt.Backend == BackendNative {
		return nativePair32(q, dseq, mat, &opt), nil
	}
	opt = pair8Opt(opt)
	if opt.Kernel.Striped() && !opt.Gaps.IsLinear() {
		return alignStriped[vek.I8x32, int8](vek.E8x32{}, mch, q, dseq, mat, &opt, stripedState8(opt.Scratch)), nil
	}
	// The scalar fallback handles partial tails: at 8 bits the padded
	// tail would spend its masking ops on at most a few lanes' worth
	// of useful work per short diagonal.
	opt.ScalarTail = true
	bufs := &pairBufs[int8]{}
	if opt.Scratch != nil {
		bufs = &opt.Scratch.pair8
	}
	res, _, err := alignPairAffine[vek.I8x32, int8](vek.E8x32{}, mch, q, dseq, mat, opt, bufs)
	return res, err
}

// AlignPair8W is the AVX-512 build of the 8-bit wavefront kernel: the
// same generic engine instantiated at 64 lanes. Like AlignPair16W it
// exists for the 256- vs 512-bit comparison; saturation behavior is
// identical to AlignPair8.
func AlignPair8W(mch vek.Machine, q, dseq []uint8, mat *submat.Matrix, opt PairOptions) (aln.ScoreResult, error) {
	if err := checkPair(q, dseq, &opt); err != nil {
		return aln.ScoreResult{EndQ: -1, EndD: -1}, err
	}
	if opt.Backend == BackendNative {
		return nativePair32(q, dseq, mat, &opt), nil
	}
	opt = pair8Opt(opt)
	if opt.Kernel.Striped() && !opt.Gaps.IsLinear() {
		return alignStriped[vek.I8x64, int8](vek.E8x64{}, mch, q, dseq, mat, &opt, stripedState8(opt.Scratch)), nil
	}
	// At 64 lanes the padded tail wins back far more work than the
	// scalar fallback, so the wide build keeps it.
	opt.ScalarTail = false
	bufs := &pairBufs[int8]{}
	if opt.Scratch != nil {
		bufs = &opt.Scratch.pair8
	}
	res, _, err := alignPairAffine[vek.I8x64, int8](vek.E8x64{}, mch, q, dseq, mat, opt, bufs)
	return res, err
}

// AlignPairAdaptive is the variable-bitwidth driver: run the cheap
// 8-bit kernel first and escalate to 16 bits only when the score
// saturates — the paper's "variable (8/16) bit width implementation" —
// with a final 32-bit tier so even extreme scores stay vectorized. A
// score-only call on the native backend needs no ladder: it runs
// native.Pair32 once.
func AlignPairAdaptive(mch vek.Machine, q, dseq []uint8, mat *submat.Matrix, opt PairOptions) (aln.ScoreResult, *TraceMatrix, error) {
	if nativePairOK(&opt) {
		res, err := AlignPair32(mch, q, dseq, mat, opt)
		return res, nil, err
	}
	if !opt.Traceback && !opt.TrackPosition {
		res8, err := AlignPair8(mch, q, dseq, mat, opt)
		if err != nil {
			return res8, nil, err
		}
		if !res8.Saturated {
			return res8, nil, nil
		}
	}
	// Traceback and position tracking live in the 16-bit kernel.
	res16, tb, err := AlignPair16(mch, q, dseq, mat, opt)
	if err != nil || !res16.Saturated {
		return res16, tb, err
	}
	// 16-bit saturation (scores above 32767): rerun at 32 bits.
	// Traceback at such scores is out of the 16-bit trace's range, so
	// the 32-bit tier is score-only.
	res32, err := AlignPair32(mch, q, dseq, mat, opt)
	return res32, nil, err
}
