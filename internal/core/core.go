// Package core implements the paper's enhanced Smith-Waterman
// alignment kernel (§III): anti-diagonal (wavefront) vectorization
// with diagonal-based memory indexing, zero-padded short diagonal
// segments with a scalar fallback, the reorganized 32-wide
// substitution matrix accessed by 32-bit gathers (16-bit lanes) or by
// query-profile shuffles (8-bit lanes), deferred per-lane maxima, an
// interleaved 32-sequence batch engine for database search, optional
// traceback recording in diagonal-linearized storage, and variable
// 8/16-bit width with saturation-triggered escalation. These are the
// modeled backend's kernels; on the native backend every score-only
// entry point runs the one exact kernel in internal/native (see
// native.go).
package core

import (
	"fmt"

	"swvec/internal/aln"
)

// negInf16 is the E/F boundary value for the 16-bit kernels. It leaves
// headroom so that repeated saturating subtraction cannot wrap and the
// scalar fallback can subtract penalties in int32 without overflow.
const negInf16 = int16(-30000)

// sat16 is the saturation ceiling of the 16-bit kernels.
const sat16 = int16(32767)

// sat8 is the saturation ceiling of the 8-bit kernels.
const sat8 = int8(127)

// PairOptions configures the per-pair wavefront kernels.
type PairOptions struct {
	// Gaps is the gap model. Open == Extend selects the reduced
	// linear-gap kernel, which skips the E/F bookkeeping (Fig. 7).
	Gaps aln.Gaps
	// Traceback records per-cell directions in diagonal-linearized
	// storage so Walk can recover the alignment (Fig. 8).
	Traceback bool
	// ScalarThreshold routes diagonal segments shorter than this to
	// the scalar fallback path (§III-B: "for small segments, we revert
	// to standard CPU instructions"). Zero selects the default.
	ScalarThreshold int
	// ScalarTail computes partial tail vectors with the scalar
	// fallback instead of the default zero-padded masked vector
	// (§III-B uses padding; this is the ablation knob for that
	// choice).
	ScalarTail bool
	// RowMajorLayout models storing H/E/F in row-major order instead
	// of the diagonal-linearized layout: every vector store becomes a
	// strided scatter of scalar stores. Used by the Fig. 2 ablation.
	RowMajorLayout bool
	// TrackPosition keeps the end coordinates of the best cell in
	// score-only mode at the cost of one compare+movemask per vector
	// (implied by Traceback).
	TrackPosition bool
	// EagerMax is the §III-D ablation: perform a horizontal reduction
	// after every vector instead of deferring per-lane maxima to the
	// end of the alignment.
	EagerMax bool
	// Scratch supplies reusable working buffers owned by the calling
	// worker (the modeled kernels' diagonal buffers and profile caches,
	// the native kernel's rows); nil allocates per call.
	Scratch *Scratch
	// Backend selects the execution backend. BackendAuto and
	// BackendModeled run the instrumented vek machine; BackendNative
	// runs every score-only call, whatever its entry point's width, on
	// native.Pair32: the exact score, never saturated, and no
	// instruction tallies. The modeled-only features (Traceback,
	// TrackPosition, EagerMax, RowMajorLayout) force the modeled
	// backend.
	Backend Backend
	// Kernel selects the modeled kernel family. KernelAuto and
	// KernelDiagonal run the anti-diagonal wavefront kernel; the
	// striped family (KernelStriped, KernelLazyF) runs Farrar's
	// segmented layout, which is score-only: requests that need
	// positions or traceback (Traceback, TrackPosition) and the
	// modeled-only ablations (EagerMax, RowMajorLayout) stay on the
	// diagonal family. The native backend ignores it.
	Kernel Kernel
}

// DefaultScalarThreshold is the segment length below which the kernels
// use scalar instructions; segments at least this long are vectorized.
const DefaultScalarThreshold = 8

func (o *PairOptions) scalarThreshold(lanes int) int {
	t := o.ScalarThreshold
	if t <= 0 {
		t = DefaultScalarThreshold
	}
	if t > lanes {
		t = lanes
	}
	return t
}

func (o *PairOptions) validate() error {
	return o.Gaps.Validate()
}

// diagBounds returns the inclusive 1-based row range [lo, hi] of cells
// on anti-diagonal d (= i + j, i in 1..m, j in 1..n). An empty range
// has lo > hi.
func diagBounds(d, m, n int) (lo, hi int) {
	lo = d - n
	if lo < 1 {
		lo = 1
	}
	hi = d - 1
	if hi > m {
		hi = m
	}
	return lo, hi
}

// checkPair validates kernel inputs shared by all pair kernels.
func checkPair(q, d []uint8, opt *PairOptions) error {
	if err := opt.validate(); err != nil {
		return err
	}
	if len(q) == 0 || len(d) == 0 {
		//swlint:ignore hotpathalloc validation reject is the cold path; warm calls never take this branch
		return fmt.Errorf("core: empty sequence (query %d, database %d residues)", len(q), len(d))
	}
	return nil
}
