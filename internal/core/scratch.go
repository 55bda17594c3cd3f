package core

import (
	"swvec/internal/aln"
	"swvec/internal/submat"
)

// A Scratch holds the reusable working buffers of the batch engines
// and the pair kernels: the transposed-residue int8 conversion, the DP
// column state, the per-row block carries, the §III-C per-code score
// rows, the modeled pair kernels' diagonal buffers, and the native
// stage's lane row and int32 H/F rows. One Scratch belongs to one
// worker goroutine — it is not safe for concurrent use — and threading
// it through BatchOptions.Scratch / PairOptions.Scratch makes the
// steady-state search hot path allocation-free: every buffer grows to
// the largest size seen and is then reused verbatim. The batch buffers are sized
// by the batch's actual lane count, so one Scratch serves both the
// 256-bit (32-lane) and 512-bit (64-lane) engines.
//
// A nil Scratch keeps the allocate-per-call behavior, so the zero
// options remain valid.
type Scratch struct {
	// t8 holds the batch's transposed residue matrix as int8 lanes.
	t8 []int8
	// score is the per-code substitution score cache of §III-C.
	score batchScratch
	// hRow8/fRow8 are the 8-bit batch engines' column state (H and F
	// rows, flattened with the batch's lane stride).
	hRow8, fRow8 []int8
	// hRow16/fRow16 are the 16-bit batch engines' column state.
	hRow16, fRow16 []int16
	// carryE8/carryL8/carryD8 are the 8-bit engines' per-query-row
	// carries across column blocks (E, H-left, H-diagonal), flattened
	// with the batch's lane stride.
	carryE8, carryL8, carryD8 []int8
	// carryE16/carryL16/carryD16 are the 16-bit engines' carries.
	carryE16, carryL16, carryD16 []int16
	// pair8/pair16/pair32 hold the modeled pair kernels' diagonal
	// buffers per element width (the 256- and 512-bit builds of a
	// width share one set; the buffers are resized and refilled per
	// call).
	pair8  pairBufs[int8]
	pair16 pairBufs[int16]
	pair32 pairBufs[int32]
	// nph32/npf32 are native.Pair32's H/F rows.
	nph32, npf32 []int32
	// prof8 caches the 8-bit query profile keyed by (matrix, query
	// contents, gap penalties): the modeled 8-bit pair path rebuilds it
	// per call otherwise, and repeated queries — the server's common
	// case — make rebuilding pure waste. profQuery is a private copy,
	// since callers reuse their encode buffers.
	prof8       *submat.Profile8
	profMat     *submat.Matrix
	profQuery   []uint8
	profGaps    aln.Gaps
	profileHits int64
	// sp8/sp16 are the striped kernel family's per-element-width state:
	// the cached striped query profile plus the H/E column rows. Both
	// register widths of one element width share a state, exactly like
	// pair8/pair16 above.
	sp8  stripedState[int8]
	sp16 stripedState[int16]
	// laneSeq is the per-lane sequence extraction buffer of the native
	// batch stage and the modeled striped batch path (one lane's
	// residues gathered out of the transposed batch).
	laneSeq []uint8
}

// TakeProfileCacheHits returns the number of query-profile cache hits
// since the last call and resets the counter. Workers fold it into
// their metrics at exit.
func (s *Scratch) TakeProfileCacheHits() int64 {
	n := s.profileHits
	s.profileHits = 0
	return n
}

// LazyFWorstColumn returns the most lazy-F iterations any one column
// ran in the last 16-bit KernelStriped pair call on this scratch: the
// worst case of the data-dependent correction work (§IV-H).
func (s *Scratch) LazyFWorstColumn() int { return s.sp16.lazyFWorst }

// NewScratch returns an empty scratch whose buffers grow on first use
// and are retained across calls.
func NewScratch() *Scratch { return &Scratch{} }

// codes reinterprets the batch's residue codes (0..31) as int8 lanes,
// reusing the scratch buffer. A nil scratch allocates.
func (s *Scratch) codes(t []uint8) []int8 {
	if s == nil {
		return codesAsInt8(t)
	}
	if cap(s.t8) < len(t) {
		s.t8 = make([]int8, len(t))
	}
	s.t8 = s.t8[:len(t)]
	for i, c := range t {
		s.t8[i] = int8(c)
	}
	return s.t8
}

// growE returns *p resized to n entries without initializing them,
// reusing capacity.
func growE[E any](p *[]E, n int) []E {
	b := *p
	if cap(b) < n {
		//swlint:ignore hotpathalloc grow-once scratch arena, warm calls reuse capacity
		b = make([]E, n)
	} else {
		b = b[:n]
	}
	*p = b
	return b
}

// carryBufsE returns three per-query-row carry buffers of m rows with
// the given lane stride, with the H carries zeroed; the caller
// initializes the E carries to its -inf value. The carries model
// register spills at block boundaries, so their traffic is uncharged.
func carryBufsE[E any](pe, pl, pd *[]E, m, stride int) (e, left, diag []E) {
	need := m * stride
	e = growE(pe, need)
	left = growE(pl, need)
	diag = growE(pd, need)
	var zero E
	for i := 0; i < need; i++ {
		left[i] = zero
		diag[i] = zero
	}
	return e, left, diag
}

// rowBufsE returns the H/F column-state rows for a batch of MaxLen n
// with the given lane stride, zero-initialized (H) and filled with
// negInf (F, affine only).
func rowBufsE[E any](ph, pf *[]E, n, stride int, affine bool, negInf E) (h, f []E) {
	need := n * stride
	h = growE(ph, need)
	f = growE(pf, need)
	var zero E
	for i := range h {
		h[i] = zero
	}
	if affine {
		for i := range f {
			f[i] = negInf
		}
	}
	return h, f
}

// codesAsInt8 reinterprets residue codes (0..31) as int8 lanes.
func codesAsInt8(codes []uint8) []int8 {
	out := make([]int8, len(codes))
	for i, c := range codes {
		out[i] = int8(c)
	}
	return out
}

// buf32 returns *p resized to n entries, every entry set to fill.
func buf32(p *[]int32, n int, fill int32) []int32 {
	b := *p
	if cap(b) < n {
		//swlint:ignore hotpathalloc grow-once index buffer, warm calls reuse capacity
		b = make([]int32, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = fill
	}
	*p = b
	return b
}
