package core

import (
	"bytes"

	"swvec/internal/aln"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// This file is the generic modeled implementation of the striped
// kernel family (Farrar 2007): the query is split into Lanes()
// segments of segLen positions, lane l of vector t holding position
// t + l*segLen, so the inner loop has no lane-crossing dependency and
// the column-to-column H dependency is a single lane rotate. The
// speculative column pass assumes F contributes nothing across stripe
// boundaries; the correction step then repairs the columns where that
// was wrong, either with the classic data-dependent lazy-F loop
// (KernelStriped) or with Snytsar's deconstruction (KernelLazyF): a
// log2(lanes)-step weighted prefix-max scan computes every lane's
// incoming F carry at once, followed by at most one merge sweep.
//
// Both correction variants write bit-identical H rows: the classic
// loop applies, for lane l at stripe t, the corrections
// vFexit(l-1-k) - k*segLen*ext - t*ext over iterations k, and the scan
// computes max_k(vFexit(l-1-k) - k*segLen*ext) in closed form before
// the same per-stripe ext decay. Both variants refresh the stored E
// row from every corrected H (max with the new H-open), so the next
// column's inputs agree with the exact recurrence cell for cell, and
// saturating clamps keep every over-decayed carry at or below zero,
// where max(H, carry) is inert (H >= 0 throughout). That is what
// FuzzKernelsVsDiagonal and TestStripedPairMatchesDiagonal lean on.
//
// The family serves the affine gap model only: with linear gaps
// (Open == Extend) the classic loop's exit test goes non-strict and
// the carry can outlive it, so the entry points route linear-gap calls
// to the diagonal kernel's dedicated linear variant instead.
//
// The family is score-only: no traceback, no end positions (EndQ/EndD
// are -1, like the batch engines). Entry points route around it when a
// caller asks for positions.

// stripedState is the striped family's per-element-width scratch: the
// cached striped query profile and the H/E column rows, shared by both
// register widths of one element width.
type stripedState[E vek.Elem] struct {
	// prof is the flat striped profile: prof[(c*segLen+t)*lanes + l]
	// is the score of query position t + l*segLen against residue code
	// c, SentinelScore for padding positions past the query end.
	prof      []E
	profMat   *submat.Matrix
	profQuery []uint8
	profGaps  aln.Gaps
	profLanes int
	segLen    int
	// hStore/hLoad/eRow are the column state, flattened stripe-major
	// with the engine's lane stride (segLen*lanes entries).
	hStore, hLoad, eRow []E
	// lazyFWorst is the most lazy-F iterations any one column of the
	// last KernelStriped call ran (0 after a KernelLazyF call).
	lazyFWorst int
}

// stripedState8 returns the scratch's 8-bit striped state, or a
// per-call one for a nil scratch.
func stripedState8(s *Scratch) *stripedState[int8] {
	if s == nil {
		return &stripedState[int8]{}
	}
	return &s.sp8
}

// stripedState16 is stripedState8 for the 16-bit family.
func stripedState16(s *Scratch) *stripedState[int16] {
	if s == nil {
		return &stripedState[int16]{}
	}
	return &s.sp16
}

// stripedProfileFor returns the striped query profile for
// (mat, q, gaps, lanes), serving it from st's cache when the previous
// call matches. The same key discipline as profile8For: the query is
// compared by value and cached privately, and the gap penalties are
// part of the key so a stale profile can never outlive a gap change.
// Both backends share this builder, so switching backends keeps the
// cache warm.
func stripedProfileFor[E vek.Elem](st *stripedState[E], s *Scratch, mat *submat.Matrix, q []uint8, g aln.Gaps, lanes int) (prof []E, segLen int) {
	if st.prof != nil && st.profMat == mat && st.profLanes == lanes && st.profGaps == g && bytes.Equal(st.profQuery, q) {
		if s != nil {
			s.profileHits++
		}
		return st.prof, st.segLen
	}
	m := len(q)
	segLen = (m + lanes - 1) / lanes
	need := submat.W * segLen * lanes
	if cap(st.prof) < need {
		//swlint:ignore hotpathalloc cache-miss path: repeated queries (the server steady state) hit the cache above
		st.prof = make([]E, need)
	}
	st.prof = st.prof[:need]
	for c := 0; c < submat.W; c++ {
		for t := 0; t < segLen; t++ {
			base := (c*segLen + t) * lanes
			for l := 0; l < lanes; l++ {
				pos := t + l*segLen
				if pos < m {
					st.prof[base+l] = E(mat.Score(q[pos], uint8(c)))
				} else {
					st.prof[base+l] = E(submat.SentinelScore)
				}
			}
		}
	}
	st.profMat = mat
	st.profGaps = g
	st.profLanes = lanes
	st.segLen = segLen
	//swlint:ignore hotpathalloc cache-miss path: repeated queries (the server steady state) hit the cache above
	st.profQuery = append(st.profQuery[:0], q...)
	return st.prof, segLen
}

// alignStriped runs the modeled striped kernel over one engine
// instantiation, returning the score, end positions (-1: score-only),
// and the saturation flag. opt.Kernel picks the correction variant.
//
//sw:hotpath
func alignStriped[V any, E vek.Elem, En vek.Engine[V, E]](eng En, mch vek.Machine, q, dseq []uint8, mat *submat.Matrix, opt *PairOptions, st *stripedState[E]) aln.ScoreResult {
	lanes := eng.Lanes()
	prof, segLen := stripedProfileFor(st, opt.Scratch, mat, q, opt.Gaps, lanes)
	rows := segLen * lanes
	neg := eng.NegInf()
	hStore := bufE(&st.hStore, rows, 0)
	hLoad := bufE(&st.hLoad, rows, 0)
	eRow := bufE(&st.eRow, rows, neg)
	// One-time profile/sequence preparation, charged as scalar work —
	// the same discipline as initPairState.
	mch.T.Add(vek.OpScalarStore, eng.Width(), uint64(len(q)+len(dseq)))

	openV := eng.Splat(mch, eng.Clamp(opt.Gaps.Open))
	extV := eng.Splat(mch, eng.Clamp(opt.Gaps.Extend))
	zeroV := eng.Zero(mch)
	negV := eng.Splat(mch, neg)
	vMax := eng.Zero(mch)
	decon := opt.Kernel == KernelLazyF
	st.lazyFWorst = 0

	for j := 0; j < len(dseq); j++ {
		profRow := prof[int(dseq[j])*rows : (int(dseq[j])+1)*rows]
		// The previous column's last stripe, rotated one lane up: lane
		// l's stripe 0 depends on lane l-1's last position.
		vH := eng.ShiftIn(mch, eng.Load(mch, hStore[(segLen-1)*lanes:]), 1, 0)
		hStore, hLoad = hLoad, hStore
		vF := negV
		for t := 0; t < segLen; t++ {
			off := t * lanes
			vH = eng.AddSat(mch, vH, eng.Load(mch, profRow[off:]))
			vE := eng.Load(mch, eRow[off:])
			vH = eng.Max(mch, vH, vE)
			vH = eng.Max(mch, vH, vF)
			vH = eng.Max(mch, vH, zeroV)
			vMax = eng.Max(mch, vMax, vH)
			eng.Store(mch, hStore[off:], vH)
			vHGap := eng.SubSat(mch, vH, openV)
			vE = eng.Max(mch, eng.SubSat(mch, vE, extV), vHGap)
			eng.Store(mch, eRow[off:], vE)
			vF = eng.Max(mch, eng.SubSat(mch, vF, extV), vHGap)
			vH = eng.Load(mch, hLoad[off:])
		}
		if decon {
			vMax = stripedScanCorrect(eng, mch, hStore, eRow, segLen, lanes, vF, vMax, openV, extV, zeroV, opt.Gaps)
		} else {
			var iters int
			vMax, iters = stripedLazyCorrect(eng, mch, hStore, eRow, segLen, lanes, vF, vMax, openV, extV)
			if iters > st.lazyFWorst {
				st.lazyFWorst = iters
			}
		}
	}
	best := int32(eng.ReduceMax(mch, vMax))
	res := aln.ScoreResult{Score: best, EndQ: -1, EndD: -1}
	if best >= eng.SatCeil() {
		res.Saturated = true
	}
	// Keep the swapped row ownership in the state so the buffers are
	// reused, whichever slice header ended up in which role.
	st.hStore, st.hLoad, st.eRow = hStore, hLoad, eRow
	return res
}

// stripedLazyCorrect is the classic Farrar lazy-F loop: re-sweep the
// column with F carried across stripe boundaries until no lane's F can
// still raise an H-open gap anywhere — usually zero or one iteration.
// Raised H cells also refresh the stored E row (max with the new
// H-open), keeping the next column's E inputs exact even when a
// deletion-adjacent insertion is optimal (tiny gap-open penalties);
// unraised cells make that a no-op because the speculative pass
// already stored E >= H-open. It also returns its inner iteration
// count, one movemask each: the data-dependent work of §IV-H.
//
//sw:hotpath
func stripedLazyCorrect[V any, E vek.Elem, En vek.Engine[V, E]](eng En, mch vek.Machine, hStore, eRow []E, segLen, lanes int, vF, vMax, openV, extV V) (V, int) {
	neg := eng.NegInf()
	for k := 0; k < lanes; k++ {
		vF = eng.ShiftIn(mch, vF, 1, neg)
		for t := 0; t < segLen; t++ {
			off := t * lanes
			vH := eng.Load(mch, hStore[off:])
			vH = eng.Max(mch, vH, vF)
			eng.Store(mch, hStore[off:], vH)
			vMax = eng.Max(mch, vMax, vH)
			vHGap := eng.SubSat(mch, vH, openV)
			vE := eng.Max(mch, eng.Load(mch, eRow[off:]), vHGap)
			eng.Store(mch, eRow[off:], vE)
			vF = eng.SubSat(mch, vF, extV)
			if eng.MoveMask(mch, eng.CmpGt(mch, vF, vHGap)) == 0 {
				return vMax, k*segLen + t + 1
			}
		}
	}
	return vMax, lanes * segLen
}

// stripedScanCorrect is Snytsar's deconstructed lazy-F: the incoming F
// carry of every lane's stripe 0 is the weighted prefix-max
// c(l) = max_k(vFexit(l-1-k) - k*segLen*ext), computed in log2(lanes)
// shift-subtract-max steps; if any carry can still beat zero, one
// merge sweep folds it into the stored column with the usual per-
// stripe ext decay. Over-decayed carries saturate at or below zero and
// are inert (H >= 0), so the single sweep is exact — see the file
// comment.
//
//sw:hotpath
func stripedScanCorrect[V any, E vek.Elem, En vek.Engine[V, E]](eng En, mch vek.Machine, hStore, eRow []E, segLen, lanes int, vF, vMax, openV, extV, zeroV V, g aln.Gaps) V {
	neg := eng.NegInf()
	c := eng.ShiftIn(mch, vF, 1, neg)
	d := int32(segLen) * g.Extend
	for s := 1; s < lanes; s <<= 1 {
		decV := eng.Splat(mch, eng.Clamp(int32(s)*d))
		shifted := eng.ShiftIn(mch, c, s, neg)
		c = eng.Max(mch, c, eng.SubSat(mch, shifted, decV))
	}
	if eng.MoveMask(mch, eng.CmpGt(mch, c, zeroV)) == 0 {
		return vMax
	}
	for t := 0; t < segLen; t++ {
		off := t * lanes
		vH := eng.Load(mch, hStore[off:])
		vH = eng.Max(mch, vH, c)
		eng.Store(mch, hStore[off:], vH)
		vMax = eng.Max(mch, vMax, vH)
		// Same E refresh as the classic loop: raised cells feed the next
		// column's E through the corrected H.
		vHGap := eng.SubSat(mch, vH, openV)
		vE := eng.Max(mch, eng.Load(mch, eRow[off:]), vHGap)
		eng.Store(mch, eRow[off:], vE)
		c = eng.SubSat(mch, c, extV)
	}
	return vMax
}
