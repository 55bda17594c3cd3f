package core

import (
	"swvec/internal/aln"
	"swvec/internal/native"
	"swvec/internal/seqio"
	"swvec/internal/submat"
)

// This file is the glue between the core entry points and the native
// backend's one kernel, native.Pair32: scratch-row plumbing and the
// batch lane loop. Every score-only entry point routes here when
// opt.Backend == BackendNative, whatever its nominal element width or
// kernel family: Pair32 is exact and never saturates, so a native
// result never asks for a rescue. The modeled-only knobs (traceback,
// position tracking, eager reduction, row-major layout) keep those
// calls on the modeled kernels; validation stays shared.

// useNativeBatch reports whether a batch call should run on the
// native lane loop: native backend requested, no modeled-only
// ablation, and tables built by NewCodeTables (a zero-value CodeTables
// has no matrix to score from).
func useNativeBatch(tables *submat.CodeTables, opt *BatchOptions) bool {
	return opt.Backend == BackendNative && !opt.EagerMax && tables.Matrix() != nil
}

// nativePairOK reports whether a score-only pair call runs on
// native.Pair32; the modeled-only knobs keep it on the modeled kernels.
func nativePairOK(opt *PairOptions) bool {
	return opt.Backend == BackendNative && !opt.Traceback && !opt.TrackPosition && !opt.EagerMax && !opt.RowMajorLayout
}

// batchScratchOrLocal resolves the caller's scratch, preserving the
// allocate-per-call contract of a nil Scratch.
func batchScratchOrLocal(opt *BatchOptions) *Scratch {
	if opt.Scratch != nil {
		return opt.Scratch
	}
	return &Scratch{}
}

// nativeBatch is the native batch stage: it copies each lane's
// residues out of the transposed batch into a scratch row once, then
// scores that row against every query with native.Pair32 and the
// caller's gaps. out[qi] receives query qi's lane scores; padding
// lanes and the saturation flags keep the zero the caller gave them.
//
//sw:hotpath
func nativeBatch(queries [][]uint8, mat *submat.Matrix, batch *seqio.Batch, gaps aln.Gaps, s *Scratch, out []BatchResult) {
	seq := growE(&s.laneSeq, batch.MaxLen)
	h, f := pairRows32(s, batch.MaxLen)
	stride := batch.Stride()
	out = out[:len(queries)]
	for lane, n := range batch.Lens[:batch.Count] {
		row := seq[:n]
		for j := range row {
			row[j] = batch.T[j*stride+lane]
		}
		for qi, q := range queries {
			out[qi].Scores[lane] = native.Pair32(q, row, mat, gaps.Open, gaps.Extend, h, f)
		}
	}
}

// pairRows32 returns the 32-bit pair kernel's H/F rows (uninitialized;
// the kernel fills them).
func pairRows32(s *Scratch, n int) (h, f []int32) {
	if s == nil {
		//swlint:ignore hotpathalloc nil scratch keeps the allocate-per-call contract; the pipeline always passes one
		return make([]int32, n), make([]int32, n)
	}
	return growE(&s.nph32, n), growE(&s.npf32, n)
}

// nativePair32 runs one score-only pair on native.Pair32 with the
// caller's gaps.
//
//sw:hotpath
func nativePair32(q, dseq []uint8, mat *submat.Matrix, opt *PairOptions) aln.ScoreResult {
	h, f := pairRows32(opt.Scratch, len(dseq))
	score := native.Pair32(q, dseq, mat, opt.Gaps.Open, opt.Gaps.Extend, h, f)
	return aln.ScoreResult{Score: score, EndQ: -1, EndD: -1}
}
