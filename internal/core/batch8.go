package core

import (
	"fmt"

	"swvec/internal/aln"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// lanes8 is the lane count of the 256-bit 8-bit batch engine.
const lanes8 = seqio.BatchLanes

// negInf8 is the E boundary value for the 8-bit engine. E and F never
// fall below -Open in a valid run, so the int8 floor is a safe -inf.
const negInf8 = int8(-128)

// BatchOptions configures the interleaved batch engines.
type BatchOptions struct {
	// Gaps is the gap model; Open == Extend selects the reduced
	// linear-gap path.
	Gaps aln.Gaps
	// BlockCols processes the batch in column blocks of this many
	// residues so the score scratch stays cache-resident — the block
	// size the paper hand-tunes and wants an autotuner for (§IV-I).
	// Zero processes whole rows.
	BlockCols int
	// EagerMax is the §III-D ablation: reduce the running maximum
	// horizontally after every column instead of keeping deferred
	// per-lane maxima. On this ALU-bound engine the reduction cost is
	// not hidden, which is exactly the paper's argument for deferring.
	EagerMax bool
	// Scratch supplies reusable working buffers owned by the calling
	// worker; nil allocates per call. See Scratch.
	Scratch *Scratch
	// Backend selects the execution backend, as in
	// PairOptions.Backend: BackendNative scores each lane on its own
	// with native.Pair32, exact and never saturated, whatever the entry
	// point's width. EagerMax forces the modeled backend.
	Backend Backend
	// Kernel selects the modeled kernel family, as in
	// PairOptions.Kernel. The striped family aligns each lane's
	// sequence with the striped pair kernel instead of the interleaved
	// anti-diagonal batch engine; EagerMax (a diagonal-engine ablation)
	// forces the diagonal family. The native backend ignores it.
	Kernel Kernel
}

// BatchResult carries per-lane outcomes of one batch alignment. Only
// the first Batch.Stride() lanes are meaningful.
type BatchResult struct {
	// Scores holds each lane's best local alignment score. Lanes
	// beyond Batch.Count are zero.
	Scores [seqio.MaxBatchLanes]int32
	// Saturated marks lanes whose score hit the engine's ceiling; the
	// score is then a lower bound and the caller reruns the lane at
	// the next wider bit width (the variable 8/16-bit width scheme).
	// Only the modeled engines saturate; on native it stays false.
	Saturated [seqio.MaxBatchLanes]bool
}

// AlignBatch8 aligns the encoded query against all sequences of the
// transposed batch simultaneously: lane l computes the DP matrix of
// sequence l (the interleaving of Fig. 1(b)), while substitution
// scores come from the shared shuffle-scored scratch buffer. This is
// the paper's high-throughput 8-bit path: roughly half a vector
// instruction per DP cell, no gathers, and per-lane deferred maxima.
// A 32-lane batch runs on the 256-bit engine, a 64-lane batch on the
// 512-bit one. On the native backend the batch runs the native lane
// loop instead: each lane exactly, with no ceiling.
func AlignBatch8(mch vek.Machine, query []uint8, tables *submat.CodeTables, batch *seqio.Batch, opt BatchOptions) (BatchResult, error) {
	var res BatchResult
	if err := checkBatch([][]uint8{query}, batch, &opt); err != nil {
		return res, err
	}
	if opt.Gaps.Open > 127 {
		return res, fmt.Errorf("core: gap open %d exceeds the 8-bit range", opt.Gaps.Open)
	}
	if useNativeBatch(tables, &opt) {
		var out [1]BatchResult
		nativeBatch([][]uint8{query}, tables.Matrix(), batch, opt.Gaps, batchScratchOrLocal(&opt), out[:])
		return out[0], nil
	}
	if stripedBatchOK(tables, &opt) {
		err := stripedBatch(mch, query, tables, batch, &opt, 8, &res)
		return res, err
	}
	if batch.Stride() == seqio.MaxBatchLanes {
		return alignBatch[vek.I8x64, int8](be8x64{}, mch, query, tables, batch, opt)
	}
	return alignBatch[vek.I8x32, int8](be8x32{}, mch, query, tables, batch, opt)
}

// AlignBatch8Multi aligns several queries against the same batch,
// amortizing the per-batch work across them: the transposed residue
// matrix is converted once, the column-state buffers are recycled, and
// — the scenario-2 lever of §IV-G — the per-code score scratch is
// shared, since it depends only on the batch and the residue code, not
// on the query. With the whole-row traversal (BlockCols == 0) a code's
// scores are computed once for the entire query set. On the native
// backend each lane is copied out of the batch once and scored against
// every query with native.Pair32.
func AlignBatch8Multi(mch vek.Machine, queries [][]uint8, tables *submat.CodeTables, batch *seqio.Batch, opt BatchOptions) ([]BatchResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("core: no queries")
	}
	if err := checkBatch(queries, batch, &opt); err != nil {
		return nil, err
	}
	if opt.Gaps.Open > 127 {
		return nil, fmt.Errorf("core: gap open %d exceeds the 8-bit range", opt.Gaps.Open)
	}
	if useNativeBatch(tables, &opt) {
		out := make([]BatchResult, len(queries))
		nativeBatch(queries, tables.Matrix(), batch, opt.Gaps, batchScratchOrLocal(&opt), out)
		return out, nil
	}
	if stripedBatchOK(tables, &opt) {
		// The striped profile cache is keyed by query, so the multi-query
		// amortization here is the profile, not the score scratch.
		out := make([]BatchResult, len(queries))
		for qi := range queries {
			if err := stripedBatch(mch, queries[qi], tables, batch, &opt, 8, &out[qi]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if batch.Stride() == seqio.MaxBatchLanes {
		return alignBatchMulti[vek.I8x64, int8](be8x64{}, mch, queries, tables, batch, opt)
	}
	return alignBatchMulti[vek.I8x32, int8](be8x32{}, mch, queries, tables, batch, opt)
}

// alignBatchMulti runs the shared-batch multi-query traversal on one
// engine instantiation.
func alignBatchMulti[V any, E vek.Elem, En batchEngine[V, E]](eng En, mch vek.Machine, queries [][]uint8, tables *submat.CodeTables, batch *seqio.Batch, opt BatchOptions) ([]BatchResult, error) {
	s := opt.Scratch
	if s == nil {
		s = &Scratch{}
	}
	t8 := s.codes(batch.T)
	out := make([]BatchResult, len(queries))
	n := batch.MaxLen
	if opt.BlockCols > 0 && opt.BlockCols < n {
		// Blocked traversal invalidates the score scratch per block, so
		// only the t8 conversion and the state buffers are shared.
		for qi, q := range queries {
			s.score.prepare(opt.BlockCols, q)
			runBatch(eng, mch, q, tables, batch, t8, &opt, s, &out[qi])
		}
		return out, nil
	}
	s.score.prepare(n, queries...)
	for qi, q := range queries {
		runBatch(eng, mch, q, tables, batch, t8, &opt, s, &out[qi])
	}
	return out, nil
}
