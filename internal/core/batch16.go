package core

import (
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// AlignBatch16 is the 16-bit interleaved batch engine: the same
// one-sequence-per-lane structure as AlignBatch8 at 16-bit precision
// (two widened registers per batch column), for callers that rescore
// a whole batch of sequences at 16 bits (the SWIPE-style pattern); the
// search pipeline rescues its few saturated lanes one pair at a time
// with AlignPair16 instead. A 32-lane batch runs on the 256-bit engine,
// a 64-lane batch on the 512-bit one.
//
// Substitution scores come from the same shuffle tables as the 8-bit
// engine, widened per column; scores saturate at 32767 (flagged for
// the 32-bit pair kernel). On the native backend it runs the same
// exact lane loop as AlignBatch8.
func AlignBatch16(mch vek.Machine, query []uint8, tables *submat.CodeTables, batch *seqio.Batch, opt BatchOptions) (BatchResult, error) {
	if useNativeBatch(tables, &opt) {
		var out [1]BatchResult
		if err := checkBatch([][]uint8{query}, batch, &opt); err != nil {
			return out[0], err
		}
		nativeBatch([][]uint8{query}, tables.Matrix(), batch, opt.Gaps, batchScratchOrLocal(&opt), out[:])
		return out[0], nil
	}
	if stripedBatchOK(tables, &opt) {
		var res BatchResult
		if err := checkBatch([][]uint8{query}, batch, &opt); err != nil {
			return res, err
		}
		err := stripedBatch(mch, query, tables, batch, &opt, 16, &res)
		return res, err
	}
	if batch.Stride() == seqio.MaxBatchLanes {
		return alignBatch[vek.I16x32, int16](be16x32{}, mch, query, tables, batch, opt)
	}
	return alignBatch[vek.I16x16, int16](be16x16{}, mch, query, tables, batch, opt)
}
