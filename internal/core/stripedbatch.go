package core

import (
	"swvec/internal/aln"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// Batch entry for the striped family. The interleaved batch engines
// vectorize ACROSS sequences, so the striped layout — which vectorizes
// WITHIN one query x sequence pair — replaces the whole traversal:
// each lane's sequence is extracted from the transposed batch and run
// through the striped pair kernel, reusing the scratch's striped
// profile cache (one query profile serves every lane, which is where
// the cache pays off most). Scores and saturation flags land in the
// same BatchResult slots, so the scheduler's rescue ladder works
// unchanged.

// stripedBatchOK reports whether the striped family can serve this
// batch call: an explicit striped kernel, the affine gap model (the
// family routes linear gaps to the diagonal engines, see stripedg.go),
// no diagonal-only ablation, and a full substitution matrix to build
// the striped profile from.
func stripedBatchOK(tables *submat.CodeTables, opt *BatchOptions) bool {
	return opt.Kernel.Striped() && !opt.Gaps.IsLinear() && !opt.EagerMax && tables.Matrix() != nil
}

// stripedBatch runs the striped family over every lane of the batch at
// the given element width: 8 bits for the search stage, 16 for the
// rescue tier.
//
//sw:hotpath
func stripedBatch(mch vek.Machine, query []uint8, tables *submat.CodeTables, batch *seqio.Batch, opt *BatchOptions, bits int, res *BatchResult) error {
	mat := tables.Matrix()
	s := batchScratchOrLocal(opt)
	popt := PairOptions{Gaps: opt.Gaps, Scratch: s, Backend: opt.Backend, Kernel: opt.Kernel}
	stride := batch.Stride()
	wide := stride == seqio.MaxBatchLanes
	seq := growE(&s.laneSeq, batch.MaxLen)
	for lane := 0; lane < batch.Count; lane++ {
		n := batch.Lens[lane]
		if n == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			seq[j] = batch.T[j*stride+lane]
		}
		var r aln.ScoreResult
		var err error
		switch {
		case bits == 8 && wide:
			r, err = AlignPair8W(mch, query, seq[:n], mat, popt)
		case bits == 8:
			r, err = AlignPair8(mch, query, seq[:n], mat, popt)
		case wide:
			r, err = AlignPair16W(mch, query, seq[:n], mat, popt)
		default:
			r, _, err = AlignPair16(mch, query, seq[:n], mat, popt)
		}
		if err != nil {
			return err
		}
		res.Scores[lane] = r.Score
		res.Saturated[lane] = r.Saturated
	}
	return nil
}

// Engine lane sanity: the wide dispatch above assumes the 512-bit
// batch stride equals the 8x64 engine's lane count.
var _ = func() struct{} {
	if (vek.E8x64{}).Lanes() != seqio.MaxBatchLanes {
		panic("core: 512-bit batch stride diverged from the 8x64 engine")
	}
	return struct{}{}
}()
