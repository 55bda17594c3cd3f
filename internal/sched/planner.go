// The per-query kernel planner: given a query's shape and the search
// configuration, pick the kernel family every alignment stage of that
// search will run. The policy is deliberately small and fully
// table-tested (TestPlannerDecisions):
//
//	explicit Options.Kernel        -> that kernel, always
//	instrumented or modeled runs   -> diagonal (the figure apparatus:
//	                                  port-occupancy tallies are
//	                                  calibrated on the diagonal layout)
//	linear gap model               -> diagonal (the striped family is
//	                                  affine-only, see core/stripedg.go)
//	short queries                  -> diagonal (per-column overhead of
//	                                  the striped rotate + correction
//	                                  amortizes over long queries; the
//	                                  interleaved batch engine already
//	                                  saturates lanes on short ones)
//	well-packed batches            -> diagonal (the interleaved engine
//	                                  wastes almost no lanes, and its
//	                                  cross-sequence vectorization beats
//	                                  one striped pair per lane)
//	long queries, padded batches   -> striped family: the per-lane pair
//	                                  kernels skip the padding the
//	                                  interleaved engine burns on
//	                                  ragged-length batches
//	  ... costly gap opens         -> striped (classic lazy-F: the
//	                                  correction loop exits immediately
//	                                  when F rarely crosses stripes)
//	  ... cheap gap opens          -> lazyf (the deconstructed scan's
//	                                  fixed log2(lanes) steps beat the
//	                                  data-dependent loop when
//	                                  corrections do fire)
//
// "Costly gap opens" is stripedFewCorrections: when a single gap open
// costs more than the best substitution score, F values start below
// every reachable H and corrections are rare, so the classic loop's
// early exit almost always triggers on the first stripe.
package sched

import (
	"sort"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/seqio"
	"swvec/internal/submat"
)

// plannerStripedMinQuery is the query length where the striped family
// starts beating the diagonal batch engines end to end on the native
// backend (segments long enough to amortize the per-column rotate and
// correction; measured with `make bench-kernels`, see EXPERIMENTS.md).
const plannerStripedMinQuery = 384

// plannerStripedMinPad is the batch padding ratio (interleaved-engine
// cells over real cells) above which the striped family wins: the
// per-lane pair kernels do only the real work, while the interleaved
// engine runs every lane to the batch's longest sequence. Measured
// with `make bench-kernels`: a well-sorted large database packs to
// ~1.1-1.3 and the diagonal engine wins; a small or unsorted database
// pads at 3x+ and the striped family wins by the padding factor.
const plannerStripedMinPad = 2.0

// batchPadRatio is the interleaved batch engines' total-to-real cell
// ratio for this database. It follows the producer's grouping —
// consecutive runs of `lanes` sequences, in length-sorted order when
// the search sorts — so it is exact before any batch is built. Every
// lane of a batch runs to the batch's longest sequence, so the
// engine's work is lanes x maxLen per batch.
func batchPadRatio(db []seqio.Sequence, lanes int, sorted bool) float64 {
	if len(db) == 0 || lanes <= 0 {
		return 1
	}
	lens := make([]int, len(db))
	for i := range db {
		lens[i] = len(db[i].Residues)
	}
	if sorted {
		sort.Ints(lens)
	}
	var real, engine int64
	for i := 0; i < len(lens); i += lanes {
		end := i + lanes
		if end > len(lens) {
			end = len(lens)
		}
		maxLen := 0
		for _, n := range lens[i:end] {
			real += int64(n)
			if n > maxLen {
				maxLen = n
			}
		}
		engine += int64(lanes) * int64(maxLen)
	}
	if real == 0 {
		return 1
	}
	return float64(engine) / float64(real)
}

// stripedFewCorrections predicts whether the lazy-F correction loop
// will almost always exit immediately: when opening a gap costs more
// than the largest substitution score, a freshly opened F can never
// exceed the H of a matched cell in the next stripe, so cross-stripe
// corrections only fire on long gap runs.
func stripedFewCorrections(mat *submat.Matrix, g aln.Gaps) bool {
	return g.Open > int32(mat.Max())
}

// kernel resolves the kernel family for a search over the given query,
// applying the planner policy above. be must be the resolved backend
// (Options.backend()); padRatio is the batchPadRatio of the database
// the search will stream.
func (o *Options) kernel(queryLen int, mat *submat.Matrix, be core.Backend, padRatio float64) core.Kernel {
	if o.Kernel != core.KernelAuto {
		return o.Kernel
	}
	if o.Instrument || be == core.BackendModeled {
		// Figure guard: instrumented and modeled runs stay on the
		// diagonal apparatus the performance model is calibrated for.
		return core.KernelDiagonal
	}
	if o.Gaps.IsLinear() || queryLen < plannerStripedMinQuery {
		return core.KernelDiagonal
	}
	if padRatio < plannerStripedMinPad {
		// Well-packed batches: the interleaved engine's cross-sequence
		// vectorization does almost no wasted work, and it beats one
		// striped pair per lane.
		return core.KernelDiagonal
	}
	if stripedFewCorrections(mat, o.Gaps) {
		return core.KernelStriped
	}
	return core.KernelLazyF
}
