package sched

import (
	"context"
	"fmt"
	"sync"
	"time"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/metrics"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// MultiResult is the outcome of a batched multi-query search
// (Scenario 2).
type MultiResult struct {
	// Scores[qi][si] is the score of query qi against sequence si.
	Scores [][]int32
	// Cells counts real DP cells across all query/sequence pairs,
	// including the 16-bit rescue and 32-bit escalation passes.
	Cells   int64
	Elapsed time.Duration
	Rescued int
	// Stats is the per-stage counter snapshot for this search, taken
	// after the worker pool has drained.
	Stats metrics.Snapshot
	Tally *vek.Tally
	// Quarantined lists database sequences a stage failed on after
	// retries, sorted by SeqIndex; their Scores entries are zero (whole
	// batch failed), the capped 8-bit score (the 16-bit rescue failed)
	// or the capped 16-bit score (the 32-bit tier failed). A sequence
	// may appear once per failed stage attempt.
	Quarantined []Quarantine
}

// GCUPS returns the measured throughput.
func (r *MultiResult) GCUPS() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Cells) / s / 1e9
}

// MultiSearch aligns every query against every database sequence
// (Scenario 2: the centralized server accumulating queries before
// computing). It runs Search's one streaming dataflow over the whole
// query set: the work unit is a batch, and a worker aligns it for every
// query in one call, so the batch's transposed layout and score
// scratch are reused across queries — the data-reuse advantage the
// paper credits for the scenario's efficiency. A saturated (query,
// sequence) pair is rescued on the worker that found it with the same
// 16/32-bit ladder, so both scenarios return the same scores. Each
// (query, sequence) cell of the score matrix belongs to exactly one
// batch, so workers write scores without a lock.
func MultiSearch(queries [][]uint8, db []seqio.Sequence, mat *submat.Matrix, opt Options) (*MultiResult, error) {
	return MultiSearchContext(context.Background(), queries, db, mat, opt)
}

// MultiSearchContext is MultiSearch with cancellation: when ctx is
// canceled or its deadline passes, the batch producer stops, in-flight
// batches drain without aligning, and the call returns the partial
// MultiResult (unprocessed scores are zero) together with an error
// wrapping ctx.Err(). The centralized server uses it to bound
// per-batch compute with a request deadline.
func MultiSearchContext(ctx context.Context, queries [][]uint8, db []seqio.Sequence, mat *submat.Matrix, opt Options) (*MultiResult, error) {
	p, err := search(ctx, queries, db, mat, opt)
	if p == nil {
		return nil, err
	}
	return p.res, err
}

// alignPairJob runs one subroutine pair with panic recovery so a
// kernel fault poisons only that pair, not the worker. A score-only
// pair on the native backend runs native.Pair32; on modeled it runs
// the adaptive ladder with the resolved kernel family. Traceback
// passes run the modeled diagonal kernel on either backend, since the
// pair kernels only honor striped on score-only calls.
func alignPairJob(mch vek.Machine, q, d []uint8, mat *submat.Matrix, qi, si int, traceback bool, opt *Options, scratch *core.Scratch) (hit PairHit, err error) {
	defer recoverAttempt("subroutine", nil, &err)
	be := opt.backend()
	r, tb, aerr := core.AlignPairAdaptive(mch, q, d, mat,
		core.PairOptions{Gaps: opt.Gaps, Traceback: traceback, Scratch: scratch, Backend: be, Kernel: opt.kernel(be)})
	if aerr != nil {
		return hit, aerr
	}
	hit = PairHit{Query: qi, Seq: si, Score: r.Score}
	if tb != nil {
		a, werr := tb.Walk(r.EndQ, r.EndD, r.Score)
		if werr != nil {
			return hit, werr
		}
		hit.Alignment = a
	}
	return hit, nil
}

// PairHit is one (query, database) alignment of the subroutine
// scenario.
type PairHit struct {
	Query, Seq int
	Score      int32
	// Alignment is present when Options requested traceback.
	Alignment *aln.Alignment
}

// SubroutineResult is the outcome of a small-set search (Scenario 3).
type SubroutineResult struct {
	Hits    []PairHit
	Cells   int64
	Elapsed time.Duration
	Tally   *vek.Tally
}

// GCUPS returns the measured throughput.
func (r *SubroutineResult) GCUPS() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Cells) / s / 1e9
}

// Subroutine aligns small query and database sets pairwise (Scenario
// 3: SW as a library subroutine, SSW style): every pair runs the
// adaptive 8/16-bit pair kernel on the modeled backend, or the exact
// native.Pair32 on native, optionally with traceback, across the
// worker pool. The working set fits in the highest cache level and is
// reused heavily.
func Subroutine(queries [][]uint8, db []seqio.Sequence, mat *submat.Matrix, traceback bool, opt Options) (*SubroutineResult, error) {
	if len(queries) == 0 || len(db) == 0 {
		return nil, fmt.Errorf("sched: empty input")
	}
	if err := opt.Gaps.Validate(); err != nil {
		return nil, err
	}
	alpha := mat.Alphabet()
	encoded := make([][]uint8, len(db))
	for i := range db {
		encoded[i] = db[i].Encode(alpha)
		if len(encoded[i]) == 0 {
			return nil, fmt.Errorf("sched: database sequence %d is empty", i)
		}
	}

	res := &SubroutineResult{Hits: make([]PairHit, 0, len(queries)*len(db))}
	for _, q := range queries {
		for i := range encoded {
			res.Cells += int64(len(q)) * int64(len(encoded[i]))
			_ = i
		}
	}

	type pairIndex struct{ qi, si int }
	nw := opt.threads()
	if nw > len(queries)*len(db) {
		nw = len(queries) * len(db)
	}
	if nw < 1 {
		nw = 1
	}
	// A crashed worker cancels the feed so the send loop cannot block
	// on dead consumers.
	ictx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &stages{ctx: ictx, cancel: cancel, tally: &vek.Tally{}}

	work := make(chan pairIndex, nw)
	hits := make([]PairHit, len(queries)*len(db))
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.guard("worker")
			mch := vek.Bare
			var tal *vek.Tally
			if opt.Instrument {
				mch, tal = vek.NewMachine()
			}
			scratch := getScratch()
			// alignPairJob recovers panics without a counter set, so
			// any failed pair keeps this worker's arena out of the pool.
			failed := false
			for jb := range work {
				if ictx.Err() != nil {
					continue
				}
				hit, err := alignPairJob(mch, queries[jb.qi], encoded[jb.si], mat, jb.qi, jb.si, traceback, &opt, scratch)
				if err != nil {
					failed = true
					st.fail(err)
					continue
				}
				hits[jb.qi*len(encoded)+jb.si] = hit
			}
			if tal != nil {
				st.mu.Lock()
				st.tally.Merge(tal)
				st.mu.Unlock()
			}
			metrics.Global.ProfileCacheHits.Add(scratch.TakeProfileCacheHits())
			putScratch(scratch, failed)
		}()
	}
	for qi := range queries {
		for si := range encoded {
			select {
			case work <- pairIndex{qi: qi, si: si}:
			case <-ictx.Done():
			}
		}
	}
	close(work)
	wg.Wait()
	res.Elapsed = time.Since(start)
	res.Hits = hits
	if opt.Instrument {
		res.Tally = st.tally
	}
	if st.err != nil {
		return nil, st.err
	}
	return res, nil
}
