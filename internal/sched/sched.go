// Package sched runs Smith-Waterman searches across goroutine worker
// pools and implements the paper's three usage scenarios (§II-C,
// §IV-G): single query versus a streamed database, batched queries on
// a centralized server, and SW as a small-scale subroutine. Workers
// carry their own vector-machine tallies, which are merged for the
// performance model.
//
// Scenarios 1 and 2 run as one streaming pipeline over a set of
// queries (one query for scenario 1): a producer transposes database
// batches on demand into one work queue, and a worker pool aligns each
// batch for every query. On the modeled backend the batch runs at 8
// bits, and the worker that finds a saturated (query, lane) pair
// rescues it on its own, right after the batch, at 16 and then 32
// bits; no saturation is queued between goroutines. On the native
// backend every lane is scored exactly by native.Pair32, so nothing
// saturates and nothing is rescued.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"swvec/internal/aln"
	"swvec/internal/alphabet"
	"swvec/internal/core"
	"swvec/internal/failpoint"
	"swvec/internal/isa"
	"swvec/internal/metrics"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// Retry policy for transient stage failures: a batch or pair gets
// 1+maxStageRetries attempts, with exponential backoff starting at
// retryBase and capped at retryMax. The delays are deliberately small —
// a transient fault here is a resource blip, not a remote call.
const (
	maxStageRetries = 2
	retryBase       = time.Millisecond
	retryMax        = 50 * time.Millisecond
)

// Options configures a database search.
type Options struct {
	// Gaps is the gap model (affine by default).
	Gaps aln.Gaps
	// Threads is the worker count; 0 uses GOMAXPROCS.
	Threads int
	// SortByLength batches similar-length sequences together.
	SortByLength bool
	// Instrument merges per-worker operation tallies into the result
	// for the performance model. Slightly slows the real kernels.
	Instrument bool
	// Width is the vector register width of the pipeline's 8-bit batch
	// engine in bits, for Search and MultiSearch alike: 256 (32-lane
	// batches), 512 (64-lane batches), or 0 to resolve from the native
	// architecture model (512 when isa.Native().HasAVX512, else 256).
	// The 16- and 32-bit rescues align one pair at a time on the pair
	// kernels, whatever the width. On the native backend Width only
	// sets how many sequences a batch holds: each is scored on its own.
	Width int
	// Backend selects the execution backend for every alignment stage.
	// BackendAuto resolves to the native backend unless Instrument is
	// set (instruction tallies only exist on the modeled
	// machine); BackendModeled and BackendNative force a backend.
	Backend core.Backend
	// Kernel selects the kernel family of the modeled backend's
	// alignment stages: KernelAuto runs the diagonal family, and
	// KernelDiagonal, KernelStriped, and KernelLazyF force a family.
	// The native backend has one kernel, native.Pair32, and ignores
	// Kernel. The resolved choice is reported in Result.Kernel.
	Kernel core.Kernel
}

// backend resolves Options.Backend: an explicit choice wins, otherwise
// instrumented runs stay on the modeled machine and everything else
// takes the compiled kernels.
func (o *Options) backend() core.Backend {
	if o.Backend != core.BackendAuto {
		return o.Backend
	}
	if o.Instrument {
		return core.BackendModeled
	}
	return core.BackendNative
}

// kernel resolves Options.Kernel for the resolved backend be. A
// kernel family is a modeled-backend choice: native runs native.Pair32
// whatever was asked and resolves to KernelAuto. On modeled an
// explicit kernel wins, otherwise the diagonal family runs — the
// figure apparatus, whose port-occupancy tallies are calibrated on the
// diagonal layout.
func (o *Options) kernel(be core.Backend) core.Kernel {
	if be == core.BackendNative {
		return core.KernelAuto
	}
	if o.Kernel != core.KernelAuto {
		return o.Kernel
	}
	return core.KernelDiagonal
}

// width resolves Options.Width to a concrete register width.
func (o *Options) width() (int, error) {
	switch o.Width {
	case 0:
		if isa.Native().HasAVX512 {
			return 512, nil
		}
		return 256, nil
	case 256, 512:
		return o.Width, nil
	}
	return 0, fmt.Errorf("sched: unsupported vector width %d (want 0, 256, or 512)", o.Width)
}

func (o *Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// Hit is one database sequence's result.
type Hit struct {
	// SeqIndex is the sequence's position in the database slice.
	SeqIndex int
	Score    int32
	// Rescued marks scores recovered by the 16-bit kernel after 8-bit
	// saturation. Only the modeled backend saturates; on native it is
	// always false.
	Rescued bool
}

// Quarantine is one database sequence a search isolated after an
// alignment stage failed on its batch or, in a rescue, on its pair — a
// kernel panic the stage recovered, or an error that survived the
// transient-retry policy. The rest of the search completes normally;
// the caller decides whether to rerun the quarantined ids.
type Quarantine struct {
	// SeqIndex is the sequence's position in the database slice.
	SeqIndex int
	// ID is the sequence's FASTA identifier.
	ID string
	// Stage names the stage that failed: "align8" for the 8-bit batch
	// (in both scenarios), "align16" and "align32" for the rescue tiers.
	Stage string
	// Cause is the final error after retries were exhausted.
	Cause string
}

// Result is the outcome of a search.
type Result struct {
	// Hits holds one entry per database sequence, in database order.
	Hits []Hit
	// Cells is the number of real DP cells across every stage the
	// pipeline ran — 8-bit, 16-bit rescue, and 32-bit escalation —
	// with padding excluded, so GCUPS reflects the actual work.
	Cells int64
	// Elapsed is the wall-clock alignment time (batch preprocessing
	// streams inside the pipeline; the eager offline variant the paper
	// measures separately is BuildBatches).
	Elapsed time.Duration
	// Rescued counts 8-bit saturations escalated to 16 bits (always 0
	// on the native backend, which never saturates).
	Rescued int
	// Kernel is the kernel family the search resolved: on the modeled
	// backend the family every 8- and 16-bit stage ran (never
	// KernelAuto; the 32-bit escalation pairs always run the diagonal
	// kernel), on the native backend KernelAuto, since native has one
	// kernel and ignores an explicit family.
	Kernel core.Kernel
	// Stats is the per-stage counter snapshot for this search: batches
	// produced and aligned, cells by width, saturations, the work-queue
	// high-water mark, and per-stage wall times. It is taken after the
	// worker pool has fully drained, so it is internally consistent
	// even when the search was canceled mid-stream.
	Stats metrics.Snapshot
	// Tally is the merged operation tally when Options.Instrument is
	// set, else nil.
	Tally *vek.Tally
	// Quarantined lists database sequences whose batch or rescue failed
	// an alignment stage after retries, sorted by SeqIndex. Their Hits
	// entries hold the last score the pipeline computed for them: zero
	// if the 8-bit stage never scored them, the capped 8-bit score if
	// the 16-bit rescue failed, the capped 16-bit score if the 32-bit
	// tier failed. Empty on a fully healthy run.
	Quarantined []Quarantine
}

// GCUPS returns the measured wall-clock throughput in giga cell
// updates per second.
func (r *Result) GCUPS() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Cells) / s / 1e9
}

// Search aligns one query against every database sequence (Scenario 1)
// with the staged variable-bitwidth pipeline, run as a single streaming
// dataflow:
//
//	producer ──work8──▶ worker pool ──▶ Hits
//	                    each worker: one 8-bit batch, then per
//	                    saturated lane 16-bit pair ─▶ 32-bit pair
//
// The producer transposes batches on demand at the resolved vector
// width — 32 lanes for 256-bit, 64 for 512-bit (a large database
// never materializes all batches at once) and recycles batch buffers
// returned by the workers. A worker aligns a batch at 8 bits, then
// rescues each lane that saturated on its own at 16 bits, and at 32
// bits past int16, before it takes the next batch. Every database
// index belongs to exactly one batch, and the one worker that aligned
// that batch writes both its 8-bit score and its rescue, so Hits needs
// no lock. Search is MultiSearch with one query: both run this one
// dataflow.
func Search(query []uint8, db []seqio.Sequence, mat *submat.Matrix, opt Options) (*Result, error) {
	return SearchContext(context.Background(), query, db, mat, opt)
}

// SearchContext is Search with cancellation: when ctx is canceled or
// its deadline passes, the batch producer stops, in-flight batches
// drain without aligning, and the call returns the partial Result
// together with an error wrapping ctx.Err(). In the partial Result,
// hits whose stage completed before the cancel hold real scores;
// sequences the 8-bit stream never reached are zero, and saturated
// lanes whose rescue was cut short keep the capped 8-bit score with
// Rescued left false. Result.Stats is always a consistent snapshot of
// how far each stage got. No goroutines outlive the call.
//
// The pipeline is self-healing (DESIGN.md §12): a kernel panic or
// alignment error on one batch or rescue is recovered inside the
// stage, retried with bounded backoff when transient, and otherwise
// quarantines just that batch's or pair's sequences into
// Result.Quarantined while every other sequence completes normally.
// Only a fault in the pipeline's own machinery (the producer, or a
// panic that escapes a worker's per-attempt recovery) fails the whole
// search.
func SearchContext(ctx context.Context, query []uint8, db []seqio.Sequence, mat *submat.Matrix, opt Options) (*Result, error) {
	p, err := search(ctx, [][]uint8{query}, db, mat, opt)
	if p == nil {
		return nil, err
	}
	m := p.res
	res := &Result{
		Hits:        make([]Hit, len(db)),
		Cells:       m.Cells,
		Elapsed:     m.Elapsed,
		Rescued:     m.Rescued,
		Kernel:      p.kern,
		Stats:       m.Stats,
		Tally:       m.Tally,
		Quarantined: m.Quarantined,
	}
	for si, score := range m.Scores[0] {
		res.Hits[si] = Hit{SeqIndex: si, Score: score, Rescued: p.rescued[0][si]}
	}
	return res, err
}

// search is the one dataflow behind Search and MultiSearch: it
// validates the inputs, resolves the kernel family, streams the
// database through the worker pool, and returns the drained pipeline
// with its MultiResult filled in. The pipeline is nil
// when the inputs are invalid or the pipeline's own machinery failed;
// on a cancel it holds the partial result and err wraps ctx.Err().
func search(ctx context.Context, queries [][]uint8, db []seqio.Sequence, mat *submat.Matrix, opt Options) (*pipeline, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("sched: no queries")
	}
	for i, q := range queries {
		if len(q) == 0 {
			return nil, fmt.Errorf("sched: query %d is empty", i)
		}
	}
	if len(db) == 0 {
		return nil, fmt.Errorf("sched: empty database")
	}
	if err := opt.Gaps.Validate(); err != nil {
		return nil, err
	}
	width, err := opt.width()
	if err != nil {
		return nil, err
	}
	lanes := width / 8
	nbatches := (len(db) + lanes - 1) / lanes
	nw := min(opt.threads(), nbatches)

	// The internal context lets a pipeline crash (a panic the per-batch
	// recovery could not absorb) cancel the dataflow without the caller
	// having to; the outer ctx is still what decides whether the run
	// reports as interrupted.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	alpha := mat.Alphabet()
	p := &pipeline{
		stages: stages{
			ctx:    ictx,
			cancel: cancel,
			met:    &metrics.Counters{},
			db:     db,
			alpha:  alpha,
			mat:    mat,
			opt:    &opt,
			kern:   opt.kernel(opt.backend()),
			tally:  &vek.Tally{},
		},
		queries: queries,
		tables:  submat.NewCodeTables(mat),
		res:     &MultiResult{Scores: make([][]int32, len(queries))},
		rescued: make([][]bool, len(queries)),
		stream:  seqio.NewBatchStream(db, alpha, seqio.BatchOptions{SortByLength: opt.SortByLength, Lanes: lanes}),
		// Two queued batches per worker keep the pool fed while bounding
		// the transposed batches in flight, whatever the database size.
		work8: make(chan *seqio.Batch, 2*nw),
	}
	for qi := range queries {
		p.res.Scores[qi] = make([]int32, len(db))
		p.rescued[qi] = make([]bool, len(db))
	}

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer p.guard("produce")
		p.produce()
	}()
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.guard("worker")
			p.worker()
		}()
	}
	wg.Wait()

	// All writers have quiesced: derive the aggregate fields from the
	// one snapshot so the result and its Stats can never disagree.
	res := p.res
	res.Elapsed = time.Since(start)
	snap, cancelErr := p.finish(ctx)
	res.Stats = snap
	res.Cells = snap.Cells()
	res.Rescued = int(snap.Saturated8)
	res.Quarantined = p.quarantined
	if opt.Instrument {
		res.Tally = p.tally
	}
	if p.err != nil {
		return nil, p.err
	}
	if cancelErr != nil {
		return p, fmt.Errorf("sched: search interrupted after %d/%d batches: %w",
			snap.Batches8, nbatches, cancelErr)
	}
	return p, nil
}

// stages is what the alignment stages of one search share: the
// search's context and counters, its inputs and kernel plan, and the
// failure and quarantine report its workers write under mu. The
// pipeline embeds it; Subroutine borrows its guard and mutex.
type stages struct {
	// ctx stops the search: the producer stops emitting, the stage
	// runners drop into drain mode, and retry backoff gives up. It is
	// the caller's context wrapped with cancel, so a crashed goroutine
	// can stop the search too.
	ctx    context.Context
	cancel context.CancelFunc
	// met tallies the per-stage counters (one atomic add per batch or
	// rescued pair); finish snapshots it after the pool drains.
	met   *metrics.Counters
	db    []seqio.Sequence
	alpha *alphabet.Alphabet
	mat   *submat.Matrix
	opt   *Options
	// kern is the resolved kernel family for the search's 8- and 16-bit
	// alignments; KernelAuto on the native backend.
	kern core.Kernel

	mu          sync.Mutex
	err         error
	tally       *vek.Tally
	quarantined []Quarantine
}

// pipeline is the streaming search dataflow of Search and MultiSearch:
// one producer feeding one work queue drained by the worker pool.
type pipeline struct {
	stages
	queries [][]uint8
	tables  *submat.CodeTables
	// res collects the search's outcome: res.Scores[qi][si] is query
	// qi's score against sequence si, and rescued[qi][si] marks the
	// scores the saturation ladder recovered.
	res     *MultiResult
	rescued [][]bool
	stream  *seqio.BatchStream
	// work8 carries transposed batches from the producer to the pool.
	work8 chan *seqio.Batch
}

// produce streams transposed batches into the 8-bit stage and closes
// work8 when the stream ends or the search stops.
// Cancellation point 1: on ctx.Done the producer stops transposing —
// no further batches enter the pipeline, which bounds how much drain
// work the already-queued jobs represent.
func (p *pipeline) produce() {
	// The close rides in a defer so it still runs when the producer
	// itself panics: the workers drain the queued batches and exit
	// instead of waiting on a queue nobody closes.
	defer close(p.work8)
	for {
		if p.ctx.Err() != nil {
			return
		}
		if err := failpoint.Inject("sched/produce"); err != nil {
			// A producer fault is fatal, not quarantinable: without the
			// stream there is no work to heal around.
			p.fail(err)
			return
		}
		t0 := time.Now()
		b := p.stream.Next()
		p.met.ProduceNanos.Add(int64(time.Since(t0)))
		if b == nil {
			return
		}
		// The depth counts the batch being handed over, sampled before
		// the send: a worker already waiting takes it straight from the
		// sender, and the channel's length then never shows it.
		depth := min(len(p.work8)+1, cap(p.work8))
		select {
		case p.work8 <- b:
			p.met.BatchesProduced.Add(1)
			p.met.ObserveQueueDepth(depth)
		case <-p.ctx.Done():
			p.stream.Recycle(b)
		}
	}
}

// worker drains work8 until the producer closes it. Each worker owns
// its vector machine, tally, scratch arena (on loan from scratchPool),
// and encode buffer. Cell counts flow through the per-batch atomic
// stage counters, so they stay consistent with the result's Stats even
// on a canceled run. After a cancel the worker keeps receiving — run8
// just drops into drain mode — until the producer closes the queue.
func (p *pipeline) worker() {
	mch := vek.Bare
	var tal *vek.Tally
	if p.opt.Instrument {
		mch, tal = vek.NewMachine()
	}
	scratch := getScratch()
	var enc []uint8
	for b := range p.work8 {
		enc = p.run8(mch, scratch, b, enc)
	}
	p.retire(tal, scratch)
}

// run8 is stage 1: align the batch at 8 bits for every query, write
// each (query, lane) score (each database index is owned by exactly
// one lane), rescue every saturated pair on this worker, and recycle
// the batch buffer. A stage failure that survives the retry policy
// quarantines the batch's sequences, for every query, instead of
// failing the search. enc is the worker's encode buffer for the
// rescues, returned for reuse.
// Cancellation point 2: after a cancel the batch is recycled
// unaligned, and its lanes are never rescued.
//
//sw:hotpath
func (p *pipeline) run8(mch vek.Machine, s *core.Scratch, b *seqio.Batch, enc []uint8) []uint8 {
	if p.ctx.Err() != nil {
		p.stream.Recycle(b)
		return enc
	}
	start := time.Now()
	r, err := retry(&p.stages, p.try8, job{mch: mch, s: s, b: b})
	if err != nil {
		p.quarantineBatch("align8", b, err)
		p.stream.Recycle(b)
		return enc
	}
	var cells int64
	for qi, q := range p.queries {
		br, scores := r.of(qi), p.res.Scores[qi]
		cells += b.Cells(len(q))
		for lane := 0; lane < b.Count; lane++ {
			scores[b.Index[lane]] = br.Scores[lane]
			if br.Saturated[lane] {
				p.met.Saturated8.Add(1)
			}
		}
	}
	p.met.Batches8.Add(1)
	p.met.Cells8.Add(cells)
	p.met.Stage8Nanos.Add(int64(time.Since(start)))
	for qi, q := range p.queries {
		br := r.of(qi)
		for lane := 0; lane < b.Count; lane++ {
			if !br.Saturated[lane] {
				continue
			}
			si := b.Index[lane]
			var score int32
			var ok bool
			if score, ok, enc = p.rescue(mch, s, q, si, enc); ok {
				p.res.Scores[qi][si] = score
				p.rescued[qi][si] = true
			}
		}
	}
	p.stream.Recycle(b)
	return enc
}

// results8 is one batch's 8-bit outcome for every query of the search.
// A one-query search keeps its result inline, so its healthy path
// allocates nothing; a query set holds AlignBatch8Multi's results.
type results8 struct {
	one   core.BatchResult
	multi []core.BatchResult
}

// of returns query qi's result.
func (r *results8) of(qi int) *core.BatchResult {
	if r.multi == nil {
		return &r.one
	}
	return &r.multi[qi]
}

// try8 is one guarded 8-bit attempt; recoverAttempt turns a panicking
// kernel into an error without unwinding the worker. One query runs
// AlignBatch8; a query set runs AlignBatch8Multi, which does the same
// work per query and shares the batch's score scratch across them —
// the scenario-2 data reuse of §IV-G.
func (p *pipeline) try8(j job) (r results8, err error) {
	defer recoverAttempt("align8", p.met, &err)
	if err = failpoint.Inject("sched/align8"); err != nil {
		return r, err
	}
	opt := core.BatchOptions{Gaps: p.opt.Gaps, Scratch: j.s, Backend: p.opt.backend(), Kernel: p.kern}
	if len(p.queries) == 1 {
		r.one, err = core.AlignBatch8(j.mch, p.queries[0], p.tables, j.b, opt)
		return r, err
	}
	r.multi, err = core.AlignBatch8Multi(j.mch, p.queries, p.tables, j.b, opt)
	return r, err
}

// rescue is the saturation ladder (PAPER.md §1, point 6) for one pair
// whose 8-bit score saturated: query q against database sequence si,
// on the calling worker's machine and arena. The pair is rescored on
// its own at 16 bits with the planned kernel and, if that saturates
// too, at 32 bits on the diagonal kernel. A 16-bit rescue counts as
// one Batches16 item. Each tier runs under the stage retry policy, and
// a tier that still fails quarantines the sequence under its stage
// name.
//
// ok reports that the 16-bit tier completed; score is then the best
// score the ladder reached — the capped 16-bit one when the 32-bit
// tier failed or was canceled. When ok is false the caller keeps the
// capped 8-bit score. enc is the worker's encode buffer, returned for
// reuse.
// Cancellation point 3: a canceled rescue stops before its next tier.
//
//sw:hotpath
func (st *stages) rescue(mch vek.Machine, s *core.Scratch, q []uint8, si int, enc []uint8) (score int32, ok bool, _ []uint8) {
	if st.ctx.Err() != nil {
		return 0, false, enc
	}
	start := time.Now()
	enc = st.alpha.EncodeTo(enc, st.db[si].Residues)
	j := job{mch: mch, s: s, q: q, d: enc}
	cells := int64(len(q)) * int64(len(enc))
	r16, err := retry(st, st.try16, j)
	if err != nil {
		st.quarantine("align16", si, err)
		return 0, false, enc
	}
	st.met.Batches16.Add(1)
	st.met.Cells16.Add(cells)
	st.met.Stage16Nanos.Add(int64(time.Since(start)))
	if !r16.Saturated {
		return r16.Score, true, enc
	}
	st.met.Saturated16.Add(1)
	if st.ctx.Err() != nil {
		return r16.Score, true, enc
	}
	start = time.Now()
	r32, err := retry(st, st.try32, j)
	if err != nil {
		st.quarantine("align32", si, err)
		return r16.Score, true, enc
	}
	st.met.Pairs32.Add(1)
	st.met.Cells32.Add(cells)
	st.met.Stage32Nanos.Add(int64(time.Since(start)))
	return r32.Score, true, enc
}

// try16 is one guarded 16-bit rescue attempt; see try8.
func (st *stages) try16(j job) (pr aln.ScoreResult, err error) {
	defer recoverAttempt("align16", st.met, &err)
	if err = failpoint.Inject("sched/align16"); err != nil {
		return pr, err
	}
	pr, _, err = core.AlignPair16(j.mch, j.q, j.d, st.mat,
		core.PairOptions{Gaps: st.opt.Gaps, Scratch: j.s, Backend: st.opt.backend(), Kernel: st.kern})
	return pr, err
}

// try32 is one guarded 32-bit escalation attempt; see try8.
func (st *stages) try32(j job) (pr aln.ScoreResult, err error) {
	defer recoverAttempt("align32", st.met, &err)
	if err = failpoint.Inject("sched/align32"); err != nil {
		return pr, err
	}
	return core.AlignPair32(j.mch, j.q, j.d, st.mat,
		core.PairOptions{Gaps: st.opt.Gaps, Scratch: j.s, Backend: st.opt.backend()})
}

// job is the input of one stage attempt: the calling worker's vector
// machine and scratch arena, and what the stage aligns — a batch b on
// the 8-bit stages, query q against encoded database sequence d on the
// rescue tiers.
type job struct {
	mch  vek.Machine
	s    *core.Scratch
	b    *seqio.Batch
	q, d []uint8
}

// retry runs one stage alignment under the stage retry policy: a
// panicking kernel surfaces as an error through the attempt's own
// recovery, a transient error backs off and retries up to
// maxStageRetries times, and whatever error survives is returned for
// quarantine.
func retry[R any](st *stages, try func(job) (R, error), j job) (R, error) {
	r, err := try(j)
	for attempt := 0; err != nil && transient(err) && attempt < maxStageRetries; attempt++ {
		if !backoffCtx(st.ctx, attempt) {
			break
		}
		st.met.Retries.Add(1)
		r, err = try(j)
	}
	return r, err
}

// scratchPool recycles worker scratch arenas across searches, so a
// search starts from arenas earlier searches already grew instead of
// growing fresh ones. A core.Scratch is built for reuse: its buffers
// only grow, its profile caches are keyed by matrix, query contents
// and gaps, and one arena serves both register widths.
var scratchPool = sync.Pool{New: func() any { return core.NewScratch() }}

// getScratch lends a worker an arena for the length of its run.
func getScratch() *core.Scratch { return scratchPool.Get().(*core.Scratch) }

// putScratch returns a worker's arena at exit unless the worker
// recovered a panic during its run: a kernel that panics mid-fill can
// leave a valid-looking cache key over a half-built profile
// (stripedProfileFor writes the profile before its key), which a later
// search must not inherit. A worker whose panic escaped the
// per-attempt recovery never gets here, so its arena is dropped too.
func putScratch(s *core.Scratch, recovered bool) {
	if !recovered {
		scratchPool.Put(s)
	}
}

// retire ends one worker's part in a search: it merges the worker's
// tally, counts its profile-cache hits, and returns its arena. The
// panic counter covers the whole search, so a worker may also drop a
// clean arena after another worker's panic; dropping is always safe.
func (st *stages) retire(tal *vek.Tally, s *core.Scratch) {
	if tal != nil {
		st.mu.Lock()
		st.tally.Merge(tal)
		st.mu.Unlock()
	}
	st.met.ProfileCacheHits.Add(s.TakeProfileCacheHits())
	putScratch(s, st.met.PanicsRecovered.Load() > 0)
}

// finish closes the books once every worker has quiesced: it counts
// the search and whether ctx canceled it, sorts the quarantine report
// by database index so it is deterministic, and folds the snapshot
// into the process-wide totals. It returns the snapshot and ctx's
// error.
func (st *stages) finish(ctx context.Context) (metrics.Snapshot, error) {
	st.met.Searches.Add(1)
	cancelErr := ctx.Err()
	if cancelErr != nil {
		st.met.Canceled.Add(1)
	}
	sort.Slice(st.quarantined, func(i, j int) bool {
		return st.quarantined[i].SeqIndex < st.quarantined[j].SeqIndex
	})
	snap := st.met.Snapshot()
	metrics.Global.Add(snap)
	return snap, cancelErr
}

// recoverAttempt converts a panic escaping a stage attempt into the
// attempt's error so the batch can be quarantined instead of crashing
// the pool. It must be installed directly with defer (not wrapped in a
// closure) for recover to see the panic. met may be nil for callers
// that do not keep counters.
func recoverAttempt(stage string, met *metrics.Counters, err *error) {
	r := recover()
	if r == nil {
		return
	}
	if met != nil {
		met.PanicsRecovered.Add(1)
	}
	*err = &panicError{stage: stage, val: r}
}

// transient reports whether err is retryable: some layer of its chain
// exposes Transient() bool and answers true (injected faults marked
// :transient do; kernel validation errors do not).
func transient(err error) bool {
	var t interface{ Transient() bool }
	//swlint:ignore hotpathalloc only reached after an attempt failed; the healthy path never classifies errors
	return errors.As(err, &t) && t.Transient()
}

// backoffCtx sleeps the bounded exponential retry delay for the given
// attempt. It returns false when ctx is canceled first, in which case
// the caller gives up on the batch.
func backoffCtx(ctx context.Context, attempt int) bool {
	d := retryBase << attempt
	if d > retryMax {
		d = retryMax
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// quarantine records one sequence a stage failed on; the search
// continues without it.
func (st *stages) quarantine(stage string, si int, cause error) {
	st.met.Quarantined.Add(1)
	st.mu.Lock()
	//swlint:ignore hotpathalloc quarantine is the cold path: a stage already failed and exhausted its retries
	st.quarantined = append(st.quarantined, Quarantine{
		SeqIndex: si,
		ID:       st.db[si].ID,
		Stage:    stage,
		Cause:    cause.Error(),
	})
	st.mu.Unlock()
}

// quarantineBatch quarantines every member of a failed batch.
func (st *stages) quarantineBatch(stage string, b *seqio.Batch, cause error) {
	for lane := 0; lane < b.Count; lane++ {
		st.quarantine(stage, b.Index[lane], cause)
	}
}

// guard is the last-resort recovery for a search's goroutines: a
// panic that reaches it escaped the per-attempt recovery, which means
// a scheduler bug rather than a kernel fault. The search cannot heal
// around it, so the crash fails the search — but cleanly: the error is
// recorded, the search is canceled, and every goroutine still unwinds
// through its deferred close instead of deadlocking the pool.
// Installed directly with defer so recover sees the panic.
func (st *stages) guard(stage string) {
	r := recover()
	if r == nil {
		return
	}
	st.fail(&panicError{stage: stage, val: r})
	st.cancel()
}

// fail records the search's first fatal error.
func (st *stages) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

// panicError wraps a recovered panic value as an error so it can ride
// the normal failure paths: quarantine causes for stage panics, the
// search error for crashes.
type panicError struct {
	stage string
	val   any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("sched: panic in %s: %v", e.stage, e.val)
}
