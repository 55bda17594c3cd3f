// Package sched runs Smith-Waterman searches across goroutine worker
// pools and implements the paper's three usage scenarios (§II-C,
// §IV-G): single query versus a streamed database, batched queries on
// a centralized server, and SW as a small-scale subroutine. Workers
// carry their own vector-machine tallies, which are merged for the
// performance model.
//
// Scenario 1 runs as a streaming pipeline: a producer transposes
// database batches on demand, one shared worker pool drains the 8-bit,
// 16-bit, and 32-bit stages concurrently, and saturated lanes are
// regrouped and rescued in flight instead of behind global barriers.
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

// Retry policy for transient stage failures: a batch gets
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
	// BlockCols is passed to the batch engine (0 = unblocked).
	BlockCols int
	// SortByLength batches similar-length sequences together.
	SortByLength bool
	// Instrument merges per-worker operation tallies into the result
	// for the performance model. Slightly slows the real kernels.
	Instrument bool
	// PipelineDepth is the number of batches buffered between the
	// streaming producer and the worker pool (0 = twice the worker
	// count). Deeper queues smooth uneven batch costs at the price of
	// more transposed batches in flight.
	PipelineDepth int
	// Width is the vector register width of the batch engines in bits:
	// 256 (32-lane batches), 512 (64-lane batches), or 0 to resolve
	// from the native architecture model (512 when
	// isa.Native().HasAVX512, else 256). Every stage of the pipeline —
	// 8-bit stream, 16-bit rescue — runs at the resolved width.
	Width int
	// Backend selects the execution backend for every alignment stage.
	// BackendAuto resolves to the compiled native kernels unless
	// Instrument is set (instruction tallies only exist on the modeled
	// machine); BackendModeled and BackendNative force a backend.
	Backend core.Backend
	// Kernel selects the kernel family for every alignment stage.
	// KernelAuto lets the per-query planner choose (see planner.go):
	// instrumented, modeled, linear-gap, and short-query searches stay
	// on the diagonal family; long queries take a striped variant
	// picked by the gap model. KernelDiagonal, KernelStriped, and
	// KernelLazyF force a family. The resolved choice is reported in
	// Result.Kernel.
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

func (o *Options) depth(nw int) int {
	if o.PipelineDepth > 0 {
		return o.PipelineDepth
	}
	return 2 * nw
}

// Hit is one database sequence's result.
type Hit struct {
	// SeqIndex is the sequence's position in the database slice.
	SeqIndex int
	Score    int32
	// Rescued marks scores recovered by the 16-bit kernel after 8-bit
	// saturation.
	Rescued bool
}

// Quarantine is one database sequence the pipeline isolated after an
// alignment stage failed on its batch — a kernel panic the stage
// recovered, or an error that survived the transient-retry policy. The
// rest of the search completes normally; the caller decides whether to
// rerun the quarantined ids.
type Quarantine struct {
	// SeqIndex is the sequence's position in the database slice.
	SeqIndex int
	// ID is the sequence's FASTA identifier.
	ID string
	// Stage names the pipeline stage that failed: "align8", "align16",
	// or "align32".
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
	// Rescued counts 8-bit saturations escalated to 16 bits.
	Rescued int
	// Kernel is the kernel family the planner resolved for this search
	// (never KernelAuto); every 8- and 16-bit stage ran it. The 32-bit
	// escalation pairs always run the diagonal kernel.
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
	// Quarantined lists database sequences whose batch failed an
	// alignment stage after retries, sorted by SeqIndex. Their Hits
	// entries hold the last score the pipeline computed for them (zero
	// if the 8-bit stage never scored them, the capped 8-bit score if a
	// rescue failed). Empty on a fully healthy run.
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
// with the staged variable-bitwidth pipeline, restructured as a single
// streaming dataflow:
//
//	producer ──work8──▶ ┌─────────────┐ ──▶ Hits (direct writes)
//	                    │             │
//	     sat8 ◀─────────│ worker pool │
//	      │             │  (shared by │
//	grouper ──work16──▶ │ all stages) │ ──▶ Hits
//	     sat16 ◀────────│             │
//	      │             │             │
//	dispatch ──work32─▶ └─────────────┘ ──▶ Hits
//
// The producer transposes batches on demand at the resolved vector
// width — 32 lanes for 256-bit, 64 for 512-bit (a large database
// never materializes all batches at once) and recycles batch buffers
// returned by the workers. Sequences whose 8-bit scores saturate are
// regrouped into fresh 16-bit batches and rescored by the same worker
// pool while the 8-bit stage is still streaming; anything beyond int16
// finishes on the 32-bit pair kernel, also on the pool. Every database
// index is written by exactly one lane per stage and each cross-stage
// handoff flows through a channel, so Hits needs no lock: the channel
// edges order the 8-bit write of an index before its rescue rewrite.
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
// alignment error on one batch is recovered inside the stage, retried
// with bounded backoff when transient, and otherwise quarantines just
// that batch's sequences into Result.Quarantined while every other
// sequence completes normally. Only a fault in the pipeline's own
// machinery (producer, coordinators) fails the whole search.
func SearchContext(ctx context.Context, query []uint8, db []seqio.Sequence, mat *submat.Matrix, opt Options) (*Result, error) {
	if len(query) == 0 {
		return nil, fmt.Errorf("sched: empty query")
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

	res := &Result{Hits: make([]Hit, len(db))}
	for i := range res.Hits {
		res.Hits[i].SeqIndex = i
	}

	nbatches := (len(db) + lanes - 1) / lanes
	nw := opt.threads()
	if nw > nbatches {
		nw = nbatches
	}
	if nw < 1 {
		nw = 1
	}
	depth := opt.depth(nw)

	// The internal context lets a pipeline crash (a panic the per-batch
	// recovery could not absorb) cancel the dataflow without the caller
	// having to; the outer ctx is still what decides whether the run
	// reports as interrupted.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	alpha := mat.Alphabet()
	kern := opt.kernel(len(query), mat, opt.backend(), batchPadRatio(db, lanes, opt.SortByLength))
	res.Kernel = kern
	p := &pipeline{
		ctx:     ictx,
		cancel:  cancel,
		crashed: make(chan struct{}),
		query:   query,
		db:      db,
		alpha:   alpha,
		mat:     mat,
		tables:  submat.NewCodeTables(mat),
		opt:     &opt,
		res:     res,
		lanes:   lanes,
		kern:    kern,
		stream:  seqio.NewBatchStream(db, alpha, seqio.BatchOptions{SortByLength: opt.SortByLength, Lanes: lanes}),
		work8:   make(chan *seqio.Batch, depth),
		sat8:    make(chan int, depth),
		work16:  make(chan *seqio.Batch, depth),
		sat16:   make(chan int, depth),
		work32:  make(chan int, depth),
		met:     &metrics.Counters{},
		tally:   &vek.Tally{},
	}

	start := time.Now()
	p.cwg.Add(3)
	go p.produce()
	go p.groupRescues()
	go p.dispatch32()
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.guard("worker")
			p.worker()
		}()
	}
	wg.Wait()
	p.cwg.Wait()
	res.Elapsed = time.Since(start)

	// All writers have quiesced: snapshot once, derive the aggregate
	// fields from it so Result and Result.Stats can never disagree,
	// and fold the search into the process-wide totals.
	p.met.Searches.Add(1)
	cancelErr := ctx.Err()
	if cancelErr != nil {
		p.met.Canceled.Add(1)
	}
	snap := p.met.Snapshot()
	res.Stats = snap
	res.Cells = snap.Cells()
	res.Rescued = int(snap.Saturated8)
	// Workers append quarantine records in completion order; sort so
	// the report is deterministic for callers and tests.
	sort.Slice(res.Quarantined, func(i, j int) bool {
		return res.Quarantined[i].SeqIndex < res.Quarantined[j].SeqIndex
	})
	if opt.Instrument {
		res.Tally = p.tally
	}
	metrics.Global.Add(snap)
	if p.err != nil {
		return nil, p.err
	}
	if cancelErr != nil {
		return res, fmt.Errorf("sched: search interrupted after %d/%d batches: %w",
			snap.Batches8, (len(db)+lanes-1)/lanes, cancelErr)
	}
	return res, nil
}

// pipeline carries the streaming search dataflow state. The three
// coordinator goroutines (produce, groupRescues, dispatch32) feed one
// shared worker pool; see Search for the shape.
type pipeline struct {
	// ctx cancels the dataflow: the producer stops emitting, and the
	// stage runners short-circuit into drain mode, so every channel
	// still closes in the usual order and no goroutine leaks. It is the
	// caller's context wrapped with cancel, so a pipeline crash can
	// abort the dataflow too.
	ctx    context.Context
	cancel context.CancelFunc
	query  []uint8
	db     []seqio.Sequence
	alpha  *alphabet.Alphabet
	mat    *submat.Matrix
	tables *submat.CodeTables
	opt    *Options
	res    *Result
	lanes  int
	// kern is the planner's resolved kernel family for this search; the
	// batch stages pass it through BatchOptions.
	kern   core.Kernel
	stream *seqio.BatchStream

	// work8/work16/work32 carry stage jobs to the pool; sat8/sat16
	// carry saturated database indices to the next stage's feeder.
	work8  chan *seqio.Batch
	sat8   chan int
	work16 chan *seqio.Batch
	sat16  chan int
	work32 chan int

	// wg8/wg16 count outstanding stage-1/stage-2 jobs so the feeders
	// know when no further saturations can arrive.
	wg8, wg16 sync.WaitGroup

	// cwg tracks the three coordinator goroutines (produce,
	// groupRescues, dispatch32) so Search provably outlives them.
	// Workers draining the closed channels already implies the
	// coordinators have finished their sends, but not that the
	// goroutines themselves have exited.
	cwg sync.WaitGroup

	// met tallies the per-stage counters (one atomic add per batch);
	// Search snapshots it into Result.Stats after the pool drains.
	met *metrics.Counters

	// crashed is closed (once) when a coordinator or worker dies to a
	// panic the per-batch recovery could not absorb. Stage sends select
	// on it so surviving goroutines never block on a dead consumer, and
	// the close rides with an internal-context cancel that stops the
	// producer.
	crashed   chan struct{}
	crashOnce sync.Once

	mu    sync.Mutex
	err   error
	tally *vek.Tally
}

// produce streams transposed batches into the 8-bit stage, then closes
// the saturation channel once every stage-1 job has fully retired (all
// wg8.Add calls precede the close of work8, so the Wait is safe).
// Cancellation point 1: on ctx.Done the producer stops transposing —
// no further batches enter the pipeline, which bounds how much drain
// work the already-queued jobs represent.
func (p *pipeline) produce() {
	defer p.cwg.Done()
	// The close sequence rides in a defer so it still runs when the
	// producer itself panics: the guard (deferred later, so it runs
	// first) records the crash and cancels the internal context, the
	// workers drain the queued batches, and the channels close in the
	// normal order instead of wedging the pool.
	defer func() {
		close(p.work8)
		p.wg8.Wait()
		close(p.sat8)
	}()
	defer p.guard("produce")
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
		p.wg8.Add(1)
		// The depth counts the batch being handed over, sampled before
		// the send: a worker already waiting takes it straight from the
		// sender, and the channel's length then never shows it.
		depth := min(len(p.work8)+1, cap(p.work8))
		select {
		case p.work8 <- b:
			p.met.BatchesProduced.Add(1)
			p.met.ObserveQueueDepth(depth)
		case <-p.ctx.Done():
			p.wg8.Done()
			p.stream.Recycle(b)
		}
	}
}

// groupRescues regroups saturated 8-bit lanes into fresh 16-bit
// batches in flight. It keeps finished rescue batches in a local queue
// and never blocks on work16 while sat8 is open: the worker pool both
// produces saturations and consumes rescue batches, so an unbuffered
// handoff here could deadlock the pool against itself.
func (p *pipeline) groupRescues() {
	defer p.cwg.Done()
	group := make([]int, 0, p.lanes)
	var pending []*seqio.Batch
	defer func() {
		if r := recover(); r != nil {
			// Undo the Adds for rescue batches never handed to the
			// pool, or the wg16.Wait below can never drain.
			p.wg16.Add(-len(pending))
			p.crash(&panicError{stage: "rescue-grouper", val: r})
		}
		close(p.work16)
		p.wg16.Wait()
		close(p.sat16)
	}()
	in := p.sat8
	for in != nil || len(pending) > 0 {
		var out chan *seqio.Batch
		var head *seqio.Batch
		if len(pending) > 0 {
			out = p.work16
			head = pending[0]
		}
		select {
		case si, ok := <-in:
			if !ok {
				in = nil
				if len(group) > 0 {
					pending = append(pending, p.rescueBatch(group))
					group = group[:0]
				}
				continue
			}
			group = append(group, si)
			if len(group) == p.lanes {
				pending = append(pending, p.rescueBatch(group))
				group = group[:0]
			}
		case out <- head:
			pending[0] = nil
			pending = pending[1:]
		}
	}
}

func (p *pipeline) rescueBatch(members []int) *seqio.Batch {
	if err := failpoint.Inject("sched/rescue"); err != nil {
		// The grouper has no per-batch error path — a failure here is a
		// pipeline bug by construction — so injected errors exercise
		// the crash guard like any other coordinator panic.
		panic(err)
	}
	b := seqio.MakeBatch(p.db, members, p.alpha, p.lanes)
	// Add after MakeBatch so a panic inside it leaves no stray count;
	// the deferred compensation only covers batches already in pending.
	p.wg16.Add(1)
	return b
}

// dispatch32 forwards 16-bit saturations to the 32-bit stage through a
// local queue, for the same no-blocking reason as groupRescues.
func (p *pipeline) dispatch32() {
	defer p.cwg.Done()
	defer func() {
		close(p.work32)
	}()
	defer p.guard("dispatch32")
	var pending []int
	in := p.sat16
	for in != nil || len(pending) > 0 {
		var out chan int
		var head int
		if len(pending) > 0 {
			out = p.work32
			head = pending[0]
		}
		select {
		case si, ok := <-in:
			if !ok {
				in = nil
				continue
			}
			pending = append(pending, si)
		case out <- head:
			pending = pending[1:]
		}
	}
}

// worker drains all three stages until every channel is closed. Each
// worker owns its vector machine, tally, scratch arena (on loan from
// scratchPool), and encode buffer; tallies merge once at exit. Cell
// counts flow through the per-batch atomic stage counters, so they
// stay consistent with Result.Stats even on a canceled run. After a
// cancel the workers keep receiving — the stage runners just drop into
// drain mode — which lets the producer and feeders retire their
// waitgroups and close every channel in the normal order.
func (p *pipeline) worker() {
	mch := vek.Bare
	var tal *vek.Tally
	if p.opt.Instrument {
		mch, tal = vek.NewMachine()
	}
	scratch := getScratch()
	var enc []uint8
	w8, w16, w32 := p.work8, p.work16, p.work32
	for w8 != nil || w16 != nil || w32 != nil {
		select {
		case b, ok := <-w8:
			if !ok {
				w8 = nil
				continue
			}
			p.consume8(mch, scratch, b)
		case b, ok := <-w16:
			if !ok {
				w16 = nil
				continue
			}
			p.consume16(mch, scratch, b)
		case si, ok := <-w32:
			if !ok {
				w32 = nil
				continue
			}
			enc = p.run32(mch, scratch, si, enc)
		}
	}
	if tal != nil {
		p.mu.Lock()
		p.tally.Merge(tal)
		p.mu.Unlock()
	}
	p.met.ProfileCacheHits.Add(scratch.TakeProfileCacheHits())
	// The counter covers the whole search, so a worker may also drop a
	// clean arena after another worker's panic; dropping is always safe.
	putScratch(scratch, p.met.PanicsRecovered.Load() > 0)
}

// consume8 retires one stage-1 job. The Done is deferred so even a
// panic escaping the stage's own recovery (a scheduler bug, not a
// kernel fault) balances the stage waitgroup on its way to the worker's
// crash guard.
func (p *pipeline) consume8(mch vek.Machine, s *core.Scratch, b *seqio.Batch) {
	defer p.wg8.Done()
	p.run8(mch, s, b)
}

// consume16 retires one rescue job; see consume8.
func (p *pipeline) consume16(mch vek.Machine, s *core.Scratch, b *seqio.Batch) {
	defer p.wg16.Done()
	p.run16(mch, s, b)
}

// run8 is stage 1: align the batch at 8 bits, write each lane's hit
// (each database index is owned by exactly one lane), hand saturated
// lanes to the rescue queue, and recycle the batch buffer. A stage
// failure that survives the retry policy quarantines the batch's
// sequences instead of failing the search.
// Cancellation point 2: after a cancel the batch is recycled
// unaligned, and its lanes never enter the rescue queue.
//
//sw:hotpath
func (p *pipeline) run8(mch vek.Machine, s *core.Scratch, b *seqio.Batch) {
	if p.ctx.Err() != nil {
		p.stream.Recycle(b)
		return
	}
	start := time.Now()
	br, err := p.align8(mch, s, b)
	if err != nil {
		p.quarantineBatch("align8", b, err)
		p.stream.Recycle(b)
		return
	}
	p.met.Batches8.Add(1)
	p.met.Cells8.Add(b.Cells(len(p.query)))
	p.countKernelBatch(b.Cells(len(p.query)))
	for lane := 0; lane < b.Count; lane++ {
		si := b.Index[lane]
		p.res.Hits[si].Score = br.Scores[lane]
		if br.Saturated[lane] {
			p.met.Saturated8.Add(1)
			select {
			case p.sat8 <- si:
			case <-p.crashed:
				// The rescue grouper died; dropping the handoff keeps
				// the pool from blocking on a dead consumer. The search
				// is already failing through the crash error.
			}
		}
	}
	p.stream.Recycle(b)
	p.met.Stage8Nanos.Add(int64(time.Since(start)))
}

// countKernelBatch attributes one aligned batch and its cell count to
// the planner's kernel family, so /debug/vars and Result.Stats expose
// how much work each family actually did.
func (p *pipeline) countKernelBatch(cells int64) {
	tallyKernel(p.met, p.kern, 1, cells)
}

// tallyKernel adds batch and cell counts to the per-kernel-family
// counters. Passing batches=0 attributes cells without counting a
// batch (pair-at-a-time stages: 32-bit escalations, multi-search
// rescues).
func tallyKernel(met *metrics.Counters, kern core.Kernel, batches, cells int64) {
	switch kern {
	case core.KernelStriped:
		met.BatchesStriped.Add(batches)
		met.CellsStriped.Add(cells)
	case core.KernelLazyF:
		met.BatchesLazyF.Add(batches)
		met.CellsLazyF.Add(cells)
	default:
		met.BatchesDiagonal.Add(batches)
		met.CellsDiagonal.Add(cells)
	}
}

// align8 runs the 8-bit stage with the retry policy: kernel panics
// surface as errors through the per-attempt recovery, transient errors
// back off and retry up to maxStageRetries times, and whatever error
// survives is returned for quarantine.
func (p *pipeline) align8(mch vek.Machine, s *core.Scratch, b *seqio.Batch) (core.BatchResult, error) {
	br, err := p.tryAlign8(mch, s, b)
	for attempt := 0; err != nil && transient(err) && attempt < maxStageRetries; attempt++ {
		if !backoffCtx(p.ctx, attempt) {
			break
		}
		p.met.Retries.Add(1)
		br, err = p.tryAlign8(mch, s, b)
	}
	return br, err
}

// tryAlign8 is one guarded 8-bit attempt; recoverTo turns a panicking
// kernel into an error without unwinding the worker.
func (p *pipeline) tryAlign8(mch vek.Machine, s *core.Scratch, b *seqio.Batch) (br core.BatchResult, err error) {
	defer recoverAttempt("align8", p.met, &err)
	if err = failpoint.Inject("sched/align8"); err != nil {
		return br, err
	}
	return core.AlignBatch8(mch, p.query, p.tables, b,
		core.BatchOptions{Gaps: p.opt.Gaps, BlockCols: p.opt.BlockCols, Scratch: s, Backend: p.opt.backend(), Kernel: p.kern})
}

// run16 is the in-flight rescue: rescore a regrouped batch at 16 bits
// and forward anything still saturated to the 32-bit stage. A failed
// rescue quarantines the batch — the affected hits keep their capped
// 8-bit score, which the Quarantine records flag as untrustworthy.
// Cancellation point 3: a canceled rescue is dropped — the affected
// hits keep their capped 8-bit score and Rescued stays false.
//
//sw:hotpath
func (p *pipeline) run16(mch vek.Machine, s *core.Scratch, b *seqio.Batch) {
	if p.ctx.Err() != nil {
		return
	}
	start := time.Now()
	br, err := p.align16(mch, s, b)
	if err != nil {
		p.quarantineBatch("align16", b, err)
		return
	}
	p.met.Batches16.Add(1)
	p.met.Cells16.Add(b.Cells(len(p.query)))
	p.countKernelBatch(b.Cells(len(p.query)))
	for lane := 0; lane < b.Count; lane++ {
		si := b.Index[lane]
		p.res.Hits[si].Score = br.Scores[lane]
		p.res.Hits[si].Rescued = true
		if br.Saturated[lane] {
			p.met.Saturated16.Add(1)
			select {
			case p.sat16 <- si:
			case <-p.crashed:
			}
		}
	}
	p.met.Stage16Nanos.Add(int64(time.Since(start)))
}

// align16 applies the stage retry policy to the 16-bit rescue; see
// align8.
func (p *pipeline) align16(mch vek.Machine, s *core.Scratch, b *seqio.Batch) (core.BatchResult, error) {
	br, err := p.tryAlign16(mch, s, b)
	for attempt := 0; err != nil && transient(err) && attempt < maxStageRetries; attempt++ {
		if !backoffCtx(p.ctx, attempt) {
			break
		}
		p.met.Retries.Add(1)
		br, err = p.tryAlign16(mch, s, b)
	}
	return br, err
}

// tryAlign16 is one guarded 16-bit attempt; see tryAlign8.
func (p *pipeline) tryAlign16(mch vek.Machine, s *core.Scratch, b *seqio.Batch) (br core.BatchResult, err error) {
	defer recoverAttempt("align16", p.met, &err)
	if err = failpoint.Inject("sched/align16"); err != nil {
		return br, err
	}
	return core.AlignBatch16(mch, p.query, p.tables, b,
		core.BatchOptions{Gaps: p.opt.Gaps, Scratch: s, Backend: p.opt.backend(), Kernel: p.kern})
}

// run32 is the final escalation tier: one 32-bit pair alignment per
// still-saturated sequence, parallel across the pool. Cancellation
// point 4: canceled escalations are skipped the same way.
//
//sw:hotpath
func (p *pipeline) run32(mch vek.Machine, s *core.Scratch, si int, enc []uint8) []uint8 {
	if p.ctx.Err() != nil {
		return enc
	}
	start := time.Now()
	enc = p.alpha.EncodeTo(enc, p.db[si].Residues)
	pr, err := p.align32(mch, s, enc)
	if err != nil {
		p.quarantineSeq("align32", si, err)
		return enc
	}
	p.met.Pairs32.Add(1)
	p.met.Cells32.Add(int64(len(p.query)) * int64(len(enc)))
	// Escalation pairs always run the diagonal kernel (score + position
	// exactness matters more than throughput at this tier), so their
	// cells count against the diagonal family regardless of the plan.
	tallyKernel(p.met, core.KernelDiagonal, 0, int64(len(p.query))*int64(len(enc)))
	p.res.Hits[si].Score = pr.Score
	p.res.Hits[si].Rescued = true
	p.met.Stage32Nanos.Add(int64(time.Since(start)))
	return enc
}

// align32 applies the stage retry policy to one 32-bit escalation; see
// align8.
func (p *pipeline) align32(mch vek.Machine, s *core.Scratch, enc []uint8) (aln.ScoreResult, error) {
	pr, err := p.tryAlign32(mch, s, enc)
	for attempt := 0; err != nil && transient(err) && attempt < maxStageRetries; attempt++ {
		if !backoffCtx(p.ctx, attempt) {
			break
		}
		p.met.Retries.Add(1)
		pr, err = p.tryAlign32(mch, s, enc)
	}
	return pr, err
}

// tryAlign32 is one guarded 32-bit attempt; see tryAlign8.
func (p *pipeline) tryAlign32(mch vek.Machine, s *core.Scratch, enc []uint8) (pr aln.ScoreResult, err error) {
	defer recoverAttempt("align32", p.met, &err)
	if err = failpoint.Inject("sched/align32"); err != nil {
		return pr, err
	}
	return core.AlignPair32(mch, p.query, enc, p.mat,
		core.PairOptions{Gaps: p.opt.Gaps, Scratch: s, Backend: p.opt.backend()})
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

// quarantineSeq records one sequence a stage failed on; the search
// continues without it.
func (p *pipeline) quarantineSeq(stage string, si int, cause error) {
	p.met.Quarantined.Add(1)
	p.mu.Lock()
	//swlint:ignore hotpathalloc quarantine is the cold path: a stage already failed and exhausted its retries
	p.res.Quarantined = append(p.res.Quarantined, Quarantine{
		SeqIndex: si,
		ID:       p.db[si].ID,
		Stage:    stage,
		Cause:    cause.Error(),
	})
	p.mu.Unlock()
}

// quarantineBatch quarantines every member of a failed batch.
func (p *pipeline) quarantineBatch(stage string, b *seqio.Batch, cause error) {
	for lane := 0; lane < b.Count; lane++ {
		p.quarantineSeq(stage, b.Index[lane], cause)
	}
}

// guard is the last-resort recovery for the pipeline goroutines: a
// panic that reaches it escaped the per-batch recovery, which means a
// scheduler bug rather than a kernel fault. The pipeline cannot heal
// around a dead coordinator, so the crash fails the search — but
// cleanly: the error is recorded, the dataflow is canceled, and every
// goroutine still unwinds through its deferred close sequence instead
// of deadlocking the pool.
func (p *pipeline) guard(stage string) {
	r := recover()
	if r == nil {
		return
	}
	p.crash(&panicError{stage: stage, val: r})
}

// crash records a fatal pipeline error, cancels the internal context so
// the producer stops, and unblocks every stage send waiting on a dead
// consumer via the crashed channel.
func (p *pipeline) crash(err error) {
	p.fail(err)
	p.crashOnce.Do(func() {
		p.cancel()
		close(p.crashed)
	})
}

func (p *pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// panicError wraps a recovered panic value as an error so it can ride
// the normal failure paths: quarantine causes for stage panics, the
// search error for coordinator crashes.
type panicError struct {
	stage string
	val   any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("sched: panic in %s: %v", e.stage, e.val)
}
