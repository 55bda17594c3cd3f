package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"swvec"
	"swvec/internal/core"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// scanOp is what one timed search leaves for the checks and metrics.
type scanOp struct {
	query   int
	latency time.Duration
	err     error
	res     *swvec.SearchResult
	top     [2]int  // database indices of the two best hits
	sample  []int   // database indices whose scores are checked
	scores  []int32 // their scores
}

// scanSamples is how many scores per search are checked against the
// scalar reference.
const scanSamples = 3

// runScan is usage scenario 1: one caller searches the database one
// query at a time through Aligner.SearchContext, configured as swalign
// configures it. With rec set it also runs the layer replays.
func runScan(ctx context.Context, e *env, rec *recorder, dur time.Duration, setups int) (*pass, error) {
	in := makeScanInputs(e.seed)
	p := newPass("scan")
	var (
		db, qs []swvec.Sequence
		al     *swvec.Aligner
		times  []float64
	)
	for r := 0; r < setups; r++ {
		sp := rec.begin("scan.setup", 0, -1)
		t0 := time.Now()
		var err error
		if db, err = decode(in.db); err != nil {
			return nil, fmt.Errorf("scan: decode database: %w", err)
		}
		if qs, err = decode(in.queries); err != nil {
			return nil, fmt.Errorf("scan: decode queries: %w", err)
		}
		warm, err := decode(in.warm)
		if err != nil {
			return nil, fmt.Errorf("scan: decode warm-up: %w", err)
		}
		if al, err = swvec.New(swvec.WithThreads(e.nproc), swvec.WithLengthSortedBatches()); err != nil {
			return nil, err
		}
		for i, w := range warm {
			ws := rec.begin("scan.warmup", sp.ID(), int64(i))
			_, err := al.SearchContext(ctx, w.Residues, db)
			ws.end()
			if err != nil {
				return nil, fmt.Errorf("scan: warm-up search: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		sp.end()
	}
	p.e2e["setup_s"] = value{V: median(times), N: len(times)}

	rng := rngFor(e.seed, 11)
	var ops []scanOp
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPU()
	announce("scan")
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		qi := i % len(qs)
		sp := rec.begin("scan.search", 0, int64(i))
		t := time.Now()
		res, err := al.SearchContext(ctx, qs[qi].Residues, db)
		lat := time.Since(t)
		sp.end()
		op := scanOp{query: qi, latency: lat, err: err, res: res}
		if err == nil {
			rec.count("scan.cells", float64(res.Cells))
			rec.count("scan.rescued", float64(res.Rescued))
			top := res.TopHits(2)
			for k := range top {
				op.top[k] = top[k].SeqIndex
			}
			for k := 0; k < scanSamples; k++ {
				si := rng.Intn(len(db))
				op.sample = append(op.sample, si)
				op.scores = append(op.scores, res.Hits[si].Score)
			}
			// Keep only what the metrics need: the hit list is the
			// largest part of a result.
			res.Hits = nil
		}
		ops = append(ops, op)
	}
	wall := time.Since(start)
	cpu1 := readCPU()
	runtime.ReadMemStats(&m1)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("scan: no search finished in %s", dur)
	}

	bad := checkScan(p, in.planted, db, qs, ops)
	var cells int64
	var ms []float64
	kernels := map[string]int{}
	lanes, failed := 0, 0
	for i, op := range ops {
		if bad[i] {
			failed++
			continue
		}
		cells += op.res.Cells
		ms = append(ms, float64(op.latency)/1e6)
		kernels[op.res.Kernel.String()]++
		lanes = batchLanes(len(db), op.res.Stats.BatchesProduced)
	}
	n := len(ops)
	p.attempted, p.failed = n, failed
	p.e2e["gcups"] = value{V: float64(cells) / wall.Seconds() / 1e9, N: n}
	p.e2e["ops_per_s"] = value{V: float64(n-failed) / wall.Seconds(), N: n}
	p.latencyMetrics(ms, failed, float64(dur)/1e6)
	p.e2e["alloc_kb_per_op"] = value{V: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), N: n}
	p.e2e["peak_rss_mb"] = value{V: peakRSSMiB(os.Getpid()), N: 1}
	p.e2e["ok_frac"] = value{V: 1 - float64(failed)/float64(n), N: n}
	p.note("scan: %d searches of %d distinct queries against %d sequences (%d residues), threads=%d",
		n, len(qs), len(db), swvec.TotalResidues(db), e.nproc)
	p.note("scan: resolved width=%d bits, kernel per search %v", lanes*8, kernels)
	p.note("scan: cpu steal %.2f%% of the timed phase", 100*cpu1.stealSince(cpu0))

	if rec != nil {
		kern := ops[0].res.Kernel
		scanSchedLayers(p, ops, len(db), e.nproc)
		scanKernelLayers(ctx, p, rec, db, qs, lanes, kern)
	}
	return p, nil
}

// batchLanes infers the batch lane count (the resolved vector width
// over 8) from how many batches a full search produced.
func batchLanes(dbLen int, produced int64) int {
	for _, lanes := range []int{seqio.BatchLanes, seqio.MaxBatchLanes} {
		if int64((dbLen+lanes-1)/lanes) == produced {
			return lanes
		}
	}
	return 0
}

// scanSchedLayers derives the pipeline's per-layer numbers from each
// search's Result.Stats.
func scanSchedLayers(p *pass, ops []scanOp, dbLen, threads int) {
	var n, produce, s8, s16, busy, wall, rescued, pairs32, hw, retries float64
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		st := op.res.Stats
		n++
		produce += float64(st.ProduceNanos) / 1e9
		s8 += float64(st.Stage8Nanos) / 1e9
		s16 += float64(st.Stage16Nanos) / 1e9
		busy += float64(st.Stage8Nanos+st.Stage16Nanos+st.Stage32Nanos) / 1e9
		wall += op.res.Elapsed.Seconds()
		rescued += float64(st.Saturated8)
		pairs32 += float64(st.Pairs32)
		hw += float64(st.QueueHighWater)
		retries += float64(st.Retries)
	}
	c := int(n)
	p.layers["sched.produce_s"] = value{V: ratio(produce, n), N: c, Note: "per search"}
	p.layers["sched.stage8_s"] = value{V: ratio(s8, n), N: c, Note: "per search, summed over workers"}
	p.layers["sched.stage16_s"] = value{V: ratio(s16, n), N: c, Note: "per search, summed over workers"}
	p.layers["sched.busy_frac"] = value{V: ratio(busy, float64(threads)*wall), N: c, Note: "stage time / (threads x search wall)"}
	p.layers["sched.rescued"] = value{V: ratio(rescued, n), N: c, Note: "per search"}
	p.layers["sched.pairs32"] = value{V: ratio(pairs32, n), N: c, Note: "per search"}
	p.layers["sched.queue_high_water"] = value{V: ratio(hw, n), N: c, Note: "mean per search"}
	p.layers["sched.retries"] = value{V: ratio(retries, n), N: c, Note: "per search"}
	p.layers["kernel.sat8_frac"] = value{V: ratio(rescued, n*float64(dbLen)), N: c, Note: "saturated lanes / real lanes"}
}

// scanKernelLayers replays the kernel and producer layers on scan's
// own batches: the batch engines with the resolved kernel and width on
// the native backend with a warm Scratch on one goroutine, and the
// streaming batch producer.
func scanKernelLayers(ctx context.Context, p *pass, rec *recorder, db, qs []swvec.Sequence, lanes int, kern core.Kernel) {
	mat := submat.Blosum62()
	alpha := mat.Alphabet()
	tables := submat.NewCodeTables(mat)
	bopt := seqio.BatchOptions{SortByLength: true, Lanes: lanes}
	batches := seqio.BuildBatches(db, alpha, bopt)
	opt := core.BatchOptions{Gaps: swvec.DefaultGaps(), Scratch: core.NewScratch(), Backend: core.BackendNative, Kernel: kern}

	var real, padded float64
	for _, b := range batches {
		for l := 0; l < b.Count; l++ {
			real += float64(b.Lens[l])
		}
		padded += float64(b.MaxLen * b.Stride())
	}
	p.layers["kernel.pad_frac"] = value{V: 1 - real/padded, N: len(batches), Note: "batches"}

	// Four queries spread over the length range, each over every batch.
	// The first call warms the scratch and is not timed.
	sample := qs
	if len(sample) > 4 {
		sample = sample[:4]
	}
	var cells8, secs8, cells16, secs16 float64
	rescue := map[int][]int{}
	calls8 := 0
	for qi, q := range sample {
		enc := alpha.Encode(q.Residues)
		for bi, b := range batches {
			sp := rec.begin("kernel.batch8", 0, int64(bi))
			t := time.Now()
			br, err := core.AlignBatch8(vek.Bare, enc, tables, b, opt)
			d := time.Since(t)
			sp.end()
			if err != nil {
				p.problem("kernel.batch8 replay: %v", err)
				return
			}
			for l := 0; l < b.Count; l++ {
				if br.Saturated[l] {
					rescue[qi] = append(rescue[qi], b.Index[l])
				}
			}
			if qi == 0 && bi == 0 {
				continue
			}
			cells8 += float64(b.Cells(len(enc)))
			secs8 += d.Seconds()
			calls8++
			rec.count("kernel.batch8.cells", float64(b.Cells(len(enc))))
		}
	}
	p.layers["kernel.batch8_gcups"] = value{V: ratio(cells8, secs8) / 1e9, N: calls8, Note: "AlignBatch8 calls"}

	calls := 0
	for qi, q := range sample {
		members := rescue[qi]
		if len(members) == 0 {
			continue
		}
		enc := alpha.Encode(q.Residues)
		if len(members) > lanes {
			members = members[:lanes]
		}
		b := seqio.MakeBatch(db, members, alpha, lanes)
		for r := 0; r < 6; r++ {
			sp := rec.begin("kernel.batch16", 0, int64(r))
			t := time.Now()
			_, err := core.AlignBatch16(vek.Bare, enc, tables, b, opt)
			d := time.Since(t)
			sp.end()
			if err != nil {
				p.problem("kernel.batch16 replay: %v", err)
				return
			}
			if r == 0 {
				continue // warms the 16-bit scratch
			}
			cells16 += float64(b.Cells(len(enc)))
			secs16 += d.Seconds()
			calls++
		}
	}
	p.layers["kernel.batch16_gcups"] = value{V: ratio(cells16, secs16) / 1e9, N: calls, Note: "AlignBatch16 calls on rescue batches"}

	// The producer: stream the whole database, recycling each batch as
	// the pipeline's workers do.
	var perResidue []float64
	residues := float64(swvec.TotalResidues(db))
	for r := 0; r < 9 && ctx.Err() == nil; r++ {
		sp := rec.begin("seqio.stream", 0, int64(r))
		t := time.Now()
		s := seqio.NewBatchStream(db, alpha, bopt)
		for b := s.Next(); b != nil; b = s.Next() {
			s.Recycle(b)
		}
		perResidue = append(perResidue, float64(time.Since(t).Nanoseconds())/residues)
		sp.end()
	}
	p.layers["seqio.stream_ns_per_residue"] = value{V: median(perResidue), N: len(perResidue), Note: "median of full-database streams"}
}
