package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"swvec"
	"swvec/internal/core"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// alignOp is one timed Align call.
type alignOp struct {
	pair    int
	latency time.Duration
	a       *swvec.Alignment
	err     error
}

// runAlign is usage scenario 3, SW as a library subroutine with
// traceback: nproc callers share one aligner and call Aligner.Align on
// seeded homologous pairs. With rec set it also runs the layer replays.
func runAlign(ctx context.Context, e *env, rec *recorder, dur time.Duration, setups int) (*pass, error) {
	in := makeAlignInputs(e.seed)
	p := newPass("align")
	var (
		qs, ts []swvec.Sequence
		al     *swvec.Aligner
		times  []float64
	)
	for r := 0; r < setups; r++ {
		sp := rec.begin("align.setup", 0, -1)
		t0 := time.Now()
		var err error
		if qs, err = decode(in.queries); err != nil {
			return nil, fmt.Errorf("align: decode queries: %w", err)
		}
		if ts, err = decode(in.targets); err != nil {
			return nil, fmt.Errorf("align: decode targets: %w", err)
		}
		wq, err := decode(in.warmQ)
		if err != nil {
			return nil, fmt.Errorf("align: decode warm-up: %w", err)
		}
		wt, err := decode(in.warmT)
		if err != nil {
			return nil, fmt.Errorf("align: decode warm-up: %w", err)
		}
		if al, err = swvec.New(); err != nil {
			return nil, err
		}
		for i := range wq {
			ws := rec.begin("align.warmup", sp.ID(), int64(i))
			_, err := al.Align(wq[i].Residues, wt[i].Residues)
			ws.end()
			if err != nil {
				return nil, fmt.Errorf("align: warm-up: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		sp.end()
	}
	p.e2e["setup_s"] = value{V: median(times), N: len(times)}

	var (
		next atomic.Int64
		mu   sync.Mutex
		ops  []alignOp
		wg   sync.WaitGroup
	)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPU()
	announce("align")
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []alignOp
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := next.Add(1) - 1
				pi := int(k % int64(len(qs)))
				sp := rec.begin("align.align", 0, k)
				t := time.Now()
				a, err := al.Align(qs[pi].Residues, ts[pi].Residues)
				lat := time.Since(t)
				sp.end()
				rec.count("align.cells", float64(qs[pi].Len()*ts[pi].Len()))
				mine = append(mine, alignOp{pair: pi, latency: lat, a: a, err: err})
			}
			mu.Lock()
			ops = append(ops, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu1 := readCPU()
	runtime.ReadMemStats(&m1)
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("align: no alignment finished in %s", dur)
	}

	// Checks: Align's score equals Score's, and equals the CIGAR
	// replayed over the pair.
	ref := map[int]int32{}
	var cells float64
	var ms []float64
	failed := 0
	for i, op := range ops {
		err := op.err
		if err == nil {
			want, ok := ref[op.pair]
			if !ok {
				if want, err = al.Score(qs[op.pair].Residues, ts[op.pair].Residues); err == nil {
					ref[op.pair] = want
				}
			}
			if err == nil {
				err = checkAlignment(op.a, qs[op.pair].Residues, ts[op.pair].Residues, want)
			}
		}
		if err != nil {
			failed++
			p.problem("align op %d (%s): %v", i, qs[op.pair].ID, err)
			continue
		}
		cells += float64(qs[op.pair].Len() * ts[op.pair].Len())
		ms = append(ms, float64(op.latency)/1e6)
	}
	n := len(ops)
	p.attempted, p.failed = n, failed
	p.e2e["gcups"] = value{V: cells / wall.Seconds() / 1e9, N: n}
	p.e2e["ops_per_s"] = value{V: float64(n-failed) / wall.Seconds(), N: n}
	p.latencyMetrics(ms, failed, float64(dur)/1e6)
	p.e2e["alloc_kb_per_op"] = value{V: float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), N: n}
	p.e2e["peak_rss_mb"] = value{V: peakRSSMiB(os.Getpid()), N: 1}
	p.e2e["ok_frac"] = value{V: 1 - float64(failed)/float64(n), N: n}
	p.note("align: %d alignments of %d distinct pairs by %d callers", n, len(qs), e.nproc)
	p.note("align: latency %s", percentiles(ms))
	p.note("align: cpu steal %.2f%% of the timed phase", 100*cpu1.stealSince(cpu0))

	if rec != nil {
		alignLayers(ctx, p, rec, qs, ts)
	}
	return p, nil
}

// alignLayerPairs is how many of the replayed pairs the layer replays
// use; the list order spreads any prefix over the length range.
const alignLayerPairs = 32

// alignLayers replays the pair kernels and traceback on align's pairs:
// the modeled 16-bit kernel with traceback that Align runs today, the
// Walk over its trace matrix, and the native score-only kernel.
func alignLayers(ctx context.Context, p *pass, rec *recorder, qs, ts []swvec.Sequence) {
	mat := submat.Blosum62()
	alpha := mat.Alphabet()
	gaps := swvec.DefaultGaps()
	var cells, traceS, scoreS, walkS, traceBytes, cigarOps float64
	n := 0
	for i := 0; i < alignLayerPairs && i < len(qs) && ctx.Err() == nil; i++ {
		q, d := alpha.Encode(qs[i].Residues), alpha.Encode(ts[i].Residues)
		sp := rec.begin("kernel.pair16_trace", 0, int64(i))
		t := time.Now()
		res, tb, err := core.AlignPair16(vek.Bare, q, d, mat, core.PairOptions{Gaps: gaps, Traceback: true})
		traceS += time.Since(t).Seconds()
		sp.end()
		if err != nil {
			p.problem("kernel.pair16 replay: %v", err)
			return
		}
		sp = rec.begin("aln.walk", 0, int64(i))
		t = time.Now()
		a, err := tb.Walk(res.EndQ, res.EndD, res.Score)
		walkS += time.Since(t).Seconds()
		sp.end()
		if err != nil {
			p.problem("aln.walk replay: %v", err)
			return
		}
		traceBytes += float64(tb.Bytes())
		rec.count("aln.trace_bytes", float64(tb.Bytes()))
		cigarOps += float64(len(a.Cigar))
		// The score-only kernel is ~10x faster; three calls per pair
		// keep its timing above clock noise.
		for r := 0; r < 3; r++ {
			sp = rec.begin("kernel.pair_score", 0, int64(i))
			t = time.Now()
			_, _, err = core.AlignPairAdaptive(vek.Bare, q, d, mat, core.PairOptions{Gaps: gaps, Backend: core.BackendNative})
			scoreS += time.Since(t).Seconds() / 3
			sp.end()
			if err != nil {
				p.problem("kernel.pair_score replay: %v", err)
				return
			}
		}
		cells += float64(len(q) * len(d))
		n++
	}
	fn := float64(n)
	p.layers["kernel.trace_gcups"] = value{V: ratio(cells, traceS) / 1e9, N: n, Note: "AlignPair16 with traceback"}
	p.layers["kernel.score_gcups"] = value{V: ratio(cells, scoreS) / 1e9, N: n, Note: "AlignPairAdaptive, native"}
	p.layers["aln.walk_us"] = value{V: ratio(walkS*1e6, fn), N: n}
	p.layers["aln.trace_kb_per_op"] = value{V: ratio(traceBytes/1024, fn), N: n}
	p.layers["aln.cigar_ops"] = value{V: ratio(cigarOps, fn), N: n}
}
