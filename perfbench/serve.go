package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/core"
	"swvec/internal/metrics"
	"swvec/internal/seqio"
	"swvec/internal/stats"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// The serve workload's fixed load: an open loop at serveRate requests
// per second, with replies later than serveLimit counted as failed.
// BENCHMARK.json states both.
const (
	serveRate     = 7.5
	serveLimit    = 1000 * time.Millisecond
	serveTop      = 5
	serveSlices   = 2
	serveReplicas = 2
	readyTimeout  = 30 * time.Second
)

// serveFleet is one running cluster: swserver shards listed
// replica-major (as swrouter -shards takes them) and the router.
type serveFleet struct {
	shards []*shardProc
	router *proc
	addr   string // router listen address
	admin  string // router admin address
	groups [][]string
}

type shardProc struct {
	p           *proc
	addr, admin string
	batches     *batchLog
}

// batchLine is one swserver "event=batch" log line.
type batchLine struct {
	at        time.Time
	queries   int
	elapsedMs float64
}

type batchLog struct {
	mu    sync.Mutex
	lines []batchLine
}

var (
	listenRE = regexp.MustCompile(`event=listen addr=(\S+)`)
	batchRE  = regexp.MustCompile(`event=batch queries=(\d+) .*elapsed_ms=([0-9.]+)`)
)

func (l *batchLog) add(line string) {
	m := batchRE.FindStringSubmatch(line)
	if m == nil {
		return
	}
	q, _ := strconv.Atoi(m[1])
	ms, _ := strconv.ParseFloat(m[2], 64)
	l.mu.Lock()
	l.lines = append(l.lines, batchLine{at: time.Now(), queries: q, elapsedMs: ms})
	l.mu.Unlock()
}

// between returns the lines logged in [a, b].
func (l *batchLog) between(a, b time.Time) []batchLine {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []batchLine
	for _, x := range l.lines {
		if !x.at.Before(a) && !x.at.After(b) {
			out = append(out, x)
		}
	}
	return out
}

// reservePort picks a free loopback port for an admin listener. The
// router logs the admin address it was given rather than the one it
// bound, so port 0 could not be discovered.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startProc starts one process and waits for its listen announcement.
func startProc(ctx context.Context, e *env, name, bin string, args []string, also func(string)) (*proc, string, error) {
	addrCh := make(chan string, 1)
	p, err := e.fleet.start(name, bin, args, func(line string) {
		if m := listenRE.FindStringSubmatch(line); m != nil {
			select {
			case addrCh <- m[1]:
			default:
			}
		}
		if also != nil {
			also(line)
		}
	})
	if err != nil {
		return nil, "", err
	}
	t := time.NewTimer(readyTimeout)
	defer t.Stop()
	select {
	case addr := <-addrCh:
		return p, addr, nil
	case <-p.done:
		return p, "", fmt.Errorf("%s exited before listening: %v", name, p.err)
	case <-t.C:
		return p, "", fmt.Errorf("%s did not listen within %s", name, readyTimeout)
	case <-ctx.Done():
		return p, "", ctx.Err()
	}
}

// startServeFleet launches the shards, then the router in front of
// them, and waits until every process listens and the router's admin
// endpoint answers. Every process is the benchmark's own child.
func startServeFleet(ctx context.Context, e *env, dbPath string) (*serveFleet, error) {
	fl := &serveFleet{}
	var addrs []string
	for r := 0; r < serveReplicas; r++ {
		for s := 0; s < serveSlices; s++ {
			admin, err := reservePort()
			if err != nil {
				return fl, err
			}
			sp := &shardProc{admin: admin, batches: &batchLog{}}
			args := []string{"-listen", "127.0.0.1:0", "-db", dbPath,
				"-shard-index", strconv.Itoa(s), "-shard-count", strconv.Itoa(serveSlices),
				"-threads", "1", "-admin", admin}
			p, addr, err := startProc(ctx, e, fmt.Sprintf("swserver[%d.%d]", s, r), filepath.Join(e.bin, "swserver"), args, sp.batches.add)
			if p != nil {
				sp.p = p
				fl.shards = append(fl.shards, sp)
			}
			if err != nil {
				return fl, err
			}
			sp.addr = addr
			addrs = append(addrs, addr)
		}
	}
	groups, err := cluster.GroupReplicas(addrs, serveReplicas)
	if err != nil {
		return fl, err
	}
	fl.groups = groups
	if fl.admin, err = reservePort(); err != nil {
		return fl, err
	}
	args := []string{"-listen", "127.0.0.1:0", "-db", dbPath, "-shards", strings.Join(addrs, ","),
		"-replicas", strconv.Itoa(serveReplicas), "-admin", fl.admin}
	p, addr, err := startProc(ctx, e, "swrouter", filepath.Join(e.bin, "swrouter"), args, nil)
	fl.router = p
	if err != nil {
		return fl, err
	}
	fl.addr = addr
	deadline := time.Now().Add(readyTimeout)
	for {
		var snap cluster.Snapshot
		if getJSON(fl.admin, "/debug/cluster", &snap) == nil {
			return fl, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fl, fmt.Errorf("router admin %s not ready", fl.admin)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// procs lists every process of the fleet.
func (fl *serveFleet) procs() []*proc {
	var out []*proc
	if fl.router != nil {
		out = append(out, fl.router)
	}
	for _, s := range fl.shards {
		out = append(out, s.p)
	}
	return out
}

var adminClient = &http.Client{Timeout: 5 * time.Second}

// getJSON fetches http://addr/path into v.
func getJSON(addr, path string, v any) error {
	resp, err := adminClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// debugVars is the part of /debug/vars the benchmark reads.
type debugVars struct {
	Memstats struct {
		TotalAlloc uint64
	} `json:"memstats"`
	Search metrics.Snapshot `json:"swvec.search"`
}

// fleetVars scrapes /debug/vars of every shard and the router.
type fleetVars struct {
	router  debugVars
	shards  []debugVars
	cluster cluster.Snapshot
}

func scrapeFleet(fl *serveFleet) (fleetVars, error) {
	var v fleetVars
	if err := getJSON(fl.admin, "/debug/vars", &v.router); err != nil {
		return v, err
	}
	if err := getJSON(fl.admin, "/debug/cluster", &v.cluster); err != nil {
		return v, err
	}
	for _, s := range fl.shards {
		var d debugVars
		if err := getJSON(s.admin, "/debug/vars", &d); err != nil {
			return v, err
		}
		v.shards = append(v.shards, d)
	}
	return v, nil
}

// serveReference answers every query as a single-node search of the
// whole database would: sched.TopK over the full hit list.
func serveReference(e *env, db []swvec.Sequence, qs []seqio.Sequence) (map[string][]cluster.Hit, error) {
	al, err := swvec.New(swvec.WithThreads(e.nproc), swvec.WithLengthSortedBatches())
	if err != nil {
		return nil, err
	}
	ref := map[string][]cluster.Hit{}
	for _, q := range qs {
		res, err := al.Search(q.Residues, db)
		if err != nil {
			return nil, err
		}
		var hits []cluster.Hit
		for _, h := range res.TopHits(serveTop) {
			hits = append(hits, cluster.Hit{SeqID: db[h.SeqIndex].ID, Score: h.Score})
		}
		ref[q.ID] = hits
	}
	return ref, nil
}

// reply is one request's outcome in an open-loop phase.
type reply struct {
	due, done time.Time
	resp      wireResponse
	got       bool
	err       error
}

// openPhase drives an open loop of n requests at serveRate and returns
// each request's outcome, the generator's lateness and the start time.
// send issues request i and must call finish(resp, at, err) exactly
// once, from any goroutine.
func openPhase(ctx context.Context, seed int64, stream int64, n int,
	send func(i int, req cluster.Request, finish func(wireResponse, time.Time, error))) ([]reply, []time.Duration, time.Time) {
	offsets := poissonSchedule(rngFor(seed, stream), serveRate, n)
	out := make([]reply, n)
	var mu sync.Mutex
	left := n
	done := make(chan struct{})
	start := time.Now()
	late := openLoop(ctx, start, offsets, func(i int, due time.Time) {
		mu.Lock()
		out[i].due = due
		mu.Unlock()
		send(i, cluster.Request{ID: "op" + strconv.Itoa(i), Top: serveTop}, func(resp wireResponse, at time.Time, err error) {
			mu.Lock()
			defer mu.Unlock()
			if out[i].got {
				return
			}
			out[i] = reply{due: out[i].due, done: at, resp: resp, got: true, err: err}
			left--
			if left == 0 {
				close(done)
			}
		})
	})
	// Replies later than twice the limit count as missing.
	wait := time.NewTimer(time.Until(start.Add(offsets[n-1] + 2*serveLimit)))
	defer wait.Stop()
	select {
	case <-done:
	case <-wait.C:
	case <-ctx.Done():
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]reply(nil), out...), late, start
}

// wirePhase runs openPhase over nproc pipelined connections to addr,
// cycling through qs, with a span named name from each send to its
// reply.
func wirePhase(ctx context.Context, e *env, rec *recorder, addr string, stream int64, n int,
	qs []seqio.Sequence, name string) ([]reply, []time.Duration, time.Time, error) {
	var mu sync.Mutex
	finishers := map[string]func(wireResponse, time.Time, error){}
	cl, err := dialWire(addr, e.nproc, func(id string, resp wireResponse, at time.Time) {
		mu.Lock()
		f := finishers[id]
		delete(finishers, id)
		mu.Unlock()
		if f != nil {
			f(resp, at, nil)
		}
	})
	if err != nil {
		return nil, nil, time.Time{}, err
	}
	defer cl.close()
	out, late, start := openPhase(ctx, e.seed, stream, n, func(i int, req cluster.Request, finish func(wireResponse, time.Time, error)) {
		req.Residues = string(qs[i%len(qs)].Residues)
		sent := time.Now()
		mu.Lock()
		finishers[req.ID] = func(resp wireResponse, at time.Time, err error) {
			rec.add(span{Op: int64(i), Name: name, Start: rec.at(sent), End: rec.at(at)})
			if resp.Shards != nil {
				rec.count(name+".shards_degraded", float64(len(resp.Shards.Degraded)))
				rec.count(name+".shards_skipped", float64(len(resp.Shards.Skipped)))
			}
			finish(resp, at, err)
		}
		mu.Unlock()
		if err := cl.send(req); err != nil {
			mu.Lock()
			delete(finishers, req.ID)
			mu.Unlock()
			finish(wireResponse{}, time.Now(), err)
		}
	})
	return out, late, start, nil
}

// scoreReplies applies the serve checks to an open-loop phase: each
// reply must arrive within serveLimit, carry no error, not be partial,
// and equal want. It returns the successful latencies in ms, which
// requests succeeded, and the failure count.
func scoreReplies(p *pass, phase string, out []reply, qs []seqio.Sequence, want map[string][]cluster.Hit) ([]float64, []bool, int) {
	var ms []float64
	ok := make([]bool, len(out))
	failed := 0
	for i, r := range out {
		q := qs[i%len(qs)]
		var err error
		switch {
		case !r.got:
			err = fmt.Errorf("no reply")
		case r.err != nil:
			err = r.err
		default:
			err = checkServeResponse(r.resp, want[q.ID])
		}
		lat := r.done.Sub(r.due)
		if err == nil && lat > serveLimit {
			// Late but correct: a failure, not a wrong answer.
			failed++
			continue
		}
		if err != nil {
			failed++
			p.problem("%s request %d (%s): %v", phase, i, q.ID, err)
			continue
		}
		ms = append(ms, float64(lat)/1e6)
		ok[i] = true
	}
	return ms, ok, failed
}

// runServe is usage scenario 2 behind the cluster: independent users
// reach swrouter over an open loop; four swserver shards (2 slices × 2
// replicas, -threads 1) serve it. With rec set it also runs the layer
// phases after the timed traffic.
func runServe(ctx context.Context, e *env, rec *recorder, dur time.Duration, setups int) (*pass, error) {
	in := makeServeInputs(e.seed)
	p := newPass("serve")
	dbPath := filepath.Join(e.work, "serve-db.fasta")
	if err := os.WriteFile(dbPath, in.db, 0o644); err != nil {
		return nil, err
	}
	refDB, err := decode(in.db)
	if err != nil {
		return nil, err
	}
	want, err := serveReference(e, refDB, in.queries)
	if err != nil {
		return nil, fmt.Errorf("serve: reference: %w", err)
	}

	var fl *serveFleet
	var times []float64
	for r := 0; r < setups; r++ {
		if fl != nil {
			stopProcs(fl.procs())
		}
		sp := rec.begin("serve.setup", 0, -1)
		t0 := time.Now()
		fl, err = startServeFleet(ctx, e, dbPath)
		if err != nil {
			return nil, fmt.Errorf("serve: start fleet: %w", err)
		}
		for i, w := range in.warm {
			ws := rec.begin("serve.warmup", sp.ID(), int64(i))
			resp, err := exchange(fl.addr, cluster.Request{ID: w.ID, Residues: string(w.Residues), Top: serveTop}, readyTimeout)
			ws.end()
			if err == nil && (resp.Error != "" || resp.Partial) {
				err = fmt.Errorf("error %q partial=%t", resp.Error, resp.Partial)
			}
			if err != nil {
				return nil, fmt.Errorf("serve: warm-up request: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
		sp.end()
	}
	p.e2e["setup_s"] = value{V: median(times), N: len(times)}

	// The timed phase: router traffic only.
	n := int(math.Round(serveRate * dur.Seconds()))
	vars0, err := scrapeFleet(fl)
	if err != nil {
		return nil, fmt.Errorf("serve: scrape: %w", err)
	}
	cpu0 := readCPU()
	announce("serve")
	out, late, start, err := wirePhase(ctx, e, rec, fl.addr, 21, n, in.queries, "serve.rtt")
	if err != nil {
		return nil, err
	}
	end := start
	for _, r := range out {
		if r.got && r.done.After(end) {
			end = r.done
		}
	}
	cpu1 := readCPU()
	vars1, err := scrapeFleet(fl)
	if err != nil {
		return nil, fmt.Errorf("serve: scrape: %w", err)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	ms, ok, failed := scoreReplies(p, "router", out, in.queries, want)
	window := end.Sub(start).Seconds()
	if min := dur.Seconds(); window < min {
		window = min
	}
	residues := float64(swvec.TotalResidues(refDB))
	var cells float64
	degraded := 0
	for i, r := range out {
		if ok[i] {
			cells += float64(in.queries[i%len(in.queries)].Len()) * residues
		}
		if r.got && r.resp.Shards != nil && len(r.resp.Shards.Degraded) > 0 {
			degraded++
		}
	}
	var alloc float64
	alloc += float64(vars1.router.Memstats.TotalAlloc - vars0.router.Memstats.TotalAlloc)
	for i := range vars1.shards {
		alloc += float64(vars1.shards[i].Memstats.TotalAlloc - vars0.shards[i].Memstats.TotalAlloc)
	}
	var rss float64
	for _, pr := range fl.procs() {
		rss += peakRSSMiB(pr.pid)
	}
	p.attempted, p.failed = n, failed
	p.e2e["gcups"] = value{V: cells / window / 1e9, N: len(ms), Note: "delivered cells"}
	p.e2e["ops_per_s"] = value{V: float64(len(ms)) / window, N: n}
	p.latencyMetrics(ms, failed, float64(serveLimit)/1e6)
	p.e2e["alloc_kb_per_op"] = value{V: alloc / 1024 / float64(n), N: n, Note: "router + shards"}
	p.e2e["peak_rss_mb"] = value{V: rss, N: len(fl.procs()), Note: "router + shards"}
	p.e2e["ok_frac"] = value{V: 1 - float64(failed)/float64(n), N: n}

	var batches []batchLine
	for _, s := range fl.shards {
		batches = append(batches, s.batches.between(start, end)...)
	}
	var fills []float64
	for _, b := range batches {
		fills = append(fills, float64(b.queries))
	}
	lateMs := make([]float64, len(late))
	for i, l := range late {
		lateMs[i] = float64(l) / 1e6
	}
	t := tailPercentile(lateMs, 0, 0)
	p.note("serve: %d requests at %.1f/s over %d connections, limit %s; db %d sequences in %d slices x %d replicas",
		n, serveRate, e.nproc, serveLimit, len(refDB), serveSlices, serveReplicas)
	p.note("serve: batch fill %.2f queries/batch over %d shard batches; %d degraded responses",
		stats.Mean(fills), len(fills), degraded)
	p.note("serve: latency %s", percentiles(ms))
	p.note("serve: generator lateness p50 %.3fms p%.1f %.3fms", median(lateMs), t.P, t.Value)
	p.note("serve: cpu steal %.2f%% of the timed phase", 100*cpu1.stealSince(cpu0))

	if rec != nil {
		timed := serveTimed{v0: vars0, v1: vars1, start: start, end: end, routerMs: ms,
			batches: batches, degraded: degraded, replies: len(out)}
		if err := serveLayers(ctx, e, p, rec, fl, refDB, in.queries, want, timed); err != nil {
			return nil, err
		}
	}
	stopProcs(fl.procs())
	return p, nil
}

// serveTimed is what the timed router phase leaves for the layer
// phases.
type serveTimed struct {
	v0, v1            fleetVars // scrapes before and after
	start, end        time.Time
	routerMs          []float64 // successful router latencies
	batches           []batchLine
	degraded, replies int
}

// layerPhaseSeconds bounds each serve layer phase's traffic.
const layerPhaseSeconds = 8

// serveLayers runs the serve workload's layer phases after its timed
// traffic: the router's counters over the timed phase, traffic sent
// straight to one primary shard, the benchmark's own scatter pool
// against the fleet, and in-process replays of the merge, batch build
// and multi-query kernel on one shard slice.
func serveLayers(ctx context.Context, e *env, p *pass, rec *recorder, fl *serveFleet, db []swvec.Sequence,
	qs []seqio.Sequence, want map[string][]cluster.Hit, tm serveTimed) error {
	v0, v1, start, end := tm.v0, tm.v1, tm.start, tm.end
	// Counters over the timed phase.
	var reqs, hedges, wins, retries, failovers, probes float64
	for i, s1 := range v1.cluster.Shards {
		s0 := v0.cluster.Shards[i]
		reqs += float64(s1.Requests - s0.Requests)
		hedges += float64(s1.Hedges - s0.Hedges)
		wins += float64(s1.HedgeWins - s0.HedgeWins)
		retries += float64(s1.Retries - s0.Retries)
		failovers += float64(s1.Failovers - s0.Failovers)
		for k, r1 := range s1.Replicas {
			probes += float64(r1.Probes - s0.Replicas[k].Probes)
		}
	}
	scatters := float64(v1.cluster.Scatters - v0.cluster.Scatters)
	var refused float64
	for i, s1 := range v1.shards {
		s0 := v0.shards[i].Search
		refused += float64(s1.Search.Shed-s0.Shed) + float64(s1.Search.BreakerRejected-s0.BreakerRejected) + float64(s1.Search.Oversized-s0.Oversized)
	}
	var fills, compute []float64
	for _, b := range tm.batches {
		fills = append(fills, float64(b.queries))
		compute = append(compute, b.elapsedMs)
	}
	secs := end.Sub(start).Seconds()
	ns := int(scatters)
	p.layers["cluster.requests_per_scatter"] = value{V: ratio(reqs, scatters), N: ns}
	p.layers["cluster.hedge_frac"] = value{V: ratio(hedges, reqs), N: int(reqs)}
	p.layers["cluster.hedge_win_frac"] = value{V: ratio(wins, hedges), N: int(hedges)}
	p.layers["cluster.retry_frac"] = value{V: ratio(retries, reqs), N: int(reqs)}
	p.layers["cluster.failover_frac"] = value{V: ratio(failovers, reqs), N: int(reqs)}
	p.layers["cluster.degraded_frac"] = value{V: ratio(float64(tm.degraded), float64(tm.replies)), N: tm.replies}
	p.layers["cluster.probes_per_s"] = value{V: ratio(probes, secs), N: int(probes)}
	p.layers["swserver.refused_frac"] = value{V: ratio(refused, reqs), N: int(reqs)}
	p.layers["swserver.batch_fill"] = value{V: stats.Mean(fills), N: len(fills), Note: "queries per shard batch"}
	p.layers["swserver.compute_ms"] = value{V: stats.Mean(compute), N: len(compute), Note: "per shard batch"}

	n := int(math.Round(serveRate * math.Min(layerPhaseSeconds, end.Sub(start).Seconds())))
	if n < 1 {
		n = 1
	}

	// Straight to slice 0's primary, bypassing the router.
	primary := fl.groups[0][0]
	var shard *shardProc
	for _, s := range fl.shards {
		if s.addr == primary {
			shard = s
		}
	}
	mat := submat.Blosum62()
	smap := cluster.NewShardMap(serveSlices)
	slices := make([][]swvec.Sequence, serveSlices)
	sliceWant := make([]map[string][]cluster.Hit, serveSlices)
	for s := range slices {
		slices[s] = smap.Slice(db, s)
		w, err := serveReference(e, slices[s], qs)
		if err != nil {
			return err
		}
		sliceWant[s] = w
	}
	direct, _, dstart, err := wirePhase(ctx, e, rec, primary, 22, n, qs, "swserver.rtt")
	if err != nil {
		return err
	}
	dend := time.Now()
	dms, _, dfailed := scoreReplies(p, "direct", direct, qs, sliceWant[0])
	dt := tailPercentile(dms, dfailed, float64(serveLimit)/1e6)
	var dcompute []float64
	if shard != nil {
		for _, b := range shard.batches.between(dstart, dend) {
			dcompute = append(dcompute, b.elapsedMs)
		}
	}
	p.layers["swserver.rtt_p50_ms"] = value{V: median(dms), N: len(dms)}
	p.layers["swserver.rtt_tail_ms"] = value{V: dt.Value, N: dt.N, Note: fmt.Sprintf("p%.1f", dt.P)}
	p.layers["swserver.wait_ms"] = value{V: median(dms) - median(dcompute), N: len(dcompute), Note: "direct rtt p50 - batch compute p50"}

	// The benchmark's own scatter pool, with the router's default policy.
	pool := cluster.NewReplicatedPool(fl.groups, cluster.NewIndex(db), cluster.Policy{
		Timeout: 10 * time.Second, HedgeAfter: 150 * time.Millisecond, Retries: 2,
		BreakerFailures: 3, BreakerCooldown: 5 * time.Second,
	})
	var swg sync.WaitGroup
	scattered, _, _ := openPhase(ctx, e.seed, 23, n, func(i int, req cluster.Request, finish func(wireResponse, time.Time, error)) {
		req.Residues = string(qs[i%len(qs)].Residues)
		swg.Add(1)
		go func() {
			defer swg.Done()
			sp := rec.begin("cluster.scatter", 0, int64(i))
			hits, rep, err := pool.Scatter(ctx, req)
			sp.end()
			rec.count("cluster.scatter.shards_ok", float64(len(rep.OK)))
			finish(wireResponse{Response: cluster.Response{ID: req.ID, Hits: hits}, Shards: &rep, Partial: rep.Partial()}, time.Now(), err)
		}()
	})
	swg.Wait()
	sms, _, _ := scoreReplies(p, "scatter", scattered, qs, want)
	p.layers["cluster.scatter_p50_ms"] = value{V: median(sms), N: len(sms)}
	p.layers["cluster.router_ms"] = value{V: median(tm.routerMs) - median(sms), N: len(tm.routerMs), Note: "router rtt p50 - scatter p50"}

	// Merge: recorded answers of both slices' primaries.
	nq := 16
	if nq > len(qs) {
		nq = len(qs)
	}
	answers := make([][serveSlices][]cluster.Hit, nq)
	for s := 0; s < serveSlices; s++ {
		for i := 0; i < nq; i++ {
			resp, err := exchange(fl.groups[s][0], cluster.Request{ID: qs[i].ID, Residues: string(qs[i].Residues), Top: serveTop}, readyTimeout)
			if err == nil {
				err = checkServeResponse(resp, sliceWant[s][qs[i].ID])
			}
			if err != nil {
				p.problem("slice %d answer for %s: %v", s, qs[i].ID, err)
				return nil
			}
			answers[i][s] = resp.Hits
		}
	}
	index := cluster.NewIndex(db)
	var mergeUs []float64
	for r := 0; r < 50; r++ {
		for i := range answers {
			sp := rec.begin("cluster.merge", 0, int64(i))
			t := time.Now()
			got, err := index.Merge(answers[i][:], serveTop)
			mergeUs = append(mergeUs, float64(time.Since(t).Nanoseconds())/1e3)
			sp.end()
			if err == nil {
				err = checkServeResponse(wireResponse{Response: cluster.Response{Hits: got}}, want[qs[i].ID])
			}
			if err != nil {
				p.problem("merge %s: %v", qs[i].ID, err)
				return nil
			}
		}
	}
	p.layers["cluster.merge_us"] = value{V: median(mergeUs), N: len(mergeUs)}

	// One shard slice, in process: the batch build a shard pays per
	// server batch, and the multi-query kernel at the logged batch sizes.
	alpha := mat.Alphabet()
	var buildMs []float64
	for r := 0; r < 30; r++ {
		sp := rec.begin("seqio.build", 0, int64(r))
		t := time.Now()
		seqio.BuildBatches(slices[0], alpha, seqio.BatchOptions{SortByLength: true})
		buildMs = append(buildMs, float64(time.Since(t).Nanoseconds())/1e6)
		sp.end()
	}
	p.layers["seqio.build_ms"] = value{V: median(buildMs), N: len(buildMs)}

	batches := seqio.BuildBatches(slices[0], alpha, seqio.BatchOptions{SortByLength: true})
	tables := submat.NewCodeTables(mat)
	bopt := core.BatchOptions{Gaps: swvec.DefaultGaps(), Scratch: core.NewScratch(), Backend: core.BackendNative, Kernel: core.KernelDiagonal}
	sizes := fills
	if len(sizes) > 40 {
		sizes = sizes[:40]
	}
	if len(sizes) == 0 {
		sizes = []float64{1}
	}
	var cells, ksecs float64
	next := 0
	for k, sz := range sizes {
		var enc [][]uint8
		for j := 0; j < int(sz); j++ {
			enc = append(enc, alpha.Encode(qs[next%len(qs)].Residues))
			next++
		}
		for bi, b := range batches {
			sp := rec.begin("kernel.multi8", 0, int64(k*len(batches)+bi))
			t := time.Now()
			_, err := core.AlignBatch8Multi(vek.Bare, enc, tables, b, bopt)
			d := time.Since(t)
			sp.end()
			if err != nil {
				p.problem("kernel.multi8 replay: %v", err)
				return nil
			}
			if k == 0 {
				continue // warms the scratch
			}
			for _, q := range enc {
				cells += float64(b.Cells(len(q)))
			}
			ksecs += d.Seconds()
		}
	}
	p.layers["kernel.multi8_gcups"] = value{V: ratio(cells, ksecs) / 1e9, N: len(sizes) - 1, Note: "AlignBatch8Multi at logged batch sizes"}
	return nil
}
