package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/leakcheck"
)

// e2eDBSize keeps the synthetic database small enough that every
// shard's searches finish in milliseconds while still spreading
// meaningfully across three consistent-hash slices.
const e2eDBSize = 120

// buildSwserver compiles the real swserver binary into the test's temp
// directory. The e2e cluster runs actual shard processes, not stubs —
// that is the point.
func buildSwserver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "swserver")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	out, err := exec.Command("go", "build", "-o", bin, "swvec/cmd/swserver").CombinedOutput()
	if err != nil {
		t.Fatalf("building swserver: %v\n%s", err, out)
	}
	return bin
}

// TestSpawnFailsFast: a shard that exits before announcing its address,
// here on an unknown flag, fails the spawn with its exit status at once
// rather than after the 30 s default ready timeout.
func TestSpawnFailsFast(t *testing.T) {
	bin := buildSwserver(t)
	start := time.Now()
	procs, err := cluster.SpawnShards(cluster.SpawnOptions{
		Bin: bin, Shards: 2, GenDB: 20, ExtraArgs: []string{"-no-such-flag"},
	})
	if err == nil {
		for _, p := range procs {
			p.Kill()
		}
		t.Fatal("spawn with a bogus flag succeeded")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("spawn failed after %s, want under 5s", el)
	}
	if !strings.Contains(err.Error(), "exit status") {
		t.Fatalf("error %q does not carry the shard's exit status", err)
	}
}

// e2eExpectations precomputes, with a single-node aligner, the exact
// hits the cluster must return for a query: over the full database,
// and over the database minus one shard's slice (what a partial
// response after that shard dies must contain).
func e2eExpectations(t *testing.T, al *swvec.Aligner, db []swvec.Sequence, query []byte, top, deadShard int) (full, partial []cluster.Hit) {
	t.Helper()
	m := cluster.NewShardMap(3)
	var survivors []swvec.Sequence
	for _, s := range db {
		if m.Assign(s.ID) != deadShard {
			survivors = append(survivors, s)
		}
	}
	search := func(sub []swvec.Sequence) []cluster.Hit {
		res, err := al.Search(query, sub)
		if err != nil {
			t.Fatal(err)
		}
		hits := res.TopHits(top)
		out := make([]cluster.Hit, len(hits))
		for i, h := range hits {
			out[i] = cluster.Hit{SeqID: sub[h.SeqIndex].ID, Score: h.Score}
		}
		return out
	}
	return search(db), search(survivors)
}

// TestClusterE2E is the cluster chaos gate: build swserver, spawn a
// real 3-shard fleet over loopback, front it with an in-process
// router, and drive concurrent queries while a shard process is
// SIGKILLed mid-search.
//
// With -replicas 1 (the replicas=1 subtest) every response is
// bit-identical to a single-node search — of the whole database while
// the fleet is healthy, of the surviving shards' slices once it is
// not — and the dead shard is reported, not papered over; the health
// prober marks it down. With two replicas per slice (replicas=2),
// killing a *primary* must not cost completeness at all: every
// response stays partial=false and bit-identical to the full
// single-node search, served through failover. leakcheck holds
// throughout.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e spawns real shard processes; skipped in -short")
	}
	bin := buildSwserver(t)
	t.Run("replicas=1", func(t *testing.T) { clusterE2ESingle(t, bin) })
	t.Run("replicas=2", func(t *testing.T) { clusterE2EReplicated(t, bin) })
}

// clusterE2ESingle is the single-copy chaos gate, run the way swrouter
// runs -replicas 1: one process per shard with the health prober on,
// and a SIGKILL degrades to partial.
func clusterE2ESingle(t *testing.T, bin string) {
	leakcheck.Check(t)

	procs, err := cluster.SpawnShards(cluster.SpawnOptions{
		Bin:       bin,
		Shards:    3,
		GenDB:     e2eDBSize,
		ExtraArgs: []string{"-batch", "1"},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, p := range procs {
			p.Kill()
		}
	}()

	db := swvec.GenerateDatabase(42, e2eDBSize) // same seed the shards use
	al, err := swvec.New()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(procs))
	for i, p := range procs {
		addrs[i] = p.Addr
	}
	pol := cluster.Policy{
		Timeout:         10 * time.Second,
		Retries:         2,
		RetryBase:       5 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
		BreakerFailures: 3,
		BreakerCooldown: 250 * time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    2 * time.Second,
	}
	pool := cluster.NewPool(addrs, cluster.NewIndex(db), pol)
	pool.StartProber()
	defer pool.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(pool, al, ln, routerConfig{}, t.Logf)
	go r.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	}()

	const top = 7
	const deadShard = 1
	query := swvec.GenerateQueries(42)[0].Residues
	wantFull, wantPartial := e2eExpectations(t, al, db, query, top, deadShard)

	// Phase 1 — healthy fleet: the routed result must equal the
	// single-node search of the whole database, bit for bit.
	healthy := queryRouter(t, ln.Addr().String(), cluster.Request{ID: "warm", Residues: string(query), Top: top})
	if healthy.Error != "" || healthy.Partial {
		t.Fatalf("healthy cluster answered %+v", healthy)
	}
	if !hitsEqual(healthy.Hits, wantFull) {
		t.Fatalf("healthy merge differs from single-node search\n got: %v\nwant: %v", healthy.Hits, wantFull)
	}

	// Phase 2 — chaos: concurrent clients stream queries while shard 1
	// is SIGKILLed mid-run.
	type outcome struct {
		resp routerResponse
		err  error
	}
	const clients = 4
	const perClient = 25
	results := make(chan outcome, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(60 * time.Second))
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(bufio.NewReader(conn))
			for i := 0; i < perClient; i++ {
				req := cluster.Request{
					ID: fmt.Sprintf("c%d-%d", c, i), Residues: string(query), Top: top,
				}
				var resp routerResponse
				err := enc.Encode(req)
				if err == nil {
					err = dec.Decode(&resp)
				}
				results <- outcome{resp: resp, err: err}
				if err != nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	time.Sleep(50 * time.Millisecond) // let some healthy responses through
	procs[deadShard].Kill()
	wg.Wait()
	close(results)

	var fullN, partialN int
	for out := range results {
		if out.err != nil {
			t.Fatalf("client error: %v", out.err)
		}
		resp := out.resp
		if resp.Error != "" {
			t.Fatalf("query %s failed: %s (%s)", resp.ID, resp.Error, resp.Code)
		}
		switch {
		case !resp.Partial:
			if !hitsEqual(resp.Hits, wantFull) {
				t.Fatalf("full response %s differs from single-node search\n got: %v\nwant: %v", resp.ID, resp.Hits, wantFull)
			}
			fullN++
		default:
			if resp.Shards == nil || !intsEqual(resp.Shards.Skipped, []int{deadShard}) {
				t.Fatalf("partial response %s skipped %v, want [%d]", resp.ID, resp.Shards, deadShard)
			}
			if !hitsEqual(resp.Hits, wantPartial) {
				t.Fatalf("partial response %s differs from single-node search of surviving slices\n got: %v\nwant: %v", resp.ID, resp.Hits, wantPartial)
			}
			partialN++
		}
	}
	if partialN == 0 {
		t.Fatal("no response reported the killed shard as partial")
	}
	t.Logf("e2e: %d full + %d partial responses, all bit-identical to single-node search", fullN, partialN)
	if fullN+partialN != clients*perClient {
		t.Fatalf("got %d responses, want %d", fullN+partialN, clients*perClient)
	}

	// The prober watches a single copy too: the dead shard's only
	// replica reads down, with failed pings on its record.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs := pool.Metrics().Snapshot().Shards[deadShard].Replicas
		if len(rs) == 1 && rs[0].State == "down" && rs[0].ProbeFailures > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("killed shard's replica = %+v, want down with failed probes", rs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The healthy shards must shut down cleanly on SIGTERM; the killed
	// one has already been reaped.
	for i, p := range procs {
		if i == deadShard {
			continue
		}
		if err := p.Stop(); err != nil {
			t.Errorf("shard %d did not exit cleanly: %v", i, err)
		}
	}
}

// clusterE2EReplicated is the replication headline: 3 shards x 2
// replicas, SIGKILL the *primary* of one shard mid-search, and every
// concurrent response must still be complete (partial=false) and
// bit-identical to a single-node search of the whole database — the
// death degraded latency, not coverage.
func clusterE2EReplicated(t *testing.T, bin string) {
	leakcheck.Check(t)

	procs, err := cluster.SpawnShards(cluster.SpawnOptions{
		Bin:       bin,
		Shards:    3,
		Replicas:  2,
		GenDB:     e2eDBSize,
		ExtraArgs: []string{"-batch", "1"},
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, p := range procs {
			p.Kill()
		}
	}()

	db := swvec.GenerateDatabase(42, e2eDBSize)
	al, err := swvec.New()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, len(procs))
	for i, p := range procs {
		addrs[i] = p.Addr
	}
	groups, err := cluster.GroupReplicas(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	pol := cluster.Policy{
		Timeout:         10 * time.Second,
		Retries:         2,
		RetryBase:       5 * time.Millisecond,
		RetryMax:        50 * time.Millisecond,
		BreakerFailures: 2,
		BreakerCooldown: 250 * time.Millisecond,
		ProbeInterval:   25 * time.Millisecond,
		ProbeTimeout:    2 * time.Second,
	}
	pool := cluster.NewReplicatedPool(groups, cluster.NewIndex(db), pol)
	pool.StartProber()
	defer pool.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(pool, al, ln, routerConfig{}, t.Logf)
	go r.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	}()

	const top = 7
	const deadShard = 1
	query := swvec.GenerateQueries(42)[0].Residues
	wantFull, _ := e2eExpectations(t, al, db, query, top, deadShard)

	// The victim is the *primary* of deadShard under the restart-stable
	// failover order — the process every query for that slice hits
	// first while healthy.
	var victim *cluster.Proc
	for _, p := range procs {
		if p.Addr == groups[deadShard][0] {
			victim = p
		}
	}
	if victim == nil {
		t.Fatalf("no spawned process serves primary address %s", groups[deadShard][0])
	}
	if victim.Shard != deadShard {
		t.Fatalf("primary address maps to shard %d, want %d", victim.Shard, deadShard)
	}

	healthy := queryRouter(t, ln.Addr().String(), cluster.Request{ID: "warm", Residues: string(query), Top: top})
	if healthy.Error != "" || healthy.Partial {
		t.Fatalf("healthy cluster answered %+v", healthy)
	}
	if !hitsEqual(healthy.Hits, wantFull) {
		t.Fatalf("healthy merge differs from single-node search\n got: %v\nwant: %v", healthy.Hits, wantFull)
	}

	type outcome struct {
		resp routerResponse
		err  error
	}
	const clients = 4
	const perClient = 25
	results := make(chan outcome, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(60 * time.Second))
			enc := json.NewEncoder(conn)
			dec := json.NewDecoder(bufio.NewReader(conn))
			for i := 0; i < perClient; i++ {
				req := cluster.Request{
					ID: fmt.Sprintf("c%d-%d", c, i), Residues: string(query), Top: top,
				}
				var resp routerResponse
				err := enc.Encode(req)
				if err == nil {
					err = dec.Decode(&resp)
				}
				results <- outcome{resp: resp, err: err}
				if err != nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(c)
	}

	time.Sleep(50 * time.Millisecond) // let some healthy responses through
	victim.Kill()
	wg.Wait()
	close(results)

	var n, failedOver int
	for out := range results {
		if out.err != nil {
			t.Fatalf("client error: %v", out.err)
		}
		resp := out.resp
		if resp.Error != "" {
			t.Fatalf("query %s failed: %s (%s)", resp.ID, resp.Error, resp.Code)
		}
		// The replication contract: a single replica death never costs
		// completeness — zero partial responses, every merge identical
		// to the single-node search of the WHOLE database.
		if resp.Partial {
			t.Fatalf("response %s partial with a replica available: %+v", resp.ID, resp.Shards)
		}
		if !hitsEqual(resp.Hits, wantFull) {
			t.Fatalf("response %s differs from single-node search\n got: %v\nwant: %v", resp.ID, resp.Hits, wantFull)
		}
		if resp.Shards != nil && len(resp.Shards.Attempts[fmt.Sprint(deadShard)]) > 0 {
			failedOver++
		}
		n++
	}
	if n != clients*perClient {
		t.Fatalf("got %d responses, want %d", n, clients*perClient)
	}
	if failedOver == 0 {
		t.Fatal("no response recorded a failover off the killed primary")
	}
	met := pool.Metrics().Shard(deadShard)
	if met.Failovers.Load() == 0 {
		t.Fatalf("failover metric = 0 after killing the primary")
	}
	t.Logf("e2e: %d complete responses, %d served through failover, all bit-identical to single-node search", n, failedOver)

	// Surviving processes shut down cleanly on SIGTERM; the victim has
	// already been reaped.
	for _, p := range procs {
		if p == victim {
			continue
		}
		if err := p.Stop(); err != nil {
			t.Errorf("shard %d replica %d did not exit cleanly: %v", p.Shard, p.Replica, err)
		}
	}
}
