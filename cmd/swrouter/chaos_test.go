//go:build failpoint

package main

import (
	"strings"
	"testing"
	"time"

	"swvec/internal/cluster"
	"swvec/internal/failpoint"
	"swvec/internal/leakcheck"
)

// TestRouterChaosTransientShardFaultHealed injects two transient
// faults at the per-shard query site; the retry policy absorbs them
// and the merged response is complete, with the struck shards reported
// degraded rather than skipped.
func TestRouterChaosTransientShardFaultHealed(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	s0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	s1 := cannedShard(t, []cluster.Hit{{SeqID: "C", Score: 9}})
	s2 := cannedShard(t, []cluster.Hit{{SeqID: "D", Score: 8}})
	pol := testPolicy()
	pol.Retries = 2
	_, addr := startTestRouter(t, testDB(), []string{s0.Addr(), s1.Addr(), s2.Addr()}, pol, routerConfig{})

	if err := failpoint.Enable("cluster/shard", "error(shard blip):transient:first=2"); err != nil {
		t.Fatal(err)
	}
	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Error != "" || resp.Partial {
		t.Fatalf("transient faults were not healed: %+v", resp)
	}
	want := []cluster.Hit{{SeqID: "A", Score: 10}, {SeqID: "C", Score: 9}, {SeqID: "D", Score: 8}}
	if !hitsEqual(resp.Hits, want) {
		t.Fatalf("hits = %v, want %v", resp.Hits, want)
	}
	if got := failpoint.Fired("cluster/shard"); got != 2 {
		t.Fatalf("failpoint fired %d times, want 2", got)
	}
	if resp.Shards == nil || len(resp.Shards.Degraded) < 1 {
		t.Fatalf("no shard reported degraded after injected retries: %+v", resp.Shards)
	}
}

// TestRouterChaosClusterOutageAndRecovery injects a permanent fault at
// every shard query: the scatter degrades to an explicit unavailable
// error with all shards skipped, and once the fault is lifted the very
// next query is served in full.
func TestRouterChaosClusterOutageAndRecovery(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	s0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	s1 := cannedShard(t, []cluster.Hit{{SeqID: "C", Score: 9}})
	s2 := cannedShard(t, []cluster.Hit{{SeqID: "D", Score: 8}})
	_, addr := startTestRouter(t, testDB(), []string{s0.Addr(), s1.Addr(), s2.Addr()}, testPolicy(), routerConfig{})

	if err := failpoint.Enable("cluster/shard", "error(injected outage)"); err != nil {
		t.Fatal(err)
	}
	down := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if down.Code != cluster.CodeUnavailable || !down.Partial {
		t.Fatalf("outage response = %+v, want unavailable+partial", down.Response)
	}
	if down.Shards == nil || len(down.Shards.Skipped) != 3 {
		t.Fatalf("outage shard report = %+v, want all 3 skipped", down.Shards)
	}
	for shard, cause := range down.Shards.Causes {
		if !strings.Contains(cause, "injected outage") {
			t.Fatalf("shard %s cause = %q, want the injected fault", shard, cause)
		}
	}

	failpoint.Disable("cluster/shard")
	up := queryRouter(t, addr, cluster.Request{ID: "q2", Residues: validQuery, Top: 4})
	if up.Error != "" || up.Partial {
		t.Fatalf("cluster did not recover: %+v", up)
	}
	want := []cluster.Hit{{SeqID: "A", Score: 10}, {SeqID: "C", Score: 9}, {SeqID: "D", Score: 8}}
	if !hitsEqual(up.Hits, want) {
		t.Fatalf("post-recovery hits = %v, want %v", up.Hits, want)
	}
}

// TestRouterChaosReplicaFailoverHealthy injects one fault at the
// per-replica policy site: the primary's whole attempt budget is
// struck, the walk fails over to the healthy sibling replica, and the
// merged response stays complete — the fault cost latency, not
// coverage.
func TestRouterChaosReplicaFailoverHealthy(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	primary := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	sibling := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	pol := testPolicy()
	pol.Retries = 0
	_, addr := startTestRouterGroups(t, testDB(), [][]string{
		{primary.Addr(), sibling.Addr()},
	}, pol, routerConfig{})

	if err := failpoint.Enable("cluster/replica", "error(replica struck):first=1"); err != nil {
		t.Fatal(err)
	}
	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 1})
	if resp.Error != "" || resp.Partial {
		t.Fatalf("failover did not keep the response complete: %+v", resp)
	}
	if !hitsEqual(resp.Hits, []cluster.Hit{{SeqID: "A", Score: 10}}) {
		t.Fatalf("hits = %v", resp.Hits)
	}
	if resp.Shards == nil || !intsEqual(resp.Shards.Degraded, []int{0}) {
		t.Fatalf("shard report = %+v, want Degraded=[0]", resp.Shards)
	}
	atts := resp.Shards.Attempts["0"]
	if len(atts) != 1 || atts[0].Replica != 0 || !strings.Contains(atts[0].Cause, "replica struck") {
		t.Fatalf("attempts = %+v, want the injected rank-0 failure", atts)
	}
	if got := failpoint.Fired("cluster/replica"); got != 1 {
		t.Fatalf("failpoint fired %d times, want 1", got)
	}
}

// TestRouterChaosAllReplicasDownQuarantine injects a persistent fault
// at the replica site: with every replica of the only shard failing,
// the pre-replication contract returns verbatim — an explicit partial
// + unavailable answer, and once the breakers trip, quarantine causes
// instead of fresh dials.
func TestRouterChaosAllReplicasDownQuarantine(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	r0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	r1 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	pol := testPolicy()
	pol.Retries = 0
	pol.BreakerFailures = 1
	_, addr := startTestRouterGroups(t, testDB(), [][]string{
		{r0.Addr(), r1.Addr()},
	}, pol, routerConfig{})

	if err := failpoint.Enable("cluster/replica", "error(replica dead)"); err != nil {
		t.Fatal(err)
	}
	down := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 1})
	if down.Code != cluster.CodeUnavailable || !down.Partial {
		t.Fatalf("outage response = %+v, want unavailable+partial", down.Response)
	}
	atts := down.Shards.Attempts["0"]
	if len(atts) != 2 {
		t.Fatalf("attempts = %+v, want both replicas struck", atts)
	}
	for _, a := range atts {
		if !strings.Contains(a.Cause, "replica dead") {
			t.Fatalf("attempt cause = %q, want the injected fault", a.Cause)
		}
	}
	if cause := down.Shards.Causes["0"]; !strings.HasPrefix(cause, "all 2 replicas failed") {
		t.Fatalf("skip cause = %q, want the all-replicas summary", cause)
	}

	// Both breakers tripped: lifting the fault does not resurrect the
	// shard — the quarantine holds until a probe, exactly the old
	// breaker contract, now per replica.
	failpoint.Disable("cluster/replica")
	held := queryRouter(t, addr, cluster.Request{ID: "q2", Residues: validQuery, Top: 1})
	if !held.Partial {
		t.Fatalf("quarantine did not hold: %+v", held)
	}
	if cause := held.Shards.Causes["0"]; !strings.Contains(cause, "quarantined: circuit breaker open") {
		t.Fatalf("quarantine cause = %q", cause)
	}
	if got := r0.accepts.Load() + r1.accepts.Load(); got != 0 {
		t.Fatalf("quarantined replicas were dialed %d times", got)
	}
}

// TestRouterChaosFlappingReplicaReintegratedOnlyByProbe injects
// persistent health-check failures: the replica flaps down via its
// failing probes, stays quarantined through multiple cooldowns even
// though queries keep arriving (queries never take the half-open
// slot), and rejoins only after the probes succeed again.
func TestRouterChaosFlappingReplicaReintegratedOnlyByProbe(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	primary := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	pol := testPolicy()
	pol.Retries = 0
	pol.BreakerFailures = 1
	pol.BreakerCooldown = 20 * time.Millisecond
	pol.ProbeInterval = 10 * time.Millisecond
	pol.ProbeTimeout = 500 * time.Millisecond
	pool, addr := startTestRouterGroups(t, testDB(), [][]string{
		{primary.Addr()},
	}, pol, routerConfig{})
	pool.StartProber()
	t.Cleanup(pool.StopProber)

	healthy := queryRouter(t, addr, cluster.Request{ID: "q0", Residues: validQuery, Top: 1})
	if healthy.Error != "" || healthy.Partial {
		t.Fatalf("cluster unhealthy before injection: %+v", healthy)
	}

	// Fail every health check: the next probe trips the breaker and
	// the replica goes down without a single query failing.
	if err := failpoint.Enable("cluster/probe", "error(probe struck)"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 1})
		if resp.Partial && strings.Contains(resp.Shards.Causes["0"], "quarantined") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failing probes never quarantined the replica: %+v", resp.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Several cooldowns pass with queries arriving the whole time; the
	// replica must stay quarantined (only a probe may reintegrate it,
	// and probes keep failing) and must see no query connections.
	dials := primary.accepts.Load()
	time.Sleep(4 * pol.BreakerCooldown)
	still := queryRouter(t, addr, cluster.Request{ID: "q2", Residues: validQuery, Top: 1})
	if !still.Partial || !strings.Contains(still.Shards.Causes["0"], "quarantined") {
		t.Fatalf("queries reintegrated a flapping replica: %+v", still.Shards)
	}
	if got := primary.accepts.Load(); got != dials {
		t.Fatalf("quarantined replica was dialed by a query (%d -> %d accepts)", dials, got)
	}
	met := pool.Metrics().Replica(0, 0)
	if failpoint.Fired("cluster/probe") == 0 || met.ProbeFailures.Load() == 0 {
		t.Fatalf("probe site never fired (fired=%d probe_failures=%d)",
			failpoint.Fired("cluster/probe"), met.ProbeFailures.Load())
	}

	// Heal the probes: the next successful half-open ping closes the
	// breaker and queries flow again — reintegration through probing.
	failpoint.Disable("cluster/probe")
	for {
		resp := queryRouter(t, addr, cluster.Request{ID: "q3", Residues: validQuery, Top: 1})
		if resp.Error == "" && !resp.Partial {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never reintegrated the healed replica: %+v", resp.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterChaosRequestFault injects a fault at the router's own
// request-admission site: the struck request answers with a structured
// internal error, the connection survives, and the next request on the
// same cluster is served normally.
func TestRouterChaosRequestFault(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	s0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	_, addr := startTestRouter(t, testDB(), []string{s0.Addr()}, testPolicy(), routerConfig{})

	if err := failpoint.Enable("serve/request", "error(router glitch):first=1"); err != nil {
		t.Fatal(err)
	}
	hurt := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 1})
	if hurt.Code != cluster.CodeInternal || !strings.Contains(hurt.Error, "router glitch") {
		t.Fatalf("injected request fault surfaced as %+v", hurt.Response)
	}
	ok := queryRouter(t, addr, cluster.Request{ID: "q2", Residues: validQuery, Top: 1})
	if ok.Error != "" || !hitsEqual(ok.Hits, []cluster.Hit{{SeqID: "A", Score: 10}}) {
		t.Fatalf("request after injected fault = %+v", ok)
	}
}
