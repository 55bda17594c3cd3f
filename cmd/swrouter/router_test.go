package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/leakcheck"
)

// validQuery is a residue string the default protein aligner admits.
const validQuery = "ACDEFGHIKLMNPQRSTVWY"

// stubShard speaks the swserver wire protocol with scripted behavior,
// so router policy (retry, hedge, breaker, partial) can be exercised
// without real alignment. behave receives the decoded request and the
// 1-based accept sequence number; returning ok=false slams the
// connection shut without answering, which is what a dying shard looks
// like on the wire.
type stubShard struct {
	ln      net.Listener
	behave  func(req cluster.Request, conn int64) (cluster.Response, bool)
	accepts atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func startStubShard(t *testing.T, behave func(req cluster.Request, conn int64) (cluster.Response, bool)) *stubShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &stubShard{ln: ln, behave: behave, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.serve()
	t.Cleanup(s.Close)
	return s
}

// cannedShard always answers with the given hits.
func cannedShard(t *testing.T, hits []cluster.Hit) *stubShard {
	return startStubShard(t, func(req cluster.Request, _ int64) (cluster.Response, bool) {
		return cluster.Response{Hits: hits}, true
	})
}

func (s *stubShard) Addr() string { return s.ln.Addr().String() }

func (s *stubShard) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		n := s.accepts.Add(1)
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handle(conn, n)
		}()
	}
}

func (s *stubShard) handle(conn net.Conn, n int64) {
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		var req cluster.Request
		if json.Unmarshal(sc.Bytes(), &req) != nil {
			return
		}
		resp, ok := s.behave(req, n)
		if !ok {
			return
		}
		if resp.ID == "" {
			resp.ID = req.ID
		}
		if json.NewEncoder(conn).Encode(resp) != nil {
			return
		}
	}
}

func (s *stubShard) Close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// deadAddr returns a loopback address nothing is listening on.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// testPolicy is a fast, deterministic baseline: quick retries, no
// hedging, a breaker that effectively never trips. Tests override the
// knob they exercise.
func testPolicy() cluster.Policy {
	return cluster.Policy{
		Timeout:         2 * time.Second,
		Retries:         1,
		RetryBase:       time.Millisecond,
		RetryMax:        2 * time.Millisecond,
		BreakerFailures: 100,
		BreakerCooldown: time.Minute,
	}
}

// testDB is four sequences whose global order decides every tie-break
// the stub tests assert.
func testDB() []swvec.Sequence {
	return []swvec.Sequence{
		{ID: "A", Residues: []byte("ACDE")},
		{ID: "B", Residues: []byte("FGHI")},
		{ID: "C", Residues: []byte("KLMN")},
		{ID: "D", Residues: []byte("PQRS")},
	}
}

// startTestRouter wires a router over the given shard addresses and
// serves it on a loopback listener.
func startTestRouter(t *testing.T, db []swvec.Sequence, addrs []string, pol cluster.Policy, cfg routerConfig) (*cluster.Pool, string) {
	t.Helper()
	al, err := swvec.New()
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewPool(addrs, cluster.NewIndex(db), pol)
	t.Cleanup(pool.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(pool, al, ln, cfg, t.Logf)
	go r.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	})
	return pool, ln.Addr().String()
}

// startTestRouterGroups is startTestRouter over explicit per-shard
// replica groups, each already in failover order (rank 0 first).
func startTestRouterGroups(t *testing.T, db []swvec.Sequence, groups [][]string, pol cluster.Policy, cfg routerConfig) (*cluster.Pool, string) {
	t.Helper()
	al, err := swvec.New()
	if err != nil {
		t.Fatal(err)
	}
	pool := cluster.NewReplicatedPool(groups, cluster.NewIndex(db), pol)
	t.Cleanup(pool.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(pool, al, ln, cfg, t.Logf)
	go r.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	})
	return pool, ln.Addr().String()
}

// queryRouter sends one request over a fresh client connection and
// decodes the routed response.
func queryRouter(t *testing.T, addr string, req cluster.Request) routerResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(15 * time.Second))
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		t.Fatal(err)
	}
	var resp routerResponse
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func hitsEqual(a, b []cluster.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterMergesAcrossShards is the happy path: three shards answer
// canned top-K lists and the router merges them into the global order,
// ties broken by database position (B at index 1 before D at index 3).
func TestRouterMergesAcrossShards(t *testing.T) {
	leakcheck.Check(t)
	s0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}, {SeqID: "B", Score: 8}})
	s1 := cannedShard(t, []cluster.Hit{{SeqID: "C", Score: 9}})
	s2 := cannedShard(t, []cluster.Hit{{SeqID: "D", Score: 8}})
	_, addr := startTestRouter(t, testDB(), []string{s0.Addr(), s1.Addr(), s2.Addr()}, testPolicy(), routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Error != "" || resp.Partial {
		t.Fatalf("unexpected error/partial: %+v", resp)
	}
	want := []cluster.Hit{{SeqID: "A", Score: 10}, {SeqID: "C", Score: 9}, {SeqID: "B", Score: 8}, {SeqID: "D", Score: 8}}
	if !hitsEqual(resp.Hits, want) {
		t.Fatalf("merged hits = %v, want %v", resp.Hits, want)
	}
	if resp.Shards == nil || !intsEqual(resp.Shards.OK, []int{0, 1, 2}) {
		t.Fatalf("shard report = %+v, want OK=[0 1 2]", resp.Shards)
	}
}

// TestRouterPartialOnDeadShard: a shard nothing listens on exhausts
// its retries and the response arrives partial, with the dead shard in
// Skipped and a cause attached — graceful degradation, not an error.
func TestRouterPartialOnDeadShard(t *testing.T) {
	leakcheck.Check(t)
	s0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	s1 := cannedShard(t, []cluster.Hit{{SeqID: "C", Score: 9}})
	pool, addr := startTestRouter(t, testDB(), []string{s0.Addr(), s1.Addr(), deadAddr(t)}, testPolicy(), routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Error != "" {
		t.Fatalf("wanted a partial result, got error %q", resp.Error)
	}
	if !resp.Partial || resp.Shards == nil || !intsEqual(resp.Shards.Skipped, []int{2}) {
		t.Fatalf("shard report = %+v, want partial with Skipped=[2]", resp.Shards)
	}
	if resp.Shards.Causes["2"] == "" {
		t.Fatalf("skipped shard has no cause: %+v", resp.Shards)
	}
	want := []cluster.Hit{{SeqID: "A", Score: 10}, {SeqID: "C", Score: 9}}
	if !hitsEqual(resp.Hits, want) {
		t.Fatalf("hits = %v, want %v", resp.Hits, want)
	}
	if got := pool.Metrics().Partial.Load(); got != 1 {
		t.Fatalf("partial metric = %d, want 1", got)
	}
}

// TestRouterRetriesTransientFailure: a shard that drops its first
// connection without answering is retried and its answer merged; the
// response is complete but the shard is reported degraded.
func TestRouterRetriesTransientFailure(t *testing.T) {
	leakcheck.Check(t)
	flaky := startStubShard(t, func(req cluster.Request, conn int64) (cluster.Response, bool) {
		if conn == 1 {
			return cluster.Response{}, false // slam the first connection
		}
		return cluster.Response{Hits: []cluster.Hit{{SeqID: "A", Score: 10}}}, true
	})
	steady := cannedShard(t, []cluster.Hit{{SeqID: "C", Score: 9}})
	pol := testPolicy()
	pol.Retries = 2
	pool, addr := startTestRouter(t, testDB(), []string{flaky.Addr(), steady.Addr()}, pol, routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Error != "" || resp.Partial {
		t.Fatalf("unexpected error/partial: %+v", resp)
	}
	want := []cluster.Hit{{SeqID: "A", Score: 10}, {SeqID: "C", Score: 9}}
	if !hitsEqual(resp.Hits, want) {
		t.Fatalf("hits = %v, want %v", resp.Hits, want)
	}
	if resp.Shards == nil || !intsEqual(resp.Shards.Degraded, []int{0}) {
		t.Fatalf("shard report = %+v, want Degraded=[0]", resp.Shards)
	}
	if got := pool.Metrics().Shard(0).Retries.Load(); got < 1 {
		t.Fatalf("retry metric = %d, want >= 1", got)
	}
}

// TestRouterHedgesSlowShard: a shard sitting on its first connection
// past HedgeAfter gets a speculative second request, the hedge answers
// first, and the shard is reported degraded.
func TestRouterHedgesSlowShard(t *testing.T) {
	leakcheck.Check(t)
	slow := startStubShard(t, func(req cluster.Request, conn int64) (cluster.Response, bool) {
		if conn == 1 {
			time.Sleep(400 * time.Millisecond)
		}
		return cluster.Response{Hits: []cluster.Hit{{SeqID: "A", Score: 10}}}, true
	})
	pol := testPolicy()
	pol.HedgeAfter = 25 * time.Millisecond
	pool, addr := startTestRouter(t, testDB(), []string{slow.Addr()}, pol, routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 1})
	if resp.Error != "" || resp.Partial {
		t.Fatalf("unexpected error/partial: %+v", resp)
	}
	if !hitsEqual(resp.Hits, []cluster.Hit{{SeqID: "A", Score: 10}}) {
		t.Fatalf("hits = %v", resp.Hits)
	}
	if resp.Shards == nil || !intsEqual(resp.Shards.Degraded, []int{0}) {
		t.Fatalf("shard report = %+v, want Degraded=[0]", resp.Shards)
	}
	met := pool.Metrics().Shard(0)
	if met.Hedges.Load() < 1 || met.HedgeWins.Load() < 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both >= 1", met.Hedges.Load(), met.HedgeWins.Load())
	}
}

// TestRouterQuarantinesAfterBreakerTrips: once a shard's breaker
// trips, subsequent scatters skip it without dialing — the quarantine
// shows up in the report's cause and the shard sees no new connection.
func TestRouterQuarantinesAfterBreakerTrips(t *testing.T) {
	leakcheck.Check(t)
	steady := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	broken := startStubShard(t, func(req cluster.Request, conn int64) (cluster.Response, bool) {
		return cluster.Response{}, false // never answers
	})
	pol := testPolicy()
	pol.Retries = 0
	pol.BreakerFailures = 1
	pool, addr := startTestRouter(t, testDB(), []string{steady.Addr(), broken.Addr()}, pol, routerConfig{})

	first := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if !first.Partial || first.Shards == nil || !intsEqual(first.Shards.Skipped, []int{1}) {
		t.Fatalf("first response = %+v, want Skipped=[1]", first.Shards)
	}
	dials := broken.accepts.Load()
	if dials < 1 {
		t.Fatal("broken shard was never dialed")
	}

	second := queryRouter(t, addr, cluster.Request{ID: "q2", Residues: validQuery, Top: 4})
	if !second.Partial || second.Shards == nil || !intsEqual(second.Shards.Skipped, []int{1}) {
		t.Fatalf("second response = %+v, want Skipped=[1]", second.Shards)
	}
	if cause := second.Shards.Causes["1"]; cause != "quarantined: circuit breaker open" {
		t.Fatalf("quarantine cause = %q", cause)
	}
	if got := broken.accepts.Load(); got != dials {
		t.Fatalf("quarantined shard was dialed again (%d -> %d accepts)", dials, got)
	}
	met := pool.Metrics().Shard(1)
	if met.BreakerTrips.Load() != 1 || met.BreakerSkipped.Load() < 1 {
		t.Fatalf("trips=%d skipped=%d, want 1 and >=1", met.BreakerTrips.Load(), met.BreakerSkipped.Load())
	}
}

// TestRouterShardErrorPermanent: a shard answering with a
// non-retryable error code is skipped without burning retries.
func TestRouterShardErrorPermanent(t *testing.T) {
	leakcheck.Check(t)
	steady := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	angry := startStubShard(t, func(req cluster.Request, conn int64) (cluster.Response, bool) {
		return cluster.Response{Error: "kernel exploded", Code: "internal"}, true
	})
	pol := testPolicy()
	pol.Retries = 3
	pool, addr := startTestRouter(t, testDB(), []string{steady.Addr(), angry.Addr()}, pol, routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if !resp.Partial || resp.Shards == nil || !intsEqual(resp.Shards.Skipped, []int{1}) {
		t.Fatalf("response = %+v, want Skipped=[1]", resp.Shards)
	}
	if got := pool.Metrics().Shard(1).Requests.Load(); got != 1 {
		t.Fatalf("permanent error burned %d requests, want 1", got)
	}
}

// TestRouterUnknownSequenceIsInternalError: a shard reporting hits for
// sequences outside the router's database is a protocol violation and
// must surface as an internal error, not a quietly wrong merge.
func TestRouterUnknownSequenceIsInternalError(t *testing.T) {
	leakcheck.Check(t)
	rogue := cannedShard(t, []cluster.Hit{{SeqID: "GHOST", Score: 99}})
	_, addr := startTestRouter(t, testDB(), []string{rogue.Addr()}, testPolicy(), routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Code != cluster.CodeInternal || resp.Error == "" {
		t.Fatalf("response = %+v, want internal error", resp.Response)
	}
	if len(resp.Hits) != 0 {
		t.Fatalf("protocol violation still returned hits: %v", resp.Hits)
	}
}

// TestRouterUnavailableWhenNoShardAnswers: a full outage is an
// explicit unavailable error, distinguishable from an empty result.
func TestRouterUnavailableWhenNoShardAnswers(t *testing.T) {
	leakcheck.Check(t)
	pol := testPolicy()
	pol.Retries = 0
	_, addr := startTestRouter(t, testDB(), []string{deadAddr(t), deadAddr(t)}, pol, routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Code != cluster.CodeUnavailable {
		t.Fatalf("code = %q, want %q (resp %+v)", resp.Code, cluster.CodeUnavailable, resp.Response)
	}
	if !resp.Partial || resp.Shards == nil || len(resp.Shards.Skipped) != 2 {
		t.Fatalf("shard report = %+v, want both shards skipped", resp.Shards)
	}
}

// TestRouterFailoverToReplica: a shard whose primary is dead answers
// from its secondary — the response is complete (not partial), the
// shard is reported degraded, and the report's Attempts records why
// the primary was passed over.
func TestRouterFailoverToReplica(t *testing.T) {
	leakcheck.Check(t)
	secondary := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	other := cannedShard(t, []cluster.Hit{{SeqID: "C", Score: 9}})
	pol := testPolicy()
	pol.Retries = 0
	pool, addr := startTestRouterGroups(t, testDB(), [][]string{
		{deadAddr(t), secondary.Addr()},
		{other.Addr(), other.Addr()},
	}, pol, routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Error != "" || resp.Partial {
		t.Fatalf("wanted a complete failover answer, got %+v", resp)
	}
	want := []cluster.Hit{{SeqID: "A", Score: 10}, {SeqID: "C", Score: 9}}
	if !hitsEqual(resp.Hits, want) {
		t.Fatalf("hits = %v, want %v", resp.Hits, want)
	}
	if resp.Shards == nil || !intsEqual(resp.Shards.Degraded, []int{0}) {
		t.Fatalf("shard report = %+v, want Degraded=[0]", resp.Shards)
	}
	atts := resp.Shards.Attempts["0"]
	if len(atts) != 1 || atts[0].Replica != 0 || atts[0].Cause == "" {
		t.Fatalf("attempts = %+v, want one rank-0 failure with a cause", atts)
	}
	if got := pool.Metrics().Shard(0).Failovers.Load(); got != 1 {
		t.Fatalf("shard failovers = %d, want 1", got)
	}
	if got := pool.Metrics().Replica(0, 0).Failovers.Load(); got != 1 {
		t.Fatalf("replica 0/0 failovers = %d, want 1", got)
	}
}

// TestRouterAllReplicasDownIsPartial: the old partial contract at the
// replica level — a shard is skipped only when every replica fails,
// and its cause summarizes the whole failover walk.
func TestRouterAllReplicasDownIsPartial(t *testing.T) {
	leakcheck.Check(t)
	healthy := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	pol := testPolicy()
	pol.Retries = 0
	pool, addr := startTestRouterGroups(t, testDB(), [][]string{
		{healthy.Addr(), healthy.Addr()},
		{deadAddr(t), deadAddr(t)},
	}, pol, routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 4})
	if resp.Error != "" {
		t.Fatalf("wanted a partial result, got error %q", resp.Error)
	}
	if !resp.Partial || resp.Shards == nil || !intsEqual(resp.Shards.Skipped, []int{1}) {
		t.Fatalf("shard report = %+v, want partial with Skipped=[1]", resp.Shards)
	}
	if len(resp.Shards.Attempts["1"]) != 2 {
		t.Fatalf("attempts = %+v, want both replicas recorded", resp.Shards.Attempts["1"])
	}
	if cause := resp.Shards.Causes["1"]; !strings.HasPrefix(cause, "all 2 replicas failed") {
		t.Fatalf("skip cause = %q, want the all-replicas summary", cause)
	}
	if got := pool.Metrics().Partial.Load(); got != 1 {
		t.Fatalf("partial metric = %d, want 1", got)
	}
}

// TestRouterHedgeRacesReplicas: with replicas, a hedge is not a second
// request to the same slow process — it races the next healthy sibling
// replica, and the sibling's answer wins.
func TestRouterHedgeRacesReplicas(t *testing.T) {
	leakcheck.Check(t)
	slow := startStubShard(t, func(req cluster.Request, conn int64) (cluster.Response, bool) {
		time.Sleep(400 * time.Millisecond)
		return cluster.Response{Hits: []cluster.Hit{{SeqID: "A", Score: 10}}}, true
	})
	fast := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	pol := testPolicy()
	pol.HedgeAfter = 25 * time.Millisecond
	pool, addr := startTestRouterGroups(t, testDB(), [][]string{
		{slow.Addr(), fast.Addr()},
	}, pol, routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "q1", Residues: validQuery, Top: 1})
	if resp.Error != "" || resp.Partial {
		t.Fatalf("unexpected error/partial: %+v", resp)
	}
	if !hitsEqual(resp.Hits, []cluster.Hit{{SeqID: "A", Score: 10}}) {
		t.Fatalf("hits = %v", resp.Hits)
	}
	if resp.Shards == nil || !intsEqual(resp.Shards.Degraded, []int{0}) {
		t.Fatalf("shard report = %+v, want Degraded=[0]", resp.Shards)
	}
	if fast.accepts.Load() < 1 {
		t.Fatal("hedge never reached the sibling replica")
	}
	met := pool.Metrics().Shard(0)
	if met.Hedges.Load() < 1 || met.HedgeWins.Load() < 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want both >= 1", met.Hedges.Load(), met.HedgeWins.Load())
	}
	if got := pool.Metrics().Replica(0, 1).Requests.Load(); got < 1 {
		t.Fatalf("sibling replica saw %d requests, want >= 1", got)
	}
}

// TestRouterPing: the router answers the liveness ping by the same
// contract as its shards — echoed ID, no admission, no scatter.
func TestRouterPing(t *testing.T) {
	leakcheck.Check(t)
	s0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	pool, addr := startTestRouter(t, testDB(), []string{s0.Addr()}, testPolicy(), routerConfig{})

	resp := queryRouter(t, addr, cluster.Request{ID: "ping-7", Type: cluster.TypePing})
	if resp.ID != "ping-7" || resp.Error != "" {
		t.Fatalf("ping answered %+v, want echoed ID and no error", resp.Response)
	}
	if got := pool.Metrics().Scatters.Load(); got != 0 {
		t.Fatalf("ping scattered %d times, want 0", got)
	}

	bad := queryRouter(t, addr, cluster.Request{ID: "odd", Type: "no-such-type"})
	if bad.Code != cluster.CodeBadRequest {
		t.Fatalf("unknown type answered code %q, want %q", bad.Code, cluster.CodeBadRequest)
	}
}

// TestRouterAdmissionControl: malformed and oversized queries are
// rejected at the router without spending a cluster-wide scatter.
func TestRouterAdmissionControl(t *testing.T) {
	leakcheck.Check(t)
	s0 := cannedShard(t, []cluster.Hit{{SeqID: "A", Score: 10}})
	pool, addr := startTestRouter(t, testDB(), []string{s0.Addr()}, testPolicy(), routerConfig{maxSeq: 8})

	cases := []struct {
		name string
		req  cluster.Request
		code string
	}{
		{"invalid residues", cluster.Request{ID: "q1", Residues: "123!@#"}, cluster.CodeBadRequest},
		{"oversized query", cluster.Request{ID: "q2", Residues: validQuery}, cluster.CodeTooLarge},
	}
	for _, tc := range cases {
		resp := queryRouter(t, addr, tc.req)
		if resp.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", tc.name, resp.Code, tc.code)
		}
	}
	if got := pool.Metrics().Scatters.Load(); got != 0 {
		t.Fatalf("rejected queries still scattered %d times", got)
	}
}

// TestRouterGracefulShutdown shuts the router down with a scatter in
// flight to a shard that stalls far longer than the test waits. The
// in-flight request must get a reply rather than hang, a request sent
// during shutdown gets shutting_down or a closed connection, Shutdown
// returns long before the stall ends, the listener refuses new
// connections, and nothing leaks.
func TestRouterGracefulShutdown(t *testing.T) {
	leakcheck.Check(t)
	const stall = 10 * time.Second
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	slow := startStubShard(t, func(req cluster.Request, _ int64) (cluster.Response, bool) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		select {
		case <-time.After(stall):
		case <-release:
		}
		return cluster.Response{Hits: []cluster.Hit{{SeqID: "A", Score: 10}}}, true
	})
	t.Cleanup(func() { close(release) })
	al, err := swvec.New()
	if err != nil {
		t.Fatal(err)
	}
	pol := testPolicy()
	pol.Timeout = 2 * stall // only the shutdown can end the scatter early
	pool := cluster.NewPool([]string{slow.Addr()}, cluster.NewIndex(testDB()), pol)
	t.Cleanup(pool.Close)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	r := newRouter(pool, al, ln, routerConfig{}, t.Logf)
	go r.Serve()

	inflight, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer inflight.Close()
	if err := json.NewEncoder(inflight).Encode(cluster.Request{ID: "inflight", Residues: validQuery, Top: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("scatter never reached the stub shard")
	}
	late, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()

	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		r.Shutdown(ctx)
	}()
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			break
		}
		c.Close()
		if time.Since(start) > 5*time.Second {
			t.Fatal("listener still accepting after shutdown began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let the read expiry reach late's reader

	late.SetDeadline(time.Now().Add(5 * time.Second))
	if err := json.NewEncoder(late).Encode(cluster.Request{ID: "late", Residues: validQuery, Top: 1}); err == nil {
		var resp routerResponse
		if err := json.NewDecoder(late).Decode(&resp); err == nil && resp.Code != cluster.CodeShutdown {
			t.Fatalf("request during shutdown got %+v, want %q or a closed connection", resp.Response, cluster.CodeShutdown)
		}
	}

	inflight.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp routerResponse
	if err := json.NewDecoder(inflight).Decode(&resp); err != nil {
		t.Fatalf("in-flight request got no reply: %v", err)
	}
	if resp.ID != "inflight" || resp.Code != cluster.CodeUnavailable {
		t.Fatalf("in-flight reply = %+v, want the canceled scatter's unavailable error", resp.Response)
	}
	select {
	case <-done:
	case <-time.After(stall / 2):
		t.Fatal("Shutdown waited on the stalled shard")
	}
	if el := time.Since(start); el >= stall/2 {
		t.Fatalf("Shutdown took %s, want well under the %s stall", el, stall)
	}
}
