package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swvec/internal/leakcheck"
)

// poolShard is a wire-protocol stub that answers every search with
// canned hits and keeps a record of its connections, numbered by
// accept order from 1. The replies on connection stall wait until
// release is closed, and those on connection misID carry a wrong ID.
type poolShard struct {
	ln      net.Listener
	stall   int64
	misID   int64
	release chan struct{}
	accepts atomic.Int64

	mu      sync.Mutex
	live    map[int64]net.Conn // open connections by accept number
	remotes map[int64]string   // each connection's client address
	wg      sync.WaitGroup
}

func startPoolShard(t *testing.T, stall, misID int64) *poolShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &poolShard{ln: ln, stall: stall, misID: misID, release: make(chan struct{}),
		live: map[int64]net.Conn{}, remotes: map[int64]string{}}
	s.wg.Add(1)
	go s.serve()
	t.Cleanup(s.Close)
	return s
}

func (s *poolShard) Addr() string { return s.ln.Addr().String() }

func (s *poolShard) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		n := s.accepts.Add(1)
		s.mu.Lock()
		s.live[n], s.remotes[n] = conn, conn.RemoteAddr().String()
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.live, n)
				s.mu.Unlock()
				conn.Close()
			}()
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				var req Request
				if json.Unmarshal(sc.Bytes(), &req) != nil {
					return
				}
				if n == s.stall {
					<-s.release
				}
				resp := Response{ID: req.ID, Hits: []Hit{{SeqID: "A", Score: 10}}}
				if n == s.misID {
					resp.ID = "someone-else"
				}
				if json.NewEncoder(conn).Encode(resp) != nil {
					return
				}
			}
		}()
	}
}

// liveConns returns how many accepted connections are still open on
// the shard's side.
func (s *poolShard) liveConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// drop closes every open connection from the shard's side, as its idle
// timeout or a restart would.
func (s *poolShard) drop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.live {
		c.Close()
	}
}

func (s *poolShard) Close() {
	select {
	case <-s.release:
	default:
		close(s.release)
	}
	s.ln.Close()
	s.drop()
	s.wg.Wait()
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitQueries waits until no query goroutine is left. A hedge loser or
// a timed-out attempt unwinds after Scatter has returned, so only then
// do the idle stacks hold their final contents.
func awaitQueries(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	waitFor(t, "query goroutines to finish", func() bool {
		n := runtime.Stack(buf, true)
		return !bytes.Contains(buf[:n], []byte("cluster.(*Pool).query("))
	})
}

// idleConns snapshots a replica's idle stack.
func idleConns(r *Replica) []*wireConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*wireConn(nil), r.idle...)
}

var poolReq = Request{ID: "q", Residues: "ACDEFGHIKL", Top: 1}

// scatterClean runs one scatter that must come back complete from the
// primary's first attempt.
func scatterClean(t *testing.T, pool *Pool) {
	t.Helper()
	hits, rep, err := pool.Scatter(context.Background(), poolReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OK) != 1 || len(rep.Degraded)+len(rep.Skipped)+len(rep.Attempts) != 0 {
		t.Fatalf("report = %+v, want a clean first-attempt answer", rep)
	}
	if len(hits) != 1 || hits[0] != (Hit{SeqID: "A", Score: 10}) {
		t.Fatalf("hits = %v", hits)
	}
}

// TestPoolReusesConnection: sequential scatters against one replica
// reach it over a single connection instead of dialing per request.
func TestPoolReusesConnection(t *testing.T) {
	leakcheck.Check(t)
	srv := startPoolShard(t, 0, 0)
	pool := NewPool([]string{srv.Addr()}, NewIndex(testSequences()), Policy{Timeout: 2 * time.Second})
	defer pool.Close()
	for i := 0; i < 20; i++ {
		scatterClean(t, pool)
	}
	if got := srv.accepts.Load(); got != 1 {
		t.Fatalf("20 scatters opened %d connections, want 1", got)
	}
}

// TestPoolRedialsClosedConnection: the shard closes the pooled
// connection while it idles, and the next scatter redials and answers
// cleanly. The redial is no retry, error, failover or breaker failure:
// one failure would trip this pool's breaker.
func TestPoolRedialsClosedConnection(t *testing.T) {
	leakcheck.Check(t)
	srv := startPoolShard(t, 0, 0)
	pool := NewPool([]string{srv.Addr()}, NewIndex(testSequences()), Policy{
		Timeout:         2 * time.Second,
		Retries:         2,
		RetryBase:       time.Millisecond,
		BreakerFailures: 1,
	})
	defer pool.Close()
	scatterClean(t, pool)
	r := pool.Shards()[0].Replicas[0]
	if n := len(idleConns(r)); n != 1 {
		t.Fatalf("%d idle connections after a clean exchange, want 1", n)
	}
	srv.drop()
	waitFor(t, "the shard to close its side", func() bool { return srv.liveConns() == 0 })

	scatterClean(t, pool)
	if got := srv.accepts.Load(); got != 2 {
		t.Fatalf("shard accepted %d connections, want 2 (one redial)", got)
	}
	met, rm := pool.Metrics().Shard(0), pool.Metrics().Replica(0, 0)
	for name, v := range map[string]int64{
		"requests":      met.Requests.Load() - 2,
		"errors":        met.Errors.Load(),
		"retries":       met.Retries.Load(),
		"failovers":     met.Failovers.Load(),
		"breaker trips": met.BreakerTrips.Load(),
		"degraded":      met.Degraded.Load(),
		"replica errs":  rm.Errors.Load(),
	} {
		if v != 0 {
			t.Errorf("%s off by %d after a stale-connection redial", name, v)
		}
	}
	if !r.brk.Closed() {
		t.Error("the redial fed the breaker a failure")
	}
}

// TestPoolNeverParksCutExchange: a connection whose exchange timed out,
// lost a hedge race, or answered for another request ID is closed,
// never returned to the idle stack.
func TestPoolNeverParksCutExchange(t *testing.T) {
	t.Run("timeout", func(t *testing.T) {
		leakcheck.Check(t)
		srv := startPoolShard(t, 1, 0)
		pool := NewPool([]string{srv.Addr()}, NewIndex(testSequences()), Policy{
			Timeout: 50 * time.Millisecond, BreakerFailures: 100,
		})
		defer pool.Close()
		if _, rep, _ := pool.Scatter(context.Background(), poolReq); !rep.Partial() {
			t.Fatalf("stalled shard answered: %+v", rep)
		}
		close(srv.release)
		awaitQueries(t)
		if n := len(idleConns(pool.Shards()[0].Replicas[0])); n != 0 {
			t.Fatalf("%d timed-out connections parked", n)
		}
		waitFor(t, "the timed-out connection to close", func() bool { return srv.liveConns() == 0 })
	})
	t.Run("hedge loser", func(t *testing.T) {
		leakcheck.Check(t)
		srv := startPoolShard(t, 1, 0)
		pool := NewPool([]string{srv.Addr()}, NewIndex(testSequences()), Policy{
			Timeout: 2 * time.Second, HedgeAfter: 20 * time.Millisecond,
		})
		defer pool.Close()
		_, rep, err := pool.Scatter(context.Background(), poolReq)
		if err != nil || len(rep.Degraded) != 1 || pool.Metrics().Shard(0).HedgeWins.Load() != 1 {
			t.Fatalf("report = %+v, err %v: want the hedge to win", rep, err)
		}
		close(srv.release)
		awaitQueries(t)
		idle := idleConns(pool.Shards()[0].Replicas[0])
		srv.mu.Lock()
		winner := srv.remotes[2]
		srv.mu.Unlock()
		if len(idle) != 1 || idle[0].LocalAddr().String() != winner {
			t.Fatalf("idle stack holds %d connections, want only the hedge's (%s)", len(idle), winner)
		}
		waitFor(t, "the losing connection to close", func() bool { return srv.liveConns() == 1 })
	})
	t.Run("mismatched id", func(t *testing.T) {
		leakcheck.Check(t)
		srv := startPoolShard(t, 0, 1)
		pool := NewPool([]string{srv.Addr()}, NewIndex(testSequences()), Policy{
			Timeout: 2 * time.Second, BreakerFailures: 100,
		})
		defer pool.Close()
		if _, rep, _ := pool.Scatter(context.Background(), poolReq); !rep.Partial() {
			t.Fatalf("misaddressed answer was merged: %+v", rep)
		}
		if n := len(idleConns(pool.Shards()[0].Replicas[0])); n != 0 {
			t.Fatalf("%d misaddressed connections parked", n)
		}
		waitFor(t, "the misaddressed connection to close", func() bool { return srv.liveConns() == 0 })
	})
}

// TestPoolCloseReleasesIdleConnections: Close hangs up every parked
// connection, and a scatter still running at or after Close closes its
// connection instead of parking it.
func TestPoolCloseReleasesIdleConnections(t *testing.T) {
	leakcheck.Check(t)
	srv := startPoolShard(t, 0, 0)
	pool := NewPool([]string{srv.Addr()}, NewIndex(testSequences()), Policy{Timeout: 2 * time.Second})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.Scatter(context.Background(), poolReq)
		}()
	}
	wg.Wait()
	r := pool.Shards()[0].Replicas[0]
	if n, live := len(idleConns(r)), srv.liveConns(); n == 0 || n != live {
		t.Fatalf("%d idle connections against %d open at the shard, want equal and > 0", n, live)
	}
	pool.Close()
	if n := len(idleConns(r)); n != 0 {
		t.Fatalf("%d idle connections after Close", n)
	}
	waitFor(t, "the shard to see every connection closed", func() bool { return srv.liveConns() == 0 })

	scatterClean(t, pool)
	if n := len(idleConns(r)); n != 0 {
		t.Fatalf("a closed pool parked %d connections", n)
	}
	waitFor(t, "the post-Close connection to close", func() bool { return srv.liveConns() == 0 })
}
