package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swvec/internal/leakcheck"
	"swvec/internal/seqio"
)

// testSequences is the tiny database the probe tests merge against.
func testSequences() []seqio.Sequence {
	return []seqio.Sequence{
		{ID: "A", Residues: []byte("ACDE")},
		{ID: "B", Residues: []byte("FGHI")},
	}
}

// flappyServer is a wire-protocol stub whose health is a switch: while
// down it slams every accepted connection, while up it echoes pings
// and answers searches with canned hits. The address never changes
// across flaps, which is exactly what a crashing-and-restarting shard
// process behind a stable endpoint looks like. searches counts the
// search requests it answered.
type flappyServer struct {
	ln       net.Listener
	down     atomic.Bool
	hits     []Hit
	searches atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func startFlappyServer(t *testing.T, hits []Hit) *flappyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &flappyServer{ln: ln, hits: hits, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.serve()
	t.Cleanup(s.Close)
	return s
}

func (s *flappyServer) Addr() string { return s.ln.Addr().String() }

func (s *flappyServer) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.down.Load() {
			conn.Close()
			continue
		}
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
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				var req Request
				if json.Unmarshal(sc.Bytes(), &req) != nil {
					return
				}
				if s.down.Load() {
					return
				}
				resp := Response{ID: req.ID}
				if req.Type != TypePing {
					s.searches.Add(1)
					resp.Hits = s.hits
				}
				if json.NewEncoder(conn).Encode(resp) != nil {
					return
				}
			}
		}()
	}
}

func (s *flappyServer) Close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// TestProberReintegratesFlappingReplica drives the full health cycle
// without failpoints: a primary goes down, queries fail over to the
// sibling and the tripped breaker quarantines the primary; while the
// prober's pings keep failing the primary stays quarantined (queries
// never probe it — admission is a pure read); once the
// process is healthy again the prober's half-open ping reintegrates
// it, and queries return to the primary with no failover.
func TestProberReintegratesFlappingReplica(t *testing.T) {
	leakcheck.Check(t)
	db := testSequences()
	primary := startFlappyServer(t, []Hit{{SeqID: "A", Score: 10}})
	sibling := startFlappyServer(t, []Hit{{SeqID: "A", Score: 10}})

	pol := Policy{
		Timeout:         time.Second,
		Retries:         0,
		RetryBase:       time.Millisecond,
		RetryMax:        2 * time.Millisecond,
		BreakerFailures: 1,
		BreakerCooldown: 30 * time.Millisecond,
		ProbeInterval:   15 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
	}
	pool := NewReplicatedPool([][]string{{primary.Addr(), sibling.Addr()}}, NewIndex(db), pol)
	pool.StartProber()
	defer pool.Close()

	req := Request{ID: "q", Residues: "ACDEFGHIKL", Top: 1}
	scatter := func() ShardReport {
		t.Helper()
		_, rep, err := pool.Scatter(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Healthy primary: eventually a clean first-attempt answer (the
	// first scatter may race the initial probe round).
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := scatter()
		if len(rep.OK) == 1 && len(rep.Attempts) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no clean primary answer before going down: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the primary: the next scatters must stay complete via
	// failover, and the breaker must trip into quarantine.
	primary.down.Store(true)
	for {
		rep := scatter()
		if rep.Partial() {
			t.Fatalf("failover lost completeness: %+v", rep)
		}
		if len(rep.Attempts["0"]) == 1 && rep.Attempts["0"][0].Replica == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("primary never recorded a failed/quarantined attempt: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// While down past the cooldown, reintegration attempts belong to
	// the prober alone: probes fail, the replica stays down, and
	// queries keep being served by the sibling without partials.
	time.Sleep(2 * pol.BreakerCooldown)
	met := pool.Metrics().Replica(0, 0)
	if met.Probes.Load() == 0 || met.ProbeFailures.Load() == 0 {
		t.Fatalf("prober idle while replica down: probes=%d failures=%d",
			met.Probes.Load(), met.ProbeFailures.Load())
	}
	if rep := scatter(); rep.Partial() {
		t.Fatalf("quarantined primary made the response partial: %+v", rep)
	}

	// Revive the process: only a successful half-open probe may close
	// the breaker, after which queries flow to the primary again.
	primary.down.Store(false)
	for {
		rep := scatter()
		if len(rep.OK) == 1 && len(rep.Attempts) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never reintegrated the revived primary: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if met.StateChanges.Load() < 2 {
		t.Fatalf("state transitions = %d, want >= 2 (down then healthy)", met.StateChanges.Load())
	}
}

// TestQueriesNeverReintegrateReplica: a single replica whose breaker
// tripped stays quarantined after it is healthy again and its cooldown
// has passed — queries are skipped with the awaiting-probe cause and
// none reaches the process — until the prober's ping reintegrates it.
// One replica gets the same health model as several.
func TestQueriesNeverReintegrateReplica(t *testing.T) {
	leakcheck.Check(t)
	srv := startFlappyServer(t, []Hit{{SeqID: "A", Score: 10}})
	pol := Policy{
		Timeout:         time.Second,
		BreakerFailures: 1,
		BreakerCooldown: 20 * time.Millisecond,
		ProbeInterval:   10 * time.Millisecond,
		ProbeTimeout:    500 * time.Millisecond,
	}
	pool := NewPool([]string{srv.Addr()}, NewIndex(testSequences()), pol)
	req := Request{ID: "q", Residues: "ACDEFGHIKL", Top: 1}
	scatter := func() ShardReport {
		t.Helper()
		_, rep, err := pool.Scatter(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	srv.down.Store(true)
	if rep := scatter(); !rep.Partial() {
		t.Fatalf("dead replica answered: %+v", rep)
	}
	srv.down.Store(false)
	time.Sleep(2 * pol.BreakerCooldown)

	searches := srv.searches.Load()
	rep := scatter()
	if !rep.Partial() {
		t.Fatalf("a query reintegrated the replica: %+v", rep)
	}
	if cause := rep.Causes["0"]; cause != "quarantined: awaiting reintegration probe" {
		t.Fatalf("quarantine cause = %q", cause)
	}
	if got := srv.searches.Load(); got != searches {
		t.Fatalf("quarantined replica answered %d queries", got-searches)
	}

	pool.StartProber()
	defer pool.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep := scatter()
		if len(rep.OK) == 1 && len(rep.Attempts) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("prober never reintegrated the healthy replica: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProberStopJoins: StopProber returns only after the loop and its
// pings are gone (the leakcheck above would catch a stray goroutine,
// this asserts the lifecycle is idempotent too).
func TestProberStopJoins(t *testing.T) {
	leakcheck.Check(t)
	srv := startFlappyServer(t, nil)
	pool := NewReplicatedPool([][]string{{srv.Addr(), srv.Addr()}}, NewIndex(testSequences()), Policy{
		ProbeInterval: 5 * time.Millisecond,
	})
	pool.StartProber()
	pool.StartProber() // second start is a no-op
	time.Sleep(20 * time.Millisecond)
	pool.StopProber()
	pool.StopProber() // second stop is a no-op
	if pool.Metrics().Replica(0, 0).Probes.Load() == 0 {
		t.Fatal("prober never pinged")
	}
}
