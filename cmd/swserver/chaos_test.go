//go:build failpoint

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"swvec"
	"swvec/internal/failpoint"
	"swvec/internal/serve"
)

// TestServerBreakerTripsAndRecovers drives the full breaker lifecycle
// over the wire: injected compute faults fail two batches and trip the
// breaker, the next request is fast-rejected at admission, and after
// the cooldown a probe batch (fault exhausted) closes the breaker
// again.
func TestServerBreakerTripsAndRecovers(t *testing.T) {
	defer failpoint.DisableAll()
	db := swvec.GenerateDatabase(55, 16)
	_, _, addr := startServerWithConfig(t, db, serve.Config{MaxConns: 4, Idle: time.Minute}, serverConfig{
		batchSize: 1, reqTimeout: 30 * time.Second,
		breakFails: 2, breakCooldown: 300 * time.Millisecond,
	})
	if err := failpoint.Enable("swserver/search", "error(compute down):first=2"); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, addr)
	frag := string(db[0].Residues[:40])

	for _, id := range []string{"fail1", "fail2"} {
		resp := c.roundTrip(request{ID: id, Residues: frag, Top: 1})
		if resp.Code != codeInternal || !strings.Contains(resp.Error, "compute down") {
			t.Fatalf("%s: got %+v, want internal compute-down error", id, resp)
		}
	}

	// Two consecutive batch failures have tripped the breaker: the next
	// request must be refused at admission, before any compute.
	resp := c.roundTrip(request{ID: "rejected", Residues: frag, Top: 1})
	if resp.Code != codeUnavailable {
		t.Fatalf("open breaker answered %+v, want code %q", resp, codeUnavailable)
	}

	// After the cooldown the next batch is the half-open probe; the
	// injected fault is exhausted, so it succeeds and closes the
	// breaker.
	time.Sleep(500 * time.Millisecond)
	resp = c.roundTrip(request{ID: "probe", Residues: frag, Top: 1})
	if resp.Error != "" || len(resp.Hits) == 0 {
		t.Fatalf("probe request got %+v, want hits", resp)
	}
	resp = c.roundTrip(request{ID: "after", Residues: frag, Top: 1})
	if resp.Error != "" || len(resp.Hits) == 0 {
		t.Fatalf("post-recovery request got %+v, want hits", resp)
	}

	stats := swvec.GlobalStats()
	if stats.BreakerTrips == 0 {
		t.Error("BreakerTrips counter never incremented")
	}
	if stats.BreakerRejected == 0 {
		t.Error("BreakerRejected counter never incremented")
	}
}

// TestServerRequestFaultIsIsolated: a fault injected on the request
// admission path poisons only that request — the connection and the
// next request work normally.
func TestServerRequestFaultIsIsolated(t *testing.T) {
	defer failpoint.DisableAll()
	db := swvec.GenerateDatabase(56, 8)
	_, _, addr := startServerWithConfig(t, db, serve.Config{MaxConns: 4, Idle: time.Minute},
		serverConfig{batchSize: 2, reqTimeout: 30 * time.Second})
	if err := failpoint.Enable("serve/request", "error(request glitch):first=1"); err != nil {
		t.Fatal(err)
	}
	c := dialTest(t, addr)
	frag := string(db[0].Residues[:40])

	resp := c.roundTrip(request{ID: "glitched", Residues: frag, Top: 1})
	if resp.Code != codeInternal || !strings.Contains(resp.Error, "request glitch") {
		t.Fatalf("got %+v, want the injected request fault", resp)
	}
	resp = c.roundTrip(request{ID: "fine", Residues: frag, Top: 1})
	if resp.Error != "" || len(resp.Hits) == 0 {
		t.Fatalf("request after the fault got %+v, want hits", resp)
	}
}

// TestServerShutdownFlushesQueue starts Shutdown while admitted
// requests wait in the queue behind a running batch: batches of one,
// each held 300 ms by the swserver/search failpoint. Drain must still
// answer every queued request with its real hits.
func TestServerShutdownFlushesQueue(t *testing.T) {
	defer failpoint.DisableAll()
	db := swvec.GenerateDatabase(45, 32)
	srv, fe, addr := startServerWithConfig(t, db, serve.Config{MaxConns: 4, Idle: time.Minute},
		serverConfig{batchSize: 1, reqTimeout: 30 * time.Second})
	if err := failpoint.Enable("swserver/search", "delay(300ms)"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	send := func(si int) {
		t.Helper()
		if err := enc.Encode(request{ID: db[si].ID, Residues: string(db[si].Residues[:40]), Top: 1}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// The first query's batch is computing once the failpoint fires;
	// the next two then queue behind it.
	sources := []int{3, 9, 20}
	send(sources[0])
	waitFor("the first batch", func() bool { return failpoint.Fired("swserver/search") == 1 })
	send(sources[1])
	send(sources[2])
	waitFor("two queued requests", func() bool { return len(srv.queue) == 2 })

	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	}()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := json.NewDecoder(bufio.NewReader(conn))
	got := map[string]response{}
	for range sources {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("shutdown did not answer every queued request: %v", err)
		}
		got[resp.ID] = resp
	}
	for _, si := range sources {
		resp := got[db[si].ID]
		if resp.Error != "" || len(resp.Hits) == 0 || resp.Hits[0].SeqID != db[si].ID {
			t.Errorf("%s answered %+v, want its own sequence as the top hit", db[si].ID, resp)
		}
	}
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not return")
	}
}
