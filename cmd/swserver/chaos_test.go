//go:build failpoint

package main

import (
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
	_, addr := startServerWithConfig(t, db, serve.Config{MaxConns: 4, Idle: time.Minute}, serverConfig{
		batchSize: 1, window: time.Millisecond, reqTimeout: 30 * time.Second,
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
	_, addr := startServerWithConfig(t, db, serve.Config{MaxConns: 4, Idle: time.Minute},
		serverConfig{batchSize: 2, window: 20 * time.Millisecond, reqTimeout: 30 * time.Second})
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
