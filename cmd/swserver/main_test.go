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
	"swvec/internal/serve"
)

// startTestServer wires a full server (batcher + front end) on an
// ephemeral port, mirroring runServer without the fatal-exit paths.
func startTestServer(t *testing.T, db []swvec.Sequence, batchSize int) (*serve.Server, string) {
	t.Helper()
	_, fe, addr := startServerWithConfig(t, db, serve.Config{MaxConns: 16, Idle: time.Minute},
		serverConfig{batchSize: batchSize, reqTimeout: 30 * time.Second})
	return fe, addr
}

// startServerWithConfig is startTestServer with every knob exposed; it
// also returns the backend, whose queue tests can watch.
func startServerWithConfig(t *testing.T, db []swvec.Sequence, front serve.Config, cfg serverConfig) (*server, *serve.Server, string) {
	t.Helper()
	al, err := swvec.New(swvec.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(al, db, cfg)
	srv.logf = t.Logf
	front.Logf = t.Logf
	fe := srv.frontEnd(ln, front)
	go fe.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fe.Shutdown(ctx)
	})
	return srv, fe, ln.Addr().String()
}

func TestServerEndToEnd(t *testing.T) {
	db := swvec.GenerateDatabase(42, 48)
	_, addr := startTestServer(t, db, 4)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Submit three queries that are fragments of known database
	// entries; their top hit must be the source sequence.
	sources := []int{5, 17, 33}
	enc := json.NewEncoder(conn)
	for _, si := range sources {
		frag := db[si].Residues
		if len(frag) > 120 {
			frag = frag[:120]
		}
		if err := enc.Encode(request{ID: db[si].ID, Residues: string(frag), Top: 3}); err != nil {
			t.Fatal(err)
		}
	}

	dec := json.NewDecoder(bufio.NewReader(conn))
	got := map[string]response{}
	for range sources {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		got[resp.ID] = resp
	}
	for _, si := range sources {
		resp, ok := got[db[si].ID]
		if !ok {
			t.Fatalf("no response for %s", db[si].ID)
		}
		if resp.Error != "" {
			t.Fatalf("%s: %s", resp.ID, resp.Error)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].SeqID != db[si].ID {
			t.Fatalf("%s: top hit %+v, want self", resp.ID, resp.Hits)
		}
	}
}

// TestServerPing covers the health-probe round-trip: a TypePing
// request echoes its ID with no error, bypasses admission entirely
// (no residues, no validation — an empty search would be rejected),
// and an unknown type is refused as a bad request.
func TestServerPing(t *testing.T) {
	db := swvec.GenerateDatabase(44, 8)
	_, addr := startTestServer(t, db, 2)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(bufio.NewReader(conn))

	if err := enc.Encode(request{ID: "ping-1", Type: "ping"}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "ping-1" || resp.Error != "" {
		t.Fatalf("ping answered %+v, want echoed ID and no error", resp)
	}

	if err := enc.Encode(request{ID: "odd", Type: "no-such-type"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != codeBadRequest {
		t.Fatalf("unknown type answered code %q, want %q", resp.Code, codeBadRequest)
	}
}

func TestServerRejectsBadRequest(t *testing.T) {
	db := swvec.GenerateDatabase(43, 8)
	_, addr := startTestServer(t, db, 2)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("malformed request should produce an error response")
	}
}

func TestServerRejectsInvalidResidues(t *testing.T) {
	db := swvec.GenerateDatabase(44, 8)
	_, addr := startTestServer(t, db, 2)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	if err := enc.Encode(request{ID: "bad", Residues: "MK1VLAW"}); err != nil {
		t.Fatal(err)
	}
	var resp response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Fatal("invalid residues should produce an error response")
	}
}

// TestServerGracefulShutdown shuts the server down with two admitted
// queries: each still gets its real response, Shutdown returns, and
// the listener stops accepting. TestServerShutdownFlushesQueue (chaos
// build) holds the queries in the queue behind a running batch, so it
// pins the flush itself.
func TestServerGracefulShutdown(t *testing.T) {
	db := swvec.GenerateDatabase(45, 32)
	srv, addr := startTestServer(t, db, 16)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sources := []int{3, 9}
	enc := json.NewEncoder(conn)
	for _, si := range sources {
		frag := db[si].Residues
		if len(frag) > 100 {
			frag = frag[:100]
		}
		if err := enc.Encode(request{ID: db[si].ID, Residues: string(frag), Top: 1}); err != nil {
			t.Fatal(err)
		}
	}

	// Give the requests time to be admitted, then trigger the graceful
	// stop.
	time.Sleep(100 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := json.NewDecoder(bufio.NewReader(conn))
	got := map[string]response{}
	for range sources {
		var resp response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("flush did not deliver all replies: %v", err)
		}
		got[resp.ID] = resp
	}
	for _, si := range sources {
		resp, ok := got[db[si].ID]
		if !ok {
			t.Fatalf("no response for %s", db[si].ID)
		}
		if resp.Error != "" {
			t.Fatalf("%s: %s", resp.ID, resp.Error)
		}
		if len(resp.Hits) == 0 || resp.Hits[0].SeqID != db[si].ID {
			t.Fatalf("%s: top hit %+v, want self", resp.ID, resp.Hits)
		}
	}

	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not return")
	}

	// A post-shutdown connection must be refused.
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestServerShutdownRefusesNewRequests covers the race window where a
// request arrives while shutdown is in progress: it must get an
// explicit error response, not hang or panic on the closing queue.
func TestServerShutdownRefusesNewRequests(t *testing.T) {
	db := swvec.GenerateDatabase(46, 16)
	srv, addr := startTestServer(t, db, 4)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)

	// The connection predates shutdown, so the write may still land in
	// the scanner before its deadline fires; either a "shutting down"
	// error response or a closed connection is acceptable — a hang or
	// panic is not.
	enc := json.NewEncoder(conn)
	frag := db[0].Residues[:40]
	if err := enc.Encode(request{ID: "late", Residues: string(frag)}); err != nil {
		return // connection already torn down: fine
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return // closed without response: fine
	}
	if resp.Error == "" || !strings.Contains(resp.Error, "shutting down") {
		t.Fatalf("late request got %+v, want shutting-down error", resp)
	}
}
