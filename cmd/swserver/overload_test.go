package main

import (
	"encoding/json"
	"net"
	"testing"
	"time"

	"swvec"
	"swvec/internal/serve"
)

// testClient is a sequential request/response JSON client.
type testClient struct {
	t    *testing.T
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialTest(t *testing.T, addr string) *testClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &testClient{t: t, conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(conn)}
}

func (c *testClient) roundTrip(req request) response {
	c.t.Helper()
	if err := c.enc.Encode(req); err != nil {
		c.t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(15 * time.Second))
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		c.t.Fatal(err)
	}
	return resp
}

// TestServerShedsWhenQueueFull offers a request to a server whose
// queue is already at capacity (no batcher draining it): admission must
// refuse it at once with the overloaded code, not block the read loop.
func TestServerShedsWhenQueueFull(t *testing.T) {
	al, err := swvec.New(swvec.WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	db := swvec.GenerateDatabase(50, 4)
	srv := newServer(al, db, serverConfig{batchSize: 1})
	srv.logf = t.Logf
	for i := 0; i < cap(srv.queue); i++ {
		srv.queue <- pending{req: request{ID: "parked"}, reply: make(chan response, 1)}
	}
	shedBefore := swvec.GlobalStats().Shed

	reply, refused := srv.Admit(&request{ID: "shed-me", Residues: "MKVLAW"}, make(chan struct{}))
	if reply != nil || refused == nil || refused.Code != codeOverloaded {
		t.Fatalf("refusal = %+v, want code %q", refused, codeOverloaded)
	}
	if got := swvec.GlobalStats().Shed; got != shedBefore+1 {
		t.Errorf("Shed counter went %d -> %d, want +1", shedBefore, got)
	}
}

// TestServerRejectsOversizedSequence: a query past -max-seq gets a
// structured too_large refusal and never reaches the compute queue.
func TestServerRejectsOversizedSequence(t *testing.T) {
	db := swvec.GenerateDatabase(51, 8)
	_, _, addr := startServerWithConfig(t, db,
		serve.Config{MaxConns: 4, Idle: time.Minute, MaxSeq: 50},
		serverConfig{batchSize: 2, reqTimeout: 30 * time.Second})
	c := dialTest(t, addr)

	big := make([]byte, 100)
	for i := range big {
		big[i] = 'M'
	}
	resp := c.roundTrip(request{ID: "big", Residues: string(big)})
	if resp.Code != codeTooLarge || resp.Error == "" {
		t.Fatalf("oversized query got %+v, want code %q", resp, codeTooLarge)
	}

	// The connection stays usable and an in-limit query still works.
	frag := db[0].Residues
	if len(frag) > 50 {
		frag = frag[:50]
	}
	resp = c.roundTrip(request{ID: "ok", Residues: string(frag), Top: 1})
	if resp.Error != "" || len(resp.Hits) == 0 {
		t.Fatalf("in-limit query got %+v", resp)
	}
}

// TestServerBodyLimit: a request line past -max-body gets a too_large
// refusal and the connection is dropped (the scanner cannot recover
// mid-line).
func TestServerBodyLimit(t *testing.T) {
	db := swvec.GenerateDatabase(52, 8)
	_, _, addr := startServerWithConfig(t, db,
		serve.Config{MaxConns: 4, Idle: time.Minute, MaxBody: 4096},
		serverConfig{batchSize: 2, reqTimeout: 30 * time.Second})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	line := make([]byte, 8192)
	for i := range line {
		line[i] = 'x'
	}
	line[len(line)-1] = '\n'
	// The server may close mid-write once the limit trips; the refusal
	// is still queued for us, so a write error here is fine.
	conn.Write(line)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var resp response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("no structured refusal before close: %v", err)
	}
	if resp.Code != codeTooLarge {
		t.Fatalf("response = %+v, want code %q", resp, codeTooLarge)
	}
}

// TestServerRejectsInvalidResiduesCode upgrades the existing invalid
// residue check: the refusal must carry the bad_request code and must
// not poison other queries batched with it.
func TestServerRejectsInvalidResiduesCode(t *testing.T) {
	db := swvec.GenerateDatabase(53, 8)
	_, _, addr := startServerWithConfig(t, db, serve.Config{MaxConns: 4, Idle: time.Minute},
		serverConfig{batchSize: 2, reqTimeout: 30 * time.Second})
	c := dialTest(t, addr)
	resp := c.roundTrip(request{ID: "bad", Residues: "MK1VLAW"})
	if resp.Code != codeBadRequest {
		t.Fatalf("invalid residues got %+v, want code %q", resp, codeBadRequest)
	}
	frag := db[1].Residues[:40]
	resp = c.roundTrip(request{ID: "good", Residues: string(frag), Top: 1})
	if resp.Error != "" || len(resp.Hits) == 0 {
		t.Fatalf("valid query after a rejected one got %+v", resp)
	}
}

// TestServerAnswersUnderQueuePressure calls process directly with the
// queue held at three quarters full: the batch must still answer
// correctly, on the server's one aligner.
func TestServerAnswersUnderQueuePressure(t *testing.T) {
	al, err := swvec.New(swvec.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	db := swvec.GenerateDatabase(54, 16)
	srv := newServer(al, db, serverConfig{batchSize: 1, reqTimeout: 30 * time.Second})
	srv.logf = t.Logf
	for i := 0; i < 3*cap(srv.queue)/4; i++ {
		srv.queue <- pending{req: request{ID: "parked"}, reply: make(chan response, 1)}
	}

	frag := db[2].Residues
	if len(frag) > 60 {
		frag = frag[:60]
	}
	reply := make(chan response, 1)
	srv.process([]pending{{req: request{ID: "q", Residues: string(frag), Top: 1}, reply: reply}})
	resp := <-reply
	if resp.Error != "" {
		t.Fatalf("batch under pressure failed: %+v", resp)
	}
	if len(resp.Hits) == 0 || resp.Hits[0].SeqID != db[2].ID {
		t.Fatalf("batch under pressure hits = %+v, want self top hit", resp.Hits)
	}
}
