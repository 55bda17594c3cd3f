package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/leakcheck"
	"swvec/internal/metrics"
)

// fakeBackend admits every request unless refuse is set, and answers it
// with answer (an echo of the ID by default) once release is closed.
type fakeBackend struct {
	refuse  *cluster.Response
	answer  func(req cluster.Request) any
	release chan struct{}

	mu       sync.Mutex
	admitted []string
	drained  atomic.Bool
	// admitAfterDrain counts Admit calls that arrived after Drain began.
	admitAfterDrain atomic.Int64
}

func newFake() *fakeBackend {
	b := &fakeBackend{release: make(chan struct{})}
	close(b.release)
	return b
}

func (b *fakeBackend) Admit(req *cluster.Request, closing <-chan struct{}) (func() any, *cluster.Response) {
	if b.drained.Load() {
		b.admitAfterDrain.Add(1)
	}
	if b.refuse != nil {
		r := *b.refuse
		return nil, &r
	}
	b.mu.Lock()
	b.admitted = append(b.admitted, req.ID)
	b.mu.Unlock()
	q := *req
	return func() any {
		<-b.release
		if b.answer != nil {
			return b.answer(q)
		}
		return cluster.Response{ID: q.ID}
	}, nil
}

func (b *fakeBackend) Drain(context.Context) { b.drained.Store(true) }

// waitAdmitted waits until b has admitted n requests.
func waitAdmitted(t *testing.T, b *fakeBackend, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		got := len(b.admitted)
		b.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests admitted", got, n)
		}
	}
}

// startFake serves b on a loopback port and shuts it down at cleanup.
func startFake(t *testing.T, b Backend, cfg Config) (*Server, string) {
	t.Helper()
	al, err := swvec.New()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Validate = al.ValidateSequence
	cfg.Logf = t.Logf
	s := New(ln, b, cfg)
	go s.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ln.Addr().String()
}

// exchange sends each line on one connection and returns the decoded
// replies.
func exchange(t *testing.T, addr string, lines ...string) []cluster.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(15 * time.Second))
	dec := json.NewDecoder(bufio.NewReader(conn))
	var out []cluster.Response
	for _, line := range lines {
		conn.Write([]byte(line + "\n"))
		var resp cluster.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("reply to %.40q: %v", line, err)
		}
		out = append(out, resp)
	}
	return out
}

// TestAdmissionOrder walks one connection through every shared
// admission step and checks each refusal's ID, code and counter, and
// that only the valid search reaches the backend.
func TestAdmissionOrder(t *testing.T) {
	leakcheck.Check(t)
	b := newFake()
	_, addr := startFake(t, b, Config{MaxConns: 4, MaxSeq: 10})
	before := metrics.Global.Snapshot()

	got := exchange(t, addr,
		`{"id":"p","type":"ping","residues":"!!"}`,
		`not json`,
		`{"id":"u","type":"nope"}`,
		`{"id":"big","residues":"ACDEFGHIKLM"}`,
		`{"id":"bad","residues":"AC1"}`,
		`{"id":"ok","residues":"ACDEF"}`,
	)
	want := []struct{ id, code string }{
		{"p", ""}, {"", cluster.CodeBadRequest}, {"u", cluster.CodeBadRequest},
		{"big", cluster.CodeTooLarge}, {"bad", cluster.CodeBadRequest}, {"ok", ""},
	}
	for i, w := range want {
		if got[i].ID != w.id || got[i].Code != w.code {
			t.Errorf("reply %d = %+v, want id %q code %q", i, got[i], w.id, w.code)
		}
	}
	b.mu.Lock()
	if len(b.admitted) != 1 || b.admitted[0] != "ok" {
		t.Errorf("backend admitted %v, want [ok]", b.admitted)
	}
	b.mu.Unlock()
	after := metrics.Global.Snapshot()
	if after.Oversized-before.Oversized != 1 || after.Malformed-before.Malformed != 1 {
		t.Errorf("oversized +%d malformed +%d, want +1 each",
			after.Oversized-before.Oversized, after.Malformed-before.Malformed)
	}
}

// TestBackendRefusalCarriesID: a backend refusal goes back at once with
// the request's ID filled in, and the connection stays usable.
func TestBackendRefusalCarriesID(t *testing.T) {
	leakcheck.Check(t)
	b := newFake()
	b.refuse = &cluster.Response{Error: "full", Code: cluster.CodeOverloaded}
	_, addr := startFake(t, b, Config{MaxConns: 1})
	got := exchange(t, addr, `{"id":"a","residues":"ACD"}`, `{"id":"b","type":"ping"}`)
	if got[0].ID != "a" || got[0].Code != cluster.CodeOverloaded || got[0].Error != "full" {
		t.Errorf("refusal = %+v", got[0])
	}
	if got[1].ID != "b" || got[1].Error != "" {
		t.Errorf("ping after refusal = %+v", got[1])
	}
}

// TestBodyLimitDropsConnection: a line over MaxBody is refused with
// too_large and the connection is closed, since the scanner cannot
// resynchronize mid-line.
func TestBodyLimitDropsConnection(t *testing.T) {
	leakcheck.Check(t)
	_, addr := startFake(t, newFake(), Config{MaxConns: 1, MaxBody: 1024})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	conn.Write([]byte(strings.Repeat("x", 4096) + "\n"))
	dec := json.NewDecoder(conn)
	var resp cluster.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no refusal before close: %v", err)
	}
	if resp.Code != cluster.CodeTooLarge || resp.Error != "request exceeds 1024-byte line limit" {
		t.Fatalf("refusal = %+v", resp)
	}
	if err := dec.Decode(&resp); err == nil {
		t.Fatalf("connection still open, read %+v", resp)
	}
}

// TestLineGrowsToBodyLimit: a connection's line buffer starts at 4 KiB
// and grows up to MaxBody, so a search line past 4 KiB but within the
// limit is admitted and answered, and one past the limit is refused
// with too_large.
func TestLineGrowsToBodyLimit(t *testing.T) {
	leakcheck.Check(t)
	b := newFake()
	_, addr := startFake(t, b, Config{MaxConns: 1, MaxBody: 16 << 10})
	long := fmt.Sprintf(`{"id":"long","residues":"%s"}`, strings.Repeat("ACDEFGHIKL", 1000))
	if len(long) <= 4<<10 || len(long) > 16<<10 {
		t.Fatalf("line of %d bytes does not sit between 4 KiB and MaxBody", len(long))
	}
	got := exchange(t, addr, long, strings.Repeat("x", 17<<10))
	if got[0].ID != "long" || got[0].Error != "" {
		t.Fatalf("long line answered %+v, want the backend's echo", got[0])
	}
	if got[1].Code != cluster.CodeTooLarge || got[1].Error != "request exceeds 16384-byte line limit" {
		t.Fatalf("line past MaxBody answered %+v, want too_large", got[1])
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.admitted) != 1 {
		t.Fatalf("backend admitted %v, want only the long search", b.admitted)
	}
}

// TestShutdownOrder parks a reply inside the backend and shuts down:
// the backend drains only after every reader has retired (no Admit
// after Drain), the parked reply is still delivered, Shutdown returns,
// and the listener refuses new connections.
func TestShutdownOrder(t *testing.T) {
	leakcheck.Check(t)
	b := &fakeBackend{release: make(chan struct{})}
	b.answer = func(req cluster.Request) any {
		return cluster.Response{ID: req.ID, Hits: []cluster.Hit{{SeqID: "s", Score: 1}}}
	}
	s, addr := startFake(t, b, Config{MaxConns: 4, Idle: time.Minute})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(`{"id":"parked","residues":"ACD"}` + "\n"))
	waitAdmitted(t, b, 1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	for deadline := time.Now().Add(5 * time.Second); !b.drained.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("backend never drained")
		}
	}
	close(b.release)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var resp cluster.Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil || resp.ID != "parked" || len(resp.Hits) != 1 {
		t.Fatalf("parked reply = %+v, %v", resp, err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if n := b.admitAfterDrain.Load(); n != 0 {
		t.Fatalf("%d request(s) admitted after Drain", n)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownBoundedByContext: a reply that never comes cannot hold
// Shutdown past its context.
func TestShutdownBoundedByContext(t *testing.T) {
	b := &fakeBackend{release: make(chan struct{})}
	s, addr := startFake(t, b, Config{MaxConns: 1})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte(`{"id":"stuck","residues":"ACD"}` + "\n"))
	waitAdmitted(t, b, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Shutdown(ctx)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Shutdown took %s with a 200ms context", el)
	}
	close(b.release)
}

// TestStartAdmin binds port 0, logs and returns the bound address, and
// serves /debug/vars there; a taken port is an error.
func TestStartAdmin(t *testing.T) {
	var logged string
	ln, err := StartAdmin("127.0.0.1:0", nil, func(format string, args ...any) {
		logged += fmt.Sprintf(format, args...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	if !strings.Contains(logged, "event=admin_listen addr="+addr) {
		t.Fatalf("log %q does not name the bound address %s", logged, addr)
	}
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil || vars["swvec.search"] == nil {
		t.Fatalf("/debug/vars: %v, swvec.search present: %t", err, vars["swvec.search"] != nil)
	}
	if _, err := StartAdmin(addr, nil, t.Logf); err == nil {
		t.Fatal("second admin listener on a taken port did not fail")
	}
}

// TestRunClient covers the shared -connect client against a scripted
// backend: a normal reply, an error reply, a partial router reply, and
// a refused connection.
func TestRunClient(t *testing.T) {
	b := newFake()
	b.answer = func(req cluster.Request) any {
		hits := []cluster.Hit{{SeqID: "s1", Score: 42}}
		switch req.ID {
		case "err":
			return cluster.Response{ID: req.ID, Error: "kernel exploded", Code: cluster.CodeInternal}
		case "part":
			return Response{
				Response: cluster.Response{ID: req.ID, Hits: hits},
				Shards: &cluster.ShardReport{Total: 2, OK: []int{0}, Skipped: []int{1},
					Attempts: map[string][]cluster.ReplicaAttempt{"1": {{Replica: 0, Addr: "x:1", Cause: "dial refused"}}}},
				Partial: true,
			}
		}
		return cluster.Response{ID: req.ID, Hits: hits}
	}
	_, addr := startFake(t, b, Config{MaxConns: 4})
	dir := t.TempDir()
	run := func(target string, ids ...string) (int, string) {
		t.Helper()
		var fasta strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&fasta, ">%s\nACDEFG\n", id)
		}
		path := filepath.Join(dir, strings.Join(ids, "_")+".fasta")
		if err := os.WriteFile(path, []byte(fasta.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		code, err := RunClient(&out, target, path, 3, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return code, out.String()
	}

	cases := []struct {
		name   string
		target string
		ids    []string
		code   int
		out    string
	}{
		{"normal", addr, []string{"ok"}, 0, "ok:\n   1. score    42  s1\n"},
		{"error", addr, []string{"ok", "err"}, 1, "ok:\n   1. score    42  s1\nerr: error: kernel exploded\n"},
		{"partial", addr, []string{"part"}, 1,
			"part: (PARTIAL: shards [1] missing)\n   1. score    42  s1\n  shard 1 replica 0 (x:1): dial refused\n"},
	}
	for _, tc := range cases {
		code, out := run(tc.target, tc.ids...)
		if code != tc.code || out != tc.out {
			t.Errorf("%s: exit %d, output\n%s\nwant exit %d, output\n%s", tc.name, code, out, tc.code, tc.out)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	code, out := run(dead, "q1", "q2")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 1 || len(lines) != 2 || !strings.HasPrefix(lines[0], "q1: error: connect: ") || !strings.HasPrefix(lines[1], "q2: error: connect: ") {
		t.Fatalf("refused connection: exit %d, output\n%s\nwant one connect error line per query and exit 1", code, out)
	}
}
