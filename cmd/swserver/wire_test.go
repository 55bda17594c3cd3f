package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"swvec"
)

// wireStep is one line of the wire-equivalence script and the reply it
// must decode to.
type wireStep struct {
	name string
	line string
	want response
}

// TestWireEquivalence drives the built swserver binary through a fixed
// admission script on one connection and pins every reply's ID, hits,
// error text and code, plus the admission counters the script moves.
// It exercises only the command line and the wire, so the same script
// holds whatever the server's internals look like.
func TestWireEquivalence(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "swserver")
	if out, err := exec.Command("go", "build", "-o", bin, "swvec/cmd/swserver").CombinedOutput(); err != nil {
		t.Fatalf("building swserver: %v\n%s", err, out)
	}
	admin := reserveAddr(t)
	addr := startWireBinary(t, bin, "-listen", "127.0.0.1:0", "-gen-db", "20", "-threads", "1",
		"-batch", "1", "-max-seq", "300", "-max-body", "4096", "-admin", admin)

	db := swvec.GenerateDatabase(42, 20) // the fixed seed -gen-db serves
	steps := []wireStep{
		{"ping", `{"id":"p1","type":"ping"}`, response{ID: "p1"}},
		{"malformed JSON", `{"id":`, response{
			Error: "bad request: unexpected end of JSON input", Code: codeBadRequest}},
		{"unknown type", `{"id":"u1","type":"nope"}`, response{
			ID: "u1", Error: `unknown request type "nope"`, Code: codeBadRequest}},
		{"over -max-seq", `{"id":"big","residues":"` + strings.Repeat("M", 301) + `"}`, response{
			ID: "big", Error: "query has 301 residues, limit is 300", Code: codeTooLarge}},
		{"invalid residues", `{"id":"bad","residues":"MK1VLAW"}`, response{
			ID: "bad", Error: "alphabet: byte '1' at position 2 is not a valid residue", Code: codeBadRequest}},
		{"valid search", `{"id":"ok","residues":"` + string(db[7].Residues[:60]) + `","top":3}`, response{
			ID: "ok", Hits: []hit{{SeqID: "SYN000007", Score: 297}, {SeqID: "SYN000012", Score: 34}, {SeqID: "SYN000018", Score: 33}}}},
		// The scanner cannot resynchronize mid-line, so the oversized
		// line is refused last and the server then drops the connection.
		{"over -max-body", strings.Repeat("x", 8192), response{
			Error: "request exceeds 4096-byte line limit", Code: codeTooLarge}},
	}
	runWireScript(t, addr, steps)
	checkAdmissionCounters(t, admin, map[string]int64{"oversized": 2, "malformed": 1, "shed": 0, "breaker_rejected": 0})
}

// runWireScript sends each step's line on one connection, compares the
// decoded reply with the step's want, and checks the connection closes
// after the last step.
func runWireScript(t *testing.T, addr string, steps []wireStep) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	dec := json.NewDecoder(bufio.NewReader(conn))
	for _, st := range steps {
		// A write may fail once the server drops the connection over the
		// body limit; the refusal is still there to read.
		conn.Write([]byte(st.line + "\n"))
		var got response
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%s: no reply: %v", st.name, err)
		}
		if !reflect.DeepEqual(got, st.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", st.name, got, st.want)
		}
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err == nil {
		t.Errorf("connection still open after the body-limit refusal; read %s", extra)
	}
}

// checkAdmissionCounters reads the swvec.search counters from the admin
// endpoint and compares the named ones.
func checkAdmissionCounters(t *testing.T, admin string, want map[string]int64) {
	t.Helper()
	var vars struct {
		Search map[string]int64 `json:"swvec.search"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + admin + "/debug/vars")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&vars)
			resp.Body.Close()
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admin endpoint %s: %v", admin, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for name, n := range want {
		if vars.Search[name] != n {
			t.Errorf("counter %s = %d, want %d", name, vars.Search[name], n)
		}
	}
}

// reserveAddr returns a loopback address that was free a moment ago.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

var wireListenRE = regexp.MustCompile(`event=listen addr=(\S+)`)

// startWireBinary runs bin with args, returns the address from its
// event=listen line, and stops it with SIGTERM when the test ends.
func startWireBinary(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := wireListenRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		select {
		case <-scanDone:
		case <-ctx.Done():
			cmd.Process.Kill()
		}
		cmd.Wait()
	})
	select {
	case addr := <-addrCh:
		return addr
	case <-scanDone:
		t.Fatalf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not listen within 30s", bin)
	}
	return ""
}
