package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"swvec/internal/seqio"
)

// BenchmarkServerSaturation drives the built swserver binary over TCP
// with closed-loop clients, each sending its next query as soon as the
// previous reply arrives, and reports the replies per second and the
// mean number of queries per computed batch. At 16 and 32 clients the
// offered load exceeds what a 2-thread server computes, so batches
// fill to -batch; 4 clients stay below -batch.
//
// It passes only -gen-db, -batch and -threads, so the same benchmark
// runs against any swserver build. Each client count gets a fresh
// server; the clients run without pause, and after 2 s of warm-up the
// benchmark times the next b.N replies. Run it with a fixed reply
// count, for example:
//
//	go test -run '^$' -bench BenchmarkServerSaturation -benchtime 200x ./cmd/swserver
func BenchmarkServerSaturation(b *testing.B) {
	bin := filepath.Join(b.TempDir(), "swserver")
	if out, err := exec.Command("go", "build", "-o", bin, "swvec/cmd/swserver").CombinedOutput(); err != nil {
		b.Fatalf("building swserver: %v\n%s", err, out)
	}
	g := seqio.NewGenerator(97)
	queries := make([]string, 16)
	for i := range queries {
		queries[i] = string(g.Protein(fmt.Sprintf("q%d", i), 120).Residues)
	}
	for _, clients := range []int{4, 16, 32} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			srv := startSaturationServer(b, bin, "-listen", "127.0.0.1:0", "-gen-db", "60", "-batch", "8", "-threads", "2")
			var replies atomic.Int64
			var target atomic.Int64
			target.Store(math.MaxInt64)
			reached := make(chan struct{})
			var once sync.Once
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for ci := 0; ci < clients; ci++ {
				c := dialSat(b, srv.addr)
				wg.Add(1)
				go func(ci int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id := strconv.Itoa(ci) + "-" + strconv.Itoa(i)
						resp, err := c.roundTrip(request{ID: id, Residues: queries[(ci+i)%len(queries)], Top: 5})
						if err != nil {
							b.Error(err)
							return
						}
						if resp.ID != id || resp.Error != "" || len(resp.Hits) == 0 {
							b.Errorf("request %s answered %+v", id, resp)
							return
						}
						if replies.Add(1) >= target.Load() {
							once.Do(func() { close(reached) })
						}
					}
				}(ci)
			}
			defer func() {
				close(stop)
				wg.Wait()
			}()

			time.Sleep(2 * time.Second) // warm-up
			b.ResetTimer()
			r0, batches0, queries0 := replies.Load(), srv.batches.Load(), srv.queries.Load()
			target.Store(r0 + int64(b.N))
			select {
			case <-reached:
			case <-time.After(5 * time.Minute):
				b.Fatalf("%d replies after 5 minutes, want %d", replies.Load()-r0, b.N)
			}
			b.StopTimer()
			r1, batches1, queries1 := replies.Load(), srv.batches.Load(), srv.queries.Load()
			b.ReportMetric(float64(r1-r0)/b.Elapsed().Seconds(), "replies/s")
			if batches1 > batches0 {
				b.ReportMetric(float64(queries1-queries0)/float64(batches1-batches0), "queries/batch")
			}
		})
	}
}

// satClient is one closed-loop client connection.
type satClient struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

func dialSat(b *testing.B, addr string) *satClient {
	b.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { conn.Close() })
	return &satClient{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}
}

func (c *satClient) roundTrip(req request) (response, error) {
	var resp response
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := c.enc.Encode(req); err != nil {
		return resp, err
	}
	err := c.dec.Decode(&resp)
	return resp, err
}

var satBatchRE = regexp.MustCompile(`event=batch queries=(\d+) `)

// satServer is a running swserver whose event=batch lines are counted
// as they are logged.
type satServer struct {
	addr             string
	batches, queries atomic.Int64
}

// startSaturationServer runs bin with args, returns once it listens,
// and stops it with SIGTERM when the benchmark ends.
func startSaturationServer(b *testing.B, bin string, args ...string) *satServer {
	b.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	srv := &satServer{}
	addrCh := make(chan string, 1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := satBatchRE.FindStringSubmatch(line); m != nil {
				q, _ := strconv.Atoi(m[1])
				srv.queries.Add(int64(q))
				srv.batches.Add(1)
			} else if m := wireListenRE.FindStringSubmatch(line); m != nil {
				addrCh <- m[1]
			}
		}
	}()
	b.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-scanDone:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
		}
		cmd.Wait()
	})
	select {
	case srv.addr = <-addrCh:
	case <-scanDone:
		b.Fatalf("%s exited before listening", bin)
	case <-time.After(30 * time.Second):
		b.Fatalf("%s did not listen within 30s", bin)
	}
	return srv
}
