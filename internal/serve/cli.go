package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"swvec"
	"swvec/internal/cluster"
)

// Run serves until SIGINT or SIGTERM, then shuts down gracefully within
// 30 s. It returns only once that shutdown has finished, so the process
// cannot exit, tearing down the connections, before every reply is
// written.
func (s *Server) Run() {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		s.cfg.Logf("level=info event=shutdown signal=%s", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	s.Serve()
	// Serve returns as soon as Shutdown closes the listener; this second
	// call blocks until the signal goroutine's shutdown completes.
	ctx, cancel := context.WithTimeout(context.Background(), 35*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// StartAdmin binds addr and serves /debug/vars (expvar, including the
// swvec.search counters), pprof, and any routes already on mux (nil for
// none). It logs event=admin_listen with the bound address, so port 0
// can be discovered, and returns the bind error, so a taken port fails
// startup instead of leaving the server without its admin endpoint.
func StartAdmin(addr string, mux *http.ServeMux, logf func(string, ...any)) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: %w", err)
	}
	swvec.PublishMetrics()
	if mux == nil {
		mux = http.NewServeMux()
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logf("level=info event=admin_listen addr=%s", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); !errors.Is(err, net.ErrClosed) {
			logf("level=error event=admin_error err=%q", err)
		}
	}()
	return ln, nil
}

// LoadDB returns the database to serve: the synthetic one of genDB
// sequences, which every process of a cluster regenerates from the same
// fixed seed, or the FASTA file at path. Records the decoder skipped
// are logged and left in the report (nil for a synthetic database).
func LoadDB(path string, genDB int) ([]swvec.Sequence, *swvec.DecodeReport, error) {
	if genDB > 0 {
		return swvec.GenerateDatabase(42, genDB), nil, nil
	}
	if path == "" {
		return nil, nil, errors.New("-db or -gen-db is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	seqs, rep, err := swvec.DecodeFasta(f, swvec.DecodeOptions{})
	if err != nil {
		return nil, nil, err
	}
	if len(rep.Skipped) > 0 {
		log.Printf("level=warn event=db_skipped records=%d malformed=%d oversized=%d",
			len(rep.Skipped), rep.Malformed, rep.Oversized)
	}
	return seqs, rep, nil
}

// Response is a reply as the client decodes it: the wire response plus
// swrouter's partial-result contract, which says which shards answered,
// which were degraded or skipped, and so whether the hits cover the
// whole database. swserver replies carry neither field.
type Response struct {
	cluster.Response
	Shards  *cluster.ShardReport `json:"shards,omitempty"`
	Partial bool                 `json:"partial"`
}

// RunClient submits every record of the query FASTA to addr, then
// prints each response's hits to w, with the shard report whenever a
// router's response was partial, degraded or failed over. Connection,
// deadline and per-request failures become one error line per query
// instead of aborting the run. It returns the exit code: 1 if any
// request failed or came back partial.
func RunClient(w io.Writer, addr, queryPath string, top int, timeout time.Duration) (int, error) {
	if queryPath == "" {
		return 0, errors.New("client mode needs -query")
	}
	f, err := os.Open(queryPath)
	if err != nil {
		return 0, err
	}
	queries, err := swvec.ReadFasta(f)
	f.Close()
	if err != nil {
		return 0, err
	}

	results := make(map[string]Response, len(queries))
	fail := func(id, format string, args ...any) {
		results[id] = Response{Response: cluster.Response{ID: id, Error: fmt.Sprintf(format, args...)}}
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		for _, q := range queries {
			fail(q.ID, "connect: %v", err)
		}
	} else {
		defer conn.Close()
		deadline := func() time.Time {
			if timeout > 0 {
				return time.Now().Add(timeout)
			}
			return time.Time{}
		}
		enc := json.NewEncoder(conn)
		sent := 0
		for _, q := range queries {
			conn.SetWriteDeadline(deadline())
			if err := enc.Encode(cluster.Request{ID: q.ID, Residues: string(q.Residues), Top: top}); err != nil {
				fail(q.ID, "send: %v", err)
				continue
			}
			sent++
		}
		dec := json.NewDecoder(conn)
		for i := 0; i < sent; i++ {
			conn.SetReadDeadline(deadline())
			var resp Response
			if err := dec.Decode(&resp); err != nil {
				// The stream is dead: every unanswered query gets the
				// error.
				for _, q := range queries {
					if _, done := results[q.ID]; !done {
						fail(q.ID, "recv: %v", err)
					}
				}
				break
			}
			results[resp.ID] = resp
		}
	}

	exit := 0
	for _, q := range queries {
		resp, ok := results[q.ID]
		if !ok {
			resp.ID, resp.Error = q.ID, "no response received"
		}
		if resp.Error != "" || resp.Partial {
			exit = 1
		}
		if resp.Error != "" {
			fmt.Fprintf(w, "%s: error: %s\n", resp.ID, resp.Error)
			continue
		}
		fmt.Fprintf(w, "%s:%s\n", resp.ID, shardNote(resp))
		for rank, h := range resp.Hits {
			fmt.Fprintf(w, "  %2d. score %5d  %s\n", rank+1, h.Score, h.SeqID)
		}
		printAttempts(w, resp)
	}
	return exit, nil
}

// shardNote flags a partial or degraded router response after its ID.
func shardNote(resp Response) string {
	switch {
	case resp.Shards == nil:
		return ""
	case resp.Partial:
		return fmt.Sprintf(" (PARTIAL: shards %v missing)", resp.Shards.Skipped)
	case len(resp.Shards.Degraded) > 0:
		return fmt.Sprintf(" (degraded shards %v)", resp.Shards.Degraded)
	}
	return ""
}

// printAttempts renders the per-replica attempt causes of shards that
// did not answer from their primary on the first try.
func printAttempts(w io.Writer, resp Response) {
	if resp.Shards == nil {
		return
	}
	shards := make([]string, 0, len(resp.Shards.Attempts))
	for s := range resp.Shards.Attempts {
		shards = append(shards, s)
	}
	sort.Strings(shards)
	for _, s := range shards {
		for _, a := range resp.Shards.Attempts[s] {
			fmt.Fprintf(w, "  shard %s replica %d (%s): %s\n", s, a.Replica, a.Addr, a.Cause)
		}
	}
}
