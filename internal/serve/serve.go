// Package serve is the network front end swserver and swrouter share
// (DESIGN.md §3, §12). It owns everything the two do the same way: the
// listener and its connection limit, newline-delimited JSON framing
// under the body limit, the admission steps every request passes in
// the same order, reply writing, and the graceful shutdown order. What
// differs sits behind Backend: swserver's batcher and swrouter's
// scatter pool.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"swvec/internal/cluster"
	"swvec/internal/failpoint"
	"swvec/internal/metrics"
)

// Backend serves the search requests that pass the shared admission
// steps.
type Backend interface {
	// Admit runs on the connection's read loop and must not block. It
	// either accepts req, returning the function the front end runs on
	// the request's own reply goroutine to produce its reply, or refuses
	// it with a response carrying the error and code (the front end
	// fills in the ID). closing is closed once shutdown begins: a
	// backend that takes a slot selects on it and refuses with
	// cluster.CodeShutdown.
	Admit(req *cluster.Request, closing <-chan struct{}) (reply func() any, refused *cluster.Response)
	// Drain runs once, after every connection reader has retired, so no
	// Admit is running or can start. ctx bounds it.
	Drain(ctx context.Context)
}

// Config holds the front end's limits.
type Config struct {
	MaxConns int           // concurrent connections; further accepts wait
	Idle     time.Duration // per-connection read deadline, 0 = none
	MaxSeq   int           // residues per query, 0 = no limit
	MaxBody  int           // request line bytes, <= 0 = 8 MiB
	// Validate (required) rejects residues the backend cannot align.
	Validate func(residues []byte) error
	// Logf receives the front end's log lines (log.Printf if nil).
	Logf func(format string, args ...any)
}

// Server is one front end over one listener.
type Server struct {
	ln      net.Listener
	backend Backend
	cfg     Config

	closed chan struct{} // closed when Shutdown begins

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	readWG sync.WaitGroup // connection read loops (may still admit)
	connWG sync.WaitGroup // whole connection handlers (incl. replies)
	once   sync.Once
}

// New fronts backend with a server on ln.
func New(ln net.Listener, backend Backend, cfg Config) *Server {
	if cfg.MaxConns < 1 {
		cfg.MaxConns = 1
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	return &Server{ln: ln, backend: backend, cfg: cfg, closed: make(chan struct{}), conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections until Shutdown closes the listener. The
// MaxConns semaphore applies backpressure: when it is full, accepted
// connections wait before being served.
func (s *Server) Serve() {
	sem := make(chan struct{}, s.cfg.MaxConns)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closing() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.cfg.Logf("level=warn event=accept_error err=%q", err)
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-s.closed:
			conn.Close()
			return
		}
		// Register under the lock Shutdown holds while closing s.closed,
		// so every WaitGroup.Add happens before Shutdown starts waiting.
		s.mu.Lock()
		if s.closing() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.readWG.Add(1)
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				s.connWG.Done()
				<-sem
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) closing() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// Shutdown stops the server in the same order for every backend: stop
// accepting; expire read deadlines until every reader has retired, so
// no request can be admitted any more; drain the backend; wait for the
// reply writers. ctx bounds every wait, and on expiry the remaining
// work is abandoned. A second call returns once the first has finished.
func (s *Server) Shutdown(ctx context.Context) {
	s.once.Do(func() {
		s.mu.Lock()
		close(s.closed)
		s.mu.Unlock()
		s.ln.Close()
		if !s.await(ctx, &s.readWG) {
			return
		}
		s.backend.Drain(ctx)
		s.await(ctx, &s.connWG)
	})
}

// await waits for wg until ctx expires, setting every live connection's
// read deadline to now at once and every 50 ms, so blocked scanners
// return even if a reader extended its idle deadline after the last
// expiry. It reports whether wg finished.
func (s *Server) await(ctx context.Context, wg *sync.WaitGroup) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		now := time.Now()
		s.mu.Lock()
		for c := range s.conns {
			c.SetReadDeadline(now)
		}
		s.mu.Unlock()
		select {
		case <-done:
			return true
		case <-ctx.Done():
			return false
		case <-tick.C:
		}
	}
}

// serveConn reads requests until the client disconnects, the idle
// deadline expires, or shutdown expires the read deadline, then waits
// for every outstanding reply before closing. Each admitted request
// gets its own reply goroutine, so a slow client never blocks the
// backend; replies are written under a per-connection lock and matched
// by request ID.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	// Pings and most searches fit the first 4 KiB; the scanner grows the
	// buffer up to MaxBody for longer lines.
	sc.Buffer(make([]byte, min(4<<10, s.cfg.MaxBody)), s.cfg.MaxBody)
	enc := json.NewEncoder(conn)
	var mu sync.Mutex
	var wg sync.WaitGroup
	respond := func(v any) {
		mu.Lock()
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		enc.Encode(v)
		mu.Unlock()
	}
	for !s.closing() {
		if s.cfg.Idle > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.Idle))
		}
		if !sc.Scan() {
			if errors.Is(sc.Err(), bufio.ErrTooLong) {
				// The scanner cannot resynchronize mid-line, so report
				// the limit and drop the connection.
				metrics.Global.Oversized.Add(1)
				respond(cluster.Response{Error: fmt.Sprintf("request exceeds %d-byte line limit", s.cfg.MaxBody), Code: cluster.CodeTooLarge})
			}
			break
		}
		reply, now := s.admit(sc.Bytes())
		if now != nil {
			respond(*now)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			respond(reply())
		}()
	}
	s.readWG.Done()
	wg.Wait()
}

// admit runs the shared admission steps on one request line, in order,
// and hands a request that passes them all to the backend. It returns
// either the admitted request's reply function or the response to send
// at once: a ping's echo or a refusal. Refusing here, before a request
// takes a queue or scatter slot, keeps one bad query from poisoning a
// batch or burning a cluster-wide scatter.
func (s *Server) admit(line []byte) (func() any, *cluster.Response) {
	var req cluster.Request
	if err := json.Unmarshal(line, &req); err != nil {
		return nil, &cluster.Response{Error: fmt.Sprintf("bad request: %v", err), Code: cluster.CodeBadRequest}
	}
	refuse := func(code, msg string) (func() any, *cluster.Response) {
		return nil, &cluster.Response{ID: req.ID, Error: msg, Code: code}
	}
	switch req.Type {
	case cluster.TypePing:
		// Liveness ping: echo the ID before any admission gate, so a
		// health prober measures "is this process up and accepting",
		// not how deep its queue runs. The write deadline bounds the
		// reply like every other response.
		return nil, &cluster.Response{ID: req.ID}
	case cluster.TypeSearch:
	default:
		return refuse(cluster.CodeBadRequest, fmt.Sprintf("unknown request type %q", req.Type))
	}
	if err := failpoint.Inject("serve/request"); err != nil {
		return refuse(cluster.CodeInternal, err.Error())
	}
	if s.cfg.MaxSeq > 0 && len(req.Residues) > s.cfg.MaxSeq {
		metrics.Global.Oversized.Add(1)
		return refuse(cluster.CodeTooLarge, fmt.Sprintf("query has %d residues, limit is %d", len(req.Residues), s.cfg.MaxSeq))
	}
	if err := s.cfg.Validate([]byte(req.Residues)); err != nil {
		metrics.Global.Malformed.Add(1)
		return refuse(cluster.CodeBadRequest, err.Error())
	}
	reply, refused := s.backend.Admit(&req, s.closed)
	if refused != nil {
		refused.ID = req.ID
	}
	return reply, refused
}
