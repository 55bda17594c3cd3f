// Command swserver is the centralized alignment server of usage
// scenario 2 (§II-C, §IV-G): clients submit protein queries over TCP,
// the server batches them, aligns each batch against its database with
// the multi-query engine, and returns the top hits. Batching queries
// so one pass over the database serves several is the efficiency
// lever the paper highlights for this scenario, and it pays while the
// engine is busy: the batcher computes as soon as the engine is free,
// with whatever is queued up to -batch, so requests that arrive during
// a compute form the next batch and an idle server answers at once.
//
// The connection handling, admission limits, graceful shutdown, admin
// port and client mode are the front end it shares with swrouter
// (internal/serve, DESIGN.md §12). Behind it, this command adds the
// compute-side protections: a full queue sheds new requests
// immediately (429-style) instead of stalling the connection, repeated
// batch failures trip a circuit breaker that fast-rejects until a
// cooldown probe succeeds, and shutdown answers every queued request
// before it returns. Every protective action is counted in the
// swvec.search expvar counters.
//
// Server:  swserver -listen :7979 -db db.fasta [-batch 8]
//
//	[-request-timeout 30s] [-max-conns 256] [-idle-timeout 2m]
//	[-max-seq 100000] [-max-body 8388608] [-breaker-failures 3]
//	[-breaker-cooldown 5s] [-admin 127.0.0.1:7980]
//
// Client:  swserver -connect localhost:7979 -query q.fasta [-top 5]
//
//	[-timeout 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/failpoint"
	"swvec/internal/metrics"
	"swvec/internal/serve"
)

// The wire types and error codes are the cluster protocol
// (internal/cluster/wire.go): swserver speaks it standalone to its own
// clients and, in shard mode, downstream to an swrouter.
type (
	request  = cluster.Request
	hit      = cluster.Hit
	response = cluster.Response
)

const (
	codeBadRequest  = cluster.CodeBadRequest
	codeTooLarge    = cluster.CodeTooLarge
	codeOverloaded  = cluster.CodeOverloaded
	codeUnavailable = cluster.CodeUnavailable
	codeShutdown    = cluster.CodeShutdown
	codeInternal    = cluster.CodeInternal
)

func main() {
	var (
		listen     = flag.String("listen", "", "serve on this address (server mode)")
		connect    = flag.String("connect", "", "connect to this address (client mode)")
		dbPath     = flag.String("db", "", "database FASTA (server mode)")
		genDB      = flag.Int("gen-db", 0, "serve a synthetic database of this size instead of -db")
		batch      = flag.Int("batch", 8, "maximum queries per batch; a batch takes what is already queued, up to this, and computes at once")
		query      = flag.String("query", "", "query FASTA (client mode; all records are submitted)")
		top        = flag.Int("top", 5, "hits per query (client mode)")
		threads    = flag.Int("threads", 0, "worker threads (server mode)")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-batch compute deadline (0 disables)")
		maxConns   = flag.Int("max-conns", 256, "maximum concurrent client connections")
		idle       = flag.Duration("idle-timeout", 2*time.Minute, "per-connection read deadline (0 disables)")
		maxSeq     = flag.Int("max-seq", 100000, "maximum query residues per request (0 disables)")
		maxBody    = flag.Int("max-body", 8<<20, "maximum request line size in bytes")
		brkFails   = flag.Int("breaker-failures", 3, "consecutive batch failures that open the circuit breaker")
		brkCool    = flag.Duration("breaker-cooldown", 5*time.Second, "circuit-breaker open duration before a probe batch")
		admin      = flag.String("admin", "", "opt-in admin address serving /debug/vars and pprof")
		timeout    = flag.Duration("timeout", 30*time.Second, "client-mode dial and I/O deadline (0 disables)")
		shardIdx   = flag.Int("shard-index", 0, "serve only shard shard-index of a shard-count cluster")
		shardCount = flag.Int("shard-count", 0, "total shards in the cluster (0 = standalone)")
	)
	flag.Parse()

	switch {
	case *listen != "":
		front := serve.Config{MaxConns: *maxConns, Idle: *idle, MaxSeq: *maxSeq, MaxBody: *maxBody}
		runServer(*listen, *dbPath, *genDB, *admin, *shardIdx, *shardCount, front, serverConfig{
			batchSize:     *batch,
			reqTimeout:    *reqTimeout,
			breakFails:    *brkFails,
			breakCooldown: *brkCool,
			threads:       *threads,
		})
	case *connect != "":
		code, err := serve.RunClient(os.Stdout, *connect, *query, *top, *timeout)
		if err != nil {
			fatal("%v", err)
		}
		os.Exit(code)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// pending couples a request with its reply channel.
type pending struct {
	req   request
	reply chan response
}

// serverConfig bundles the compute-side knobs.
type serverConfig struct {
	batchSize     int
	reqTimeout    time.Duration // per-batch compute deadline, 0 = none
	breakFails    int           // breaker threshold, 0 = default
	breakCooldown time.Duration // breaker cooldown, 0 = default
	threads       int           // worker threads, 0 = GOMAXPROCS
}

// server is the front end's backend that batches admitted queries and
// aligns them. Its drain closes the queue once no reader can enqueue
// any more: the batcher then processes whatever is still queued (the
// flush), and the replies flow back to the waiting reply goroutines.
type server struct {
	al  *swvec.Aligner
	brk *cluster.Breaker
	db  []swvec.Sequence
	cfg serverConfig

	queue       chan pending
	batcherDone chan struct{}
	logf        func(format string, args ...any)
}

// newServer builds the backend; the caller starts its batcher.
func newServer(al *swvec.Aligner, db []swvec.Sequence, cfg serverConfig) *server {
	if cfg.batchSize < 1 {
		cfg.batchSize = 1
	}
	if cfg.breakFails <= 0 {
		cfg.breakFails = 3
	}
	if cfg.breakCooldown <= 0 {
		cfg.breakCooldown = 5 * time.Second
	}
	return &server{
		al:          al,
		brk:         cluster.NewBreaker(cfg.breakFails, cfg.breakCooldown),
		db:          db,
		cfg:         cfg,
		queue:       make(chan pending, 4*cfg.batchSize),
		batcherDone: make(chan struct{}),
		logf:        log.Printf,
	}
}

// frontEnd starts the batcher and returns the shared front end over it
// on ln, validating residues with the primary aligner.
func (s *server) frontEnd(ln net.Listener, front serve.Config) *serve.Server {
	front.Validate = s.al.ValidateSequence
	go s.batcher()
	return serve.New(ln, s, front)
}

// Admit is the compute-side admission: an open circuit breaker
// fast-rejects, and a full queue sheds the request at once rather than
// block the read loop behind compute that is already saturated. An
// admitted request's reply goroutine waits for its batch.
func (s *server) Admit(req *request, closing <-chan struct{}) (func() any, *response) {
	if s.brk.Rejecting() {
		metrics.Global.BreakerRejected.Add(1)
		return nil, &response{Error: "service unavailable: circuit breaker open", Code: codeUnavailable}
	}
	reply := make(chan response, 1)
	select {
	case s.queue <- pending{req: *req, reply: reply}:
		return func() any { return <-reply }, nil
	case <-closing:
		return nil, &response{Error: "server shutting down", Code: codeShutdown}
	default:
		metrics.Global.Shed.Add(1)
		s.logf("level=warn event=shed queue_len=%d", len(s.queue))
		return nil, &response{Error: "server overloaded: request queue full", Code: codeOverloaded}
	}
}

// Drain closes the queue, which makes the batcher process whatever is
// still queued and exit: the flush.
func (s *server) Drain(ctx context.Context) {
	close(s.queue)
	select {
	case <-s.batcherDone:
	case <-ctx.Done():
	}
}

// batcher runs the multi-query engine once per batch — the scenario-2
// design — and is work-conserving: it blocks only for a batch's first
// request, then takes whatever else is already queued, up to
// batchSize, and computes at once. Requests that arrive during a
// compute queue up for the next batch, so batches fill under load
// without holding a request while the engine idles. The loop ends once
// Drain has closed the queue and the batcher has answered everything
// still in it: the flush.
func (s *server) batcher() {
	defer close(s.batcherDone)
	batch := make([]pending, 0, s.cfg.batchSize)
	for first := range s.queue {
		batch = append(batch[:0], first)
	fill:
		for len(batch) < s.cfg.batchSize {
			select {
			case p, ok := <-s.queue:
				if !ok {
					break fill
				}
				batch = append(batch, p)
			default:
				break fill
			}
		}
		s.process(batch)
	}
}

// process aligns one batch under the per-request deadline and answers
// every query, including per-request errors when the compute is cut
// short. It is also where the circuit breaker binds to the compute
// layer: an open breaker refuses the batch outright, and the batch's
// outcome feeds the breaker.
func (s *server) process(batch []pending) {
	if !s.brk.Allow() {
		metrics.Global.BreakerRejected.Add(int64(len(batch)))
		for _, p := range batch {
			p.reply <- response{ID: p.req.ID, Error: "service unavailable: circuit breaker open", Code: codeUnavailable}
		}
		return
	}
	queries := make([][]byte, len(batch))
	for i, p := range batch {
		queries[i] = []byte(p.req.Residues)
	}
	ctx := context.Background()
	if s.cfg.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.reqTimeout)
		defer cancel()
	}
	res, err := searchBatch(ctx, s.al, queries, s.db)
	if err != nil {
		if s.brk.OnFailure() {
			metrics.Global.BreakerTrips.Add(1)
			s.logf("level=warn event=breaker_open failures=%d cooldown=%s", s.cfg.breakFails, s.cfg.breakCooldown)
		}
		s.logf("level=error event=batch queries=%d queue_len=%d err=%q",
			len(batch), len(s.queue), err)
		for _, p := range batch {
			p.reply <- response{ID: p.req.ID, Error: err.Error(), Code: codeInternal}
		}
		return
	}
	s.brk.OnSuccess()
	s.logf("level=info event=batch queries=%d cells=%d elapsed_ms=%.1f gcups=%.3f rescued=%d quarantined=%d queue_len=%d",
		len(batch), res.Cells, float64(res.Elapsed.Microseconds())/1000, res.GCUPS(),
		res.Rescued, len(res.Quarantined), len(s.queue))
	for qi, p := range batch {
		n := p.req.Top
		if n <= 0 {
			n = 5
		}
		top := res.TopHits(qi, n)
		hits := make([]hit, len(top))
		for i, h := range top {
			hits[i] = hit{SeqID: s.db[h.SeqIndex].ID, Score: h.Score}
		}
		p.reply <- response{ID: p.req.ID, Hits: hits}
	}
}

// searchBatch is the breaker-guarded compute call, with a fault
// injection site for the chaos suite.
func searchBatch(ctx context.Context, al *swvec.Aligner, queries [][]byte, db []swvec.Sequence) (*swvec.MultiSearchResult, error) {
	if err := failpoint.Inject("swserver/search"); err != nil {
		return nil, err
	}
	return al.SearchAllContext(ctx, queries, db)
}

func runServer(addr, dbPath string, genDB int, admin string, shardIdx, shardCount int, front serve.Config, cfg serverConfig) {
	db, rep, err := serve.LoadDB(dbPath, genDB)
	if err != nil {
		fatal("%v", err)
	}
	if rep != nil {
		metrics.Global.Malformed.Add(int64(rep.Malformed))
		metrics.Global.Oversized.Add(int64(rep.Oversized))
	}
	if shardCount > 0 {
		// Shard mode: keep only this process's consistent-hash slice of
		// the database. Every process of the cluster — router included —
		// computes the same map from (shard count, sequence IDs), so the
		// slice is stable across restarts and no shard files change
		// hands.
		if shardIdx < 0 || shardIdx >= shardCount {
			fatal("shard-index %d out of range for shard-count %d", shardIdx, shardCount)
		}
		full := len(db)
		db = cluster.NewShardMap(shardCount).Slice(db, shardIdx)
		if len(db) == 0 {
			fatal("shard %d/%d owns no sequences of the %d-sequence database", shardIdx, shardCount, full)
		}
		log.Printf("level=info event=shard index=%d count=%d seqs=%d of=%d residues=%d",
			shardIdx, shardCount, len(db), full, swvec.TotalResidues(db))
	}
	al, err := swvec.New(swvec.WithThreads(cfg.threads), swvec.WithLengthSortedBatches())
	if err != nil {
		fatal("%v", err)
	}
	if admin != "" {
		if _, err := serve.StartAdmin(admin, nil, log.Printf); err != nil {
			fatal("%v", err)
		}
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal("%v", err)
	}
	fe := newServer(al, db, cfg).frontEnd(ln, front)
	log.Printf("level=info event=listen addr=%s db_seqs=%d batch=%d max_conns=%d request_timeout=%s",
		ln.Addr(), len(db), cfg.batchSize, front.MaxConns, cfg.reqTimeout)
	fe.Run()
	stats := swvec.GlobalStats()
	log.Printf("level=info event=exit searches=%d cells=%d rescued=%d",
		stats.Searches, stats.Cells(), stats.Saturated8)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "swserver: "+format+"\n", args...)
	os.Exit(1)
}
