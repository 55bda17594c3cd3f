package main

import (
	"context"
	"net"
	"time"

	"swvec"
	"swvec/internal/cluster"
	"swvec/internal/metrics"
	"swvec/internal/serve"
)

// routerResponse is the shard-aware superset of the swserver wire
// response: the same id/hits/error fields (so a plain swserver client
// can talk to a router and never notice), plus the partial-result
// contract.
type routerResponse = serve.Response

// routerConfig bundles the router's serving knobs.
type routerConfig struct {
	maxConns    int
	maxInflight int           // concurrent scatters across all connections
	idle        time.Duration // per-connection read deadline, 0 = none
	maxSeq      int           // max residues per query, 0 = none
	maxBody     int           // max request line bytes
	defaultTop  int
}

// router is the front end's backend that serves each admitted request
// by scattering it across the shard pool and merging the gathered
// top-K. Unlike swserver it does not batch: a scatter is already a
// fan-out of the whole cluster, so requests leave as soon as they
// arrive, bounded by the in-flight semaphore. Its drain cancels
// the in-flight scatters.
type router struct {
	pool       *cluster.Pool
	sem        chan struct{} // bounds concurrent scatters
	defaultTop int
	ctx        context.Context // canceled by Drain
	cancel     context.CancelFunc
	logf       func(format string, args ...any)
}

// newRouter fronts pool with the shared front end on ln. al exists only
// for admission-time query validation; the router never aligns
// anything itself.
func newRouter(pool *cluster.Pool, al *swvec.Aligner, ln net.Listener, cfg routerConfig, logf func(string, ...any)) *serve.Server {
	if cfg.maxConns < 1 {
		cfg.maxConns = 256
	}
	if cfg.maxInflight < 1 {
		cfg.maxInflight = 64
	}
	if cfg.defaultTop <= 0 {
		cfg.defaultTop = 5
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &router{pool: pool, sem: make(chan struct{}, cfg.maxInflight), defaultTop: cfg.defaultTop, ctx: ctx, cancel: cancel, logf: logf}
	return serve.New(ln, r, serve.Config{
		MaxConns: cfg.maxConns, Idle: cfg.idle, MaxSeq: cfg.maxSeq, MaxBody: cfg.maxBody,
		Validate: al.ValidateSequence, Logf: logf,
	})
}

// Admit fills in the default top and takes an in-flight slot. At the
// cap it sheds at once instead of queueing the connection behind a
// saturated cluster.
func (r *router) Admit(req *cluster.Request, closing <-chan struct{}) (func() any, *cluster.Response) {
	if req.Top <= 0 {
		req.Top = r.defaultTop
	}
	select {
	case r.sem <- struct{}{}:
	case <-closing:
		return nil, &cluster.Response{Error: "router shutting down", Code: cluster.CodeShutdown}
	default:
		metrics.Global.Shed.Add(1)
		r.logf("level=warn event=shed inflight=%d", len(r.sem))
		return nil, &cluster.Response{Error: "router overloaded: too many in-flight queries", Code: cluster.CodeOverloaded}
	}
	q := *req
	return func() any {
		defer func() { <-r.sem }()
		return r.handle(q)
	}, nil
}

// Drain cancels the in-flight scatters.
func (r *router) Drain(context.Context) { r.cancel() }

// handle runs one scatter-gather and shapes the wire response,
// including the partial-result contract.
func (r *router) handle(req cluster.Request) routerResponse {
	start := time.Now()
	hits, rep, err := r.pool.Scatter(r.ctx, req)
	resp := routerResponse{
		Response: cluster.Response{ID: req.ID, Hits: hits},
		Shards:   &rep,
		Partial:  rep.Partial(),
	}
	answered := len(rep.OK) + len(rep.Degraded)
	switch {
	case err != nil:
		resp.Hits = nil
		resp.Error = err.Error()
		resp.Code = cluster.CodeInternal
	case answered == 0:
		// Nothing answered: this is an outage, not an empty result
		// set, and the client must be able to tell the difference.
		resp.Hits = nil
		resp.Error = "no shards answered"
		resp.Code = cluster.CodeUnavailable
	}
	r.logf("level=info event=scatter id=%q shards_ok=%d degraded=%d skipped=%d partial=%t hits=%d elapsed_ms=%.1f",
		req.ID, len(rep.OK), len(rep.Degraded), len(rep.Skipped), rep.Partial(), len(resp.Hits),
		float64(time.Since(start).Microseconds())/1000)
	return resp
}
