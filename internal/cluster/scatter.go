package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"swvec/internal/failpoint"
)

// Policy bundles the per-shard routing knobs. The vocabulary is PR 5's
// resilience machinery turned into routing policy: the breaker that
// guarded swserver's compute path now quarantines a failing replica,
// the bounded retry-with-backoff that healed transient kernel faults
// now heals transient shard errors, and hedging bounds the tail a
// single slow replica can impose on every merged response.
type Policy struct {
	// Timeout is the per-attempt shard deadline.
	Timeout time.Duration
	// HedgeAfter launches a speculative second request if the first is
	// still unanswered after the delay; the first answer wins. With
	// replicas the hedge goes to the next healthy sibling replica (same
	// slice, different process), falling back to re-asking the same
	// replica when no sibling is healthy. 0 disables hedging.
	HedgeAfter time.Duration
	// Retries is how many times a transient failure is retried against
	// the same replica after the first attempt, before failing over.
	Retries int
	// RetryBase/RetryMax bound the exponential backoff between
	// retries.
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerFailures consecutive query failures quarantine a replica;
	// BreakerCooldown is how long it stays quarantined before a probe.
	BreakerFailures int
	BreakerCooldown time.Duration
	// ProbeInterval is the health prober's ping period and ProbeTimeout
	// the per-ping deadline (StartProber).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
}

// withDefaults fills zero fields with production defaults.
func (p Policy) withDefaults() Policy {
	if p.Timeout <= 0 {
		p.Timeout = 10 * time.Second
	}
	if p.RetryBase <= 0 {
		p.RetryBase = 20 * time.Millisecond
	}
	if p.RetryMax <= 0 {
		p.RetryMax = 500 * time.Millisecond
	}
	if p.BreakerFailures <= 0 {
		p.BreakerFailures = 3
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 5 * time.Second
	}
	if p.ProbeInterval <= 0 {
		p.ProbeInterval = time.Second
	}
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = 2 * time.Second
	}
	return p
}

// maxIdleConns bounds each replica's stack of idle connections. Every
// held connection occupies one of the shard's -max-conns slots (256 by
// default), so the bound stays far below that; a burst past it dials
// extra connections and closes them when their exchange ends.
const maxIdleConns = 8

// Replica is one process serving a shard's slice. Every replica of a
// shard loads the identical consistent-hash slice, so their answers
// are interchangeable — which is what makes failover and cross-replica
// hedging sound: the merged result cannot depend on which replica
// answered.
type Replica struct {
	Shard int
	// Rank is the replica's failover priority within its shard; rank 0
	// is the primary. Ranks follow ShardMap.ReplicaOrder, so they are
	// stable across router restarts.
	Rank int
	Addr string
	brk  *Breaker

	// idle is the stack of connections parked after a clean exchange,
	// the most recently used on top; closed stops parking (Pool.Close).
	mu     sync.Mutex
	idle   []*wireConn
	closed bool
}

// wireConn is one query connection to a replica and the reader its
// replies arrive through. It carries one exchange at a time.
type wireConn struct {
	net.Conn
	br *bufio.Reader
}

// takeIdle pops the most recently parked connection, or returns nil.
func (r *Replica) takeIdle() *wireConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.idle)
	if n == 0 {
		return nil
	}
	c := r.idle[n-1]
	r.idle[n-1] = nil
	r.idle = r.idle[:n-1]
	return c
}

// park pushes c onto the idle stack, or closes it when the stack is
// full or the pool is closed.
func (r *Replica) park(c *wireConn) {
	r.mu.Lock()
	if !r.closed && len(r.idle) < maxIdleConns {
		r.idle = append(r.idle, c)
		c = nil
	}
	r.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// closeIdle closes every parked connection and parks no more.
func (r *Replica) closeIdle() {
	r.mu.Lock()
	idle := r.idle
	r.idle, r.closed = nil, true
	r.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// Shard is one scatter target: the ordered replica set serving one
// slice of the database.
type Shard struct {
	ID       int
	Replicas []*Replica
}

// Pool scatters queries across a fixed set of shard replica groups and
// gathers their top-K answers into one globally ordered result. It is
// safe for concurrent use; every counter it keeps is atomic.
//
// Queries never reintegrate a replica: admission is a pure read of its
// breaker, and only the health prober's pings (StartProber) close a
// tripped one. A pool whose prober never starts therefore keeps a
// tripped replica quarantined.
//
// Queries reuse connections: each replica keeps up to maxIdleConns
// idle ones, each carrying one exchange at a time. Close releases them.
type Pool struct {
	shards []*Shard
	index  *Index
	pol    Policy
	met    *Metrics

	// Prober lifecycle (probe.go), guarded by probeMu; probeDone is
	// non-nil while a prober runs.
	probeMu     sync.Mutex
	probeCancel context.CancelFunc
	probeDone   chan struct{}
}

// NewPool builds a single-replica scatter pool over the shard
// addresses: address i serves shard i, alone. index maps
// shard-reported sequence IDs to global database order for the merge.
func NewPool(addrs []string, index *Index, pol Policy) *Pool {
	groups := make([][]string, len(addrs))
	for i, a := range addrs {
		groups[i] = []string{a}
	}
	return NewReplicatedPool(groups, index, pol)
}

// NewReplicatedPool builds a scatter pool over per-shard replica
// groups, each listed in failover order (GroupReplicas produces this
// layout). All groups must be the same size.
func NewReplicatedPool(groups [][]string, index *Index, pol Policy) *Pool {
	pol = pol.withDefaults()
	if len(groups) == 0 {
		panic("cluster: scatter pool needs at least 1 shard group")
	}
	reps := len(groups[0])
	p := &Pool{index: index, pol: pol, met: NewReplicatedMetrics(len(groups), reps)}
	for i, group := range groups {
		if len(group) != reps {
			panic(fmt.Sprintf("cluster: shard %d has %d replicas, shard 0 has %d", i, len(group), reps))
		}
		sh := &Shard{ID: i}
		for rank, addr := range group {
			sh.Replicas = append(sh.Replicas, &Replica{
				Shard: i,
				Rank:  rank,
				Addr:  addr,
				brk:   NewBreaker(pol.BreakerFailures, pol.BreakerCooldown),
			})
		}
		p.shards = append(p.shards, sh)
	}
	return p
}

// Close tears the pool down: it stops the prober and closes every idle
// connection. Scatters still in flight finish, but their connections
// close instead of parking.
func (p *Pool) Close() {
	p.StopProber()
	for _, sh := range p.shards {
		for _, r := range sh.Replicas {
			r.closeIdle()
		}
	}
}

// Metrics returns the pool's counter block (live; publish it for
// /debug/vars).
func (p *Pool) Metrics() *Metrics { return p.met }

// Shards returns the scatter targets.
func (p *Pool) Shards() []*Shard { return p.shards }

// ShardReport is the partial-result contract: which shards contributed
// to a merged response and how. It rides on every router response so a
// client always knows whether it saw the whole database.
type ShardReport struct {
	// Total is the cluster's shard count.
	Total int `json:"total"`
	// OK lists shards whose primary answered cleanly on the first
	// attempt.
	OK []int `json:"ok"`
	// Degraded lists shards that answered, but only after a retry,
	// through a hedged request, or from a non-primary replica — their
	// hits are merged, the latency or reliability budget was not.
	Degraded []int `json:"degraded"`
	// Skipped lists shards that contributed nothing: every replica was
	// quarantined or failed. Their slice of the database is missing
	// from the merged hits.
	Skipped []int `json:"skipped"`
	// Causes explains each skipped shard, keyed by shard ID.
	Causes map[string]string `json:"causes,omitempty"`
	// Attempts details every replica that failed or was passed over
	// before the shard's verdict, keyed by shard ID. A shard that
	// answered from its primary on the first try has no entry.
	Attempts map[string][]ReplicaAttempt `json:"attempts,omitempty"`
}

// ReplicaAttempt records one replica's failure (or quarantine skip)
// during a shard's failover walk.
type ReplicaAttempt struct {
	// Replica is the failover rank that was tried.
	Replica int    `json:"replica"`
	Addr    string `json:"addr"`
	Cause   string `json:"cause"`
}

// Partial reports whether any shard's slice is missing from the
// merged result.
func (r *ShardReport) Partial() bool { return len(r.Skipped) > 0 }

// shardOutcome is one shard's gathered verdict.
type shardOutcome struct {
	shard    int
	hits     []Hit
	degraded bool
	attempts []ReplicaAttempt
	err      error // nil when some replica answered
}

// Scatter fans req out to every shard, gathers under the routing
// policy, and merges the answers into the global top-K. The returned
// report says which shards contributed; err is only non-nil for
// protocol violations (a shard answering with sequences the index has
// never seen), never for shard unavailability — that is what the
// report's Skipped list is for. A shard is skipped only when every one
// of its replicas is quarantined or failed the query.
func (p *Pool) Scatter(ctx context.Context, req Request) ([]Hit, ShardReport, error) {
	p.met.Scatters.Add(1)
	rep := ShardReport{Total: len(p.shards)}
	results := make(chan shardOutcome, len(p.shards))
	for _, sh := range p.shards {
		go func(sh *Shard) {
			hits, degraded, attempts, err := p.queryShard(ctx, sh, req)
			results <- shardOutcome{shard: sh.ID, hits: hits, degraded: degraded, attempts: attempts, err: err}
		}(sh)
	}

	perShard := make([][]Hit, 0, len(p.shards))
	for i := 0; i < len(p.shards); i++ {
		out := <-results
		met := p.met.Shard(out.shard)
		if len(out.attempts) > 0 {
			if rep.Attempts == nil {
				rep.Attempts = make(map[string][]ReplicaAttempt)
			}
			rep.Attempts[fmt.Sprint(out.shard)] = out.attempts
		}
		if out.err != nil {
			met.Skipped.Add(1)
			rep.Skipped = append(rep.Skipped, out.shard)
			p.cause(&rep, out.shard, skipCause(out.attempts, out.err))
			continue
		}
		perShard = append(perShard, out.hits)
		if out.degraded {
			met.Degraded.Add(1)
			rep.Degraded = append(rep.Degraded, out.shard)
		} else {
			rep.OK = append(rep.OK, out.shard)
		}
	}
	sort.Ints(rep.OK)
	sort.Ints(rep.Degraded)
	sort.Ints(rep.Skipped)
	if rep.Partial() {
		p.met.Partial.Add(1)
	}

	k := req.Top
	if k <= 0 {
		k = 5
	}
	hits, err := p.index.Merge(perShard, k)
	if err != nil {
		return nil, rep, err
	}
	return hits, rep, nil
}

// skipCause summarizes a skipped shard for the report. With a single
// attempt the cause is that attempt's, verbatim ("quarantined: circuit
// breaker open", shard error strings). With several, the summary names
// the count and quotes the last failure, and the per-replica detail
// lives in the report's Attempts.
func skipCause(attempts []ReplicaAttempt, err error) string {
	if len(attempts) == 1 {
		return attempts[0].Cause
	}
	if len(attempts) > 1 {
		return fmt.Sprintf("all %d replicas failed; last: %s",
			len(attempts), attempts[len(attempts)-1].Cause)
	}
	return err.Error()
}

func (p *Pool) cause(rep *ShardReport, shard int, msg string) {
	if rep.Causes == nil {
		rep.Causes = make(map[string]string)
	}
	rep.Causes[fmt.Sprint(shard)] = msg
}

// queryShard walks the shard's replicas in failover order until one
// answers: for each admitted replica it runs the full per-replica
// policy (hedged attempt, then bounded backoff retries while the
// failure stays transient), failing over to the next replica on
// quarantine, permanent error, or retry-budget exhaustion. degraded
// reports whether the answer needed a retry, a hedge, or a failover.
// attempts lists every replica that was passed over or failed.
func (p *Pool) queryShard(ctx context.Context, sh *Shard, req Request) (hits []Hit, degraded bool, attempts []ReplicaAttempt, err error) {
	met := p.met.Shard(sh.ID)
	for _, r := range sh.Replicas {
		cause := p.admitCause(r)
		if cause == "" {
			hits, deg, qerr := p.queryReplica(ctx, sh, r, req)
			if qerr == nil {
				if len(attempts) > 0 {
					met.Failovers.Add(1)
					for _, a := range attempts {
						p.met.Replica(sh.ID, a.Replica).Failovers.Add(1)
					}
				}
				return hits, deg || len(attempts) > 0, attempts, nil
			}
			cause = qerr.Error()
			if r.brk.OnFailure() {
				met.BreakerTrips.Add(1)
				p.met.Replica(sh.ID, r.Rank).SetState(ReplicaDown)
			}
		} else {
			met.BreakerSkipped.Add(1)
		}
		attempts = append(attempts, ReplicaAttempt{Replica: r.Rank, Addr: r.Addr, Cause: cause})
		if ctx.Err() != nil {
			// The scatter itself is done; walking further replicas
			// would only burn dials against a dead deadline.
			break
		}
	}
	return nil, false, attempts, fmt.Errorf("shard %d: no replica answered", sh.ID)
}

// admitCause decides whether a replica may be queried; a non-empty
// return is the quarantine cause. Admission is a pure read (Closed):
// reintegration of a tripped replica belongs to the prober's half-open
// pings alone, so queries never race it for the probe slot.
func (p *Pool) admitCause(r *Replica) string {
	if r.brk.Closed() {
		return ""
	}
	if r.brk.Rejecting() {
		return "quarantined: circuit breaker open"
	}
	return "quarantined: awaiting reintegration probe"
}

// queryReplica runs the per-replica policy for one query: a hedged
// attempt, then bounded exponential-backoff retries while the failure
// stays transient. degraded reports whether the answer needed a retry
// or came from a hedge. The replica's breaker is fed on the caller's
// side for failures; a success feeds the breaker of whichever replica
// actually answered (the hedge may have won on a sibling).
func (p *Pool) queryReplica(ctx context.Context, sh *Shard, r *Replica, req Request) (hits []Hit, degraded bool, err error) {
	if err := failpoint.Inject("cluster/replica"); err != nil {
		return nil, false, err
	}
	met := p.met.Shard(sh.ID)
	var lastErr error
	for attempt := 0; attempt <= p.pol.Retries; attempt++ {
		if attempt > 0 {
			met.Retries.Add(1)
			if !backoff(ctx, p.pol, attempt-1) {
				break
			}
		}
		hits, winner, hedged, err := p.attemptHedged(ctx, sh, r, req)
		if err == nil {
			winner.brk.OnSuccess()
			p.met.Replica(sh.ID, winner.Rank).SetState(ReplicaHealthy)
			return hits, attempt > 0 || hedged, nil
		}
		lastErr = err
		if !transientShardErr(err) {
			break
		}
	}
	return nil, false, lastErr
}

// attemptHedged runs one policy attempt: the request against r, plus a
// speculative hedge if r is still unanswered after HedgeAfter. The
// hedge goes to the next healthy sibling replica (hedgeTarget), racing
// two processes that hold the same slice; first success wins and the
// loser's goroutine unwinds on the shared per-attempt context. winner
// is the replica whose answer was used.
func (p *Pool) attemptHedged(ctx context.Context, sh *Shard, r *Replica, req Request) (hits []Hit, winner *Replica, hedged bool, err error) {
	met := p.met.Shard(sh.ID)
	actx, cancel := context.WithTimeout(ctx, p.pol.Timeout)
	defer cancel()

	type reply struct {
		hits  []Hit
		err   error
		hedge bool
		from  *Replica
	}
	ch := make(chan reply, 2)
	launch := func(target *Replica, hedge bool) {
		met.Requests.Add(1)
		p.met.Replica(sh.ID, target.Rank).Requests.Add(1)
		go func() {
			h, e := p.query(actx, target, req)
			ch <- reply{hits: h, err: e, hedge: hedge, from: target}
		}()
	}
	launch(r, false)
	inflight := 1

	var hedgeC <-chan time.Time
	if p.pol.HedgeAfter > 0 {
		t := time.NewTimer(p.pol.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var firstErr error
	for {
		select {
		case <-actx.Done():
			// Attempt timeout or scatter cancellation: the in-flight
			// queries unwind on actx themselves (cancellation closes
			// their connections), and ch is buffered to hold both
			// replies, so abandoning it leaks nothing.
			if firstErr == nil {
				firstErr = actx.Err()
			}
			return nil, nil, false, firstErr
		case rp := <-ch:
			inflight--
			if rp.err == nil {
				if rp.hedge {
					met.HedgeWins.Add(1)
				}
				return rp.hits, rp.from, rp.hedge, nil
			}
			met.Errors.Add(1)
			p.met.Replica(sh.ID, rp.from.Rank).Errors.Add(1)
			if firstErr == nil {
				firstErr = rp.err
			}
			if inflight == 0 {
				return nil, nil, false, firstErr
			}
			// One request is still in flight; stop arming new hedges
			// and wait for it.
			hedgeC = nil
		case <-hedgeC:
			hedgeC = nil
			met.Hedges.Add(1)
			launch(p.hedgeTarget(sh, r), true)
			inflight++
		}
	}
}

// hedgeTarget picks where a hedge goes: the next replica after cur in
// failover order (wrapping) whose breaker is closed, or cur itself
// when no sibling is healthy — a single-replica shard therefore hedges
// by re-asking the same process, exactly the pre-replication behavior.
// The health check is the non-mutating Closed so picking a target
// never consumes a half-open breaker's probe slot.
func (p *Pool) hedgeTarget(sh *Shard, cur *Replica) *Replica {
	n := len(sh.Replicas)
	for off := 1; off < n; off++ {
		cand := sh.Replicas[(cur.Rank+off)%n]
		if cand.brk.Closed() {
			return cand
		}
	}
	return cur
}

// query performs one wire request against a replica: send the JSON
// line over an idle connection, or a fresh one when none is parked,
// and read the one-line answer. The context bounds everything —
// cancellation closes the connection so a blocked read returns
// immediately and no goroutine outlives the scatter by more than a
// connection teardown.
//
// A parked connection may have been closed by the shard since (its
// idle timeout, a restart). Such a connection fails before any reply
// byte arrives, and query then redials once; the redial is not a
// retry, an error, or a failure of any other kind. Every other failure
// is the attempt's.
func (p *Pool) query(ctx context.Context, r *Replica, req Request) ([]Hit, error) {
	if err := failpoint.Inject("cluster/shard"); err != nil {
		return nil, err
	}
	line, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("shard %d: send: %w", r.Shard, err)
	}
	line = append(line, '\n')
	var resp Response
	var unanswered bool
	c := r.takeIdle()
	if c != nil {
		resp, unanswered, err = r.exchange(ctx, c, line, req.ID)
	}
	if c == nil || unanswered {
		var d net.Dialer
		conn, derr := d.DialContext(ctx, "tcp", r.Addr)
		if derr != nil {
			return nil, fmt.Errorf("shard %d: dial: %w", r.Shard, derr)
		}
		resp, _, err = r.exchange(ctx, &wireConn{Conn: conn, br: bufio.NewReader(conn)}, line, req.ID)
	}
	if err != nil {
		return nil, err
	}
	if resp.Error != "" {
		return nil, &ShardError{Shard: r.Shard, Code: resp.Code, Msg: resp.Error}
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("shard %d: response for %q, want %q", r.Shard, resp.ID, req.ID)
	}
	return resp.Hits, nil
}

// exchange writes one request line on c and reads one reply line. It
// parks c again only after a complete exchange whose reply carries id
// and that the context's cancellation hook did not cut; any other
// outcome closes c. unanswered reports that the exchange failed before
// any reply byte arrived, for a reason other than the context — on a
// parked connection, the mark of one the shard has closed.
func (r *Replica) exchange(ctx context.Context, c *wireConn, line []byte, id string) (resp Response, unanswered bool, err error) {
	stop := context.AfterFunc(ctx, func() { c.Close() })
	dl, _ := ctx.Deadline()
	c.SetDeadline(dl)
	var reply []byte
	if _, err = c.Write(line); err != nil {
		err = fmt.Errorf("shard %d: send: %w", r.Shard, err)
	} else if reply, err = c.br.ReadBytes('\n'); err != nil {
		err = fmt.Errorf("shard %d: recv: %w", r.Shard, err)
	} else if err = json.Unmarshal(reply, &resp); err != nil {
		err = fmt.Errorf("shard %d: recv: %w", r.Shard, err)
	}
	if stop() && err == nil && resp.ID == id {
		r.park(c)
	} else {
		c.Close()
	}
	unanswered = err != nil && len(reply) == 0 && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded)
	return resp, unanswered, err
}

// ShardError is a structured per-request error a shard answered with.
type ShardError struct {
	Shard int
	Code  string
	Msg   string
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d: %s (%s)", e.Shard, e.Msg, e.Code)
}

// Transient reports whether the shard's error code clears on its own
// (overload shedding, open breaker, shutdown), making a retry against
// the same shard worthwhile. It satisfies the same Transient() bool
// convention the scheduler's retry policy uses (DESIGN.md §12).
func (e *ShardError) Transient() bool { return RetryableCode(e.Code) }

// transientShardErr classifies a failed attempt: network-level
// failures (dial refused, reset, timeout, a connection dropped
// mid-exchange — the shard may be restarting) and shard responses
// whose code marks a transient condition are retryable; everything
// else is permanent for this query.
func transientShardErr(err error) bool {
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		// The shard closed the connection without answering; a process
		// death surfaces as exactly this.
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// backoff sleeps the bounded exponential delay for the given retry
// index; false means ctx was canceled first.
func backoff(ctx context.Context, pol Policy, attempt int) bool {
	d := pol.RetryBase << attempt
	if d > pol.RetryMax {
		d = pol.RetryMax
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
