package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"swvec/internal/failpoint"
)

// The health prober: a background loop that pings every replica each
// ProbeInterval and feeds the verdicts to the replica breakers. Query
// admission (admitCause) is a pure read of breaker state, so a replica
// that tripped its breaker is reintegrated only when a probe takes the
// half-open slot and succeeds, never by risking a live query against a
// process that just failed. Pings use the admission-exempt TypePing
// request, so they measure liveness (is the process up and answering
// its accept loop), not compute-queue depth.

// StartProber launches the background health loop. Until it runs, a
// replica whose breaker trips stays quarantined. Idempotent: a second
// start while running is a no-op. Callers that start a prober own
// stopping it (StopProber) before discarding the pool, or the loop's
// goroutine leaks.
func (p *Pool) StartProber() {
	p.probeMu.Lock()
	defer p.probeMu.Unlock()
	if p.probeDone != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	p.probeCancel, p.probeDone = cancel, done
	go func() {
		defer close(done)
		p.probeLoop(ctx)
	}()
}

// StopProber cancels the health loop and waits for it — and every
// in-flight ping — to finish. Safe to call when no prober runs.
func (p *Pool) StopProber() {
	p.probeMu.Lock()
	defer p.probeMu.Unlock()
	if p.probeDone == nil {
		return
	}
	p.probeCancel()
	<-p.probeDone
	p.probeCancel, p.probeDone = nil, nil
}

// probeLoop pings the whole cluster once immediately (so a router that
// starts against a dead replica learns it within one ProbeTimeout, not
// one ProbeInterval), then on every tick until canceled.
func (p *Pool) probeLoop(ctx context.Context) {
	p.probeTick(ctx)
	t := time.NewTicker(p.pol.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.probeTick(ctx)
		}
	}
}

// probeTick pings every replica concurrently and waits for the round
// to finish — rounds never overlap, so a hung replica costs one
// ProbeTimeout per round, not an unbounded pile of pending pings.
func (p *Pool) probeTick(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range p.shards {
		for _, r := range sh.Replicas {
			wg.Add(1)
			go func(r *Replica) {
				defer wg.Done()
				p.probeReplica(ctx, r)
			}(r)
		}
	}
	wg.Wait()
}

// probeReplica runs one health check: if the replica's breaker admits
// it (closed, or half-open granting this probe the slot), ping and
// feed the verdict back. A breaker still cooling down is left alone —
// its quarantine clock, not the prober, decides when reintegration may
// be attempted.
func (p *Pool) probeReplica(ctx context.Context, r *Replica) {
	if !r.brk.Allow() {
		return
	}
	met := p.met.Replica(r.Shard, r.Rank)
	met.Probes.Add(1)
	pctx, cancel := context.WithTimeout(ctx, p.pol.ProbeTimeout)
	err := p.ping(pctx, r)
	cancel()
	if err != nil {
		met.ProbeFailures.Add(1)
		if r.brk.OnFailure() {
			p.met.Shard(r.Shard).BreakerTrips.Add(1)
		}
		met.SetState(ReplicaDown)
		return
	}
	r.brk.OnSuccess()
	met.SetState(ReplicaHealthy)
}

// ping performs one TypePing round-trip against a replica: dial, send,
// check the echoed ID. Any error — dial refused, deadline, a response
// carrying an error — counts as a failed probe. It always dials fresh,
// never through the query connections: a ping checks that the replica
// still accepts connections.
func (p *Pool) ping(ctx context.Context, r *Replica) error {
	if err := failpoint.Inject("cluster/probe"); err != nil {
		return err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", r.Addr)
	if err != nil {
		return fmt.Errorf("replica %d/%d: dial: %w", r.Shard, r.Rank, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	req := Request{ID: fmt.Sprintf("ping-%d-%d", r.Shard, r.Rank), Type: TypePing}
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return fmt.Errorf("replica %d/%d: send: %w", r.Shard, r.Rank, err)
	}
	var resp Response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return fmt.Errorf("replica %d/%d: recv: %w", r.Shard, r.Rank, err)
	}
	if resp.Error != "" {
		return fmt.Errorf("replica %d/%d: %s (%s)", r.Shard, r.Rank, resp.Error, resp.Code)
	}
	if resp.ID != req.ID {
		return fmt.Errorf("replica %d/%d: ping echoed %q, want %q", r.Shard, r.Rank, resp.ID, req.ID)
	}
	return nil
}
