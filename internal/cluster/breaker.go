// Package cluster implements the sharded scatter-gather search layer
// (DESIGN.md §15): a consistent-hash shard map that partitions a
// database across N swserver shard processes, the wire protocol the
// router speaks to them, a per-shard routing policy (circuit breakers,
// bounded retry with backoff, hedged requests), top-K merging that
// preserves the single-node ordering contract, per-shard metrics, and
// a spawner for local shard processes.
package cluster

import (
	"sync"
	"time"
)

// Breaker is a consecutive-failure circuit breaker. swserver guards its
// batch compute path with one; the router runs one per replica so a
// dead or flapping replica degrades into fast, explicit skips instead of
// every query burning a full shard timeout against it.
//
// States: closed (normal), open (rejecting until the cooldown passes),
// half-open (one probe in flight decides whether to close or reopen).
type Breaker struct {
	threshold int           // consecutive failures that trip it
	cooldown  time.Duration // open -> half-open delay
	now       func() time.Time

	mu       sync.Mutex
	state    int
	failures int
	openedAt time.Time
	probing  bool // half-open: the single probe is in flight
}

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and admits a probe after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Closed reports whether the breaker is in its normal closed state —
// no failure streak has tripped it and no reintegration probe is
// pending. Unlike Allow it never transitions state, so callers that
// must not consume the half-open probe slot (replica admission and
// hedge-target selection, which leave reintegration to the health
// prober) can check health without racing the prober for it.
func (b *Breaker) Closed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

// Rejecting is the cheap admission-side check: true while the breaker
// is open and still cooling down, or half-open with the probe already
// taken. Requests refused here never reach the guarded call.
func (b *Breaker) Rejecting() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return b.now().Sub(b.openedAt) < b.cooldown
	case breakerHalfOpen:
		return b.probing
	}
	return false
}

// Allow reports whether a guarded call may run. An open breaker past
// its cooldown transitions to half-open and admits exactly one probe;
// everything else waits for the probe's verdict.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// OnSuccess reports a completed call; a half-open probe's success
// closes the breaker.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// OnFailure reports a failed call and returns true when this failure
// tripped the breaker open (from closed after threshold consecutive
// failures, or a failed half-open probe).
func (b *Breaker) OnFailure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		return true
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			return true
		}
	}
	return false
}
