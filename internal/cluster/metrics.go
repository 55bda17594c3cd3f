package cluster

import (
	"expvar"
	"sync"
	"sync/atomic"
)

// Metrics tallies the router's scatter-gather activity: process-wide
// counters plus one counter block per shard, all atomics so the
// scatter hot path never takes a lock. Published as the
// "swvec.cluster" expvar for /debug/vars scraping.
type Metrics struct {
	// Scatters counts queries fanned out; Partial counts responses
	// that were missing at least one shard's contribution.
	Scatters atomic.Int64
	Partial  atomic.Int64

	shards   []ShardMetrics
	replicas [][]ReplicaMetrics // [shard][failover rank]
}

// ShardMetrics is one shard's routing-policy tally.
type ShardMetrics struct {
	// Requests counts attempts sent to the shard (retries and hedges
	// included); Errors counts attempts that failed.
	Requests atomic.Int64
	Errors   atomic.Int64
	// Retries counts backoff retries after a transient failure; Hedges
	// counts speculative second requests launched against a slow
	// shard, and HedgeWins how often the hedge answered first.
	Retries   atomic.Int64
	Hedges    atomic.Int64
	HedgeWins atomic.Int64
	// BreakerTrips counts opens of the shard's circuit breaker;
	// BreakerSkipped counts queries that skipped the shard because the
	// breaker was rejecting (the shard is quarantined).
	BreakerTrips   atomic.Int64
	BreakerSkipped atomic.Int64
	// Degraded counts queries the shard answered only after a retry or
	// through a hedge; Skipped counts queries that got no usable
	// answer from the shard at all.
	Degraded atomic.Int64
	Skipped  atomic.Int64
	// Failovers counts queries the shard answered only after at least
	// one of its replicas had already failed the query.
	Failovers atomic.Int64
}

// Replica health states, reported as the replica_state gauge.
const (
	ReplicaHealthy = iota
	ReplicaDown
)

// ReplicaMetrics is one replica's tally within its shard.
type ReplicaMetrics struct {
	// Requests counts attempts sent to this replica (retries and hedges
	// included); Errors counts attempts that failed.
	Requests atomic.Int64
	Errors   atomic.Int64
	// Failovers counts queries that abandoned this replica for a
	// sibling after its attempts were exhausted.
	Failovers atomic.Int64
	// Probes counts health pings sent to the replica; ProbeFailures
	// counts the ones that failed.
	Probes        atomic.Int64
	ProbeFailures atomic.Int64
	// State is the current health gauge (ReplicaHealthy/ReplicaDown);
	// StateChanges counts its transitions.
	State        atomic.Int64
	StateChanges atomic.Int64
}

// SetState records a health transition, counting only real changes so
// a steady replica probed every second does not inflate the counter.
func (r *ReplicaMetrics) SetState(s int64) {
	if r.State.Swap(s) != s {
		r.StateChanges.Add(1)
	}
}

// NewReplicatedMetrics returns a Metrics block for n shards of r
// replicas each.
func NewReplicatedMetrics(n, r int) *Metrics {
	m := &Metrics{shards: make([]ShardMetrics, n), replicas: make([][]ReplicaMetrics, n)}
	for i := range m.replicas {
		m.replicas[i] = make([]ReplicaMetrics, r)
	}
	return m
}

// Shard returns shard i's counter block.
func (m *Metrics) Shard(i int) *ShardMetrics { return &m.shards[i] }

// Replica returns the counter block for shard i's replica of the given
// failover rank.
func (m *Metrics) Replica(i, rank int) *ReplicaMetrics { return &m.replicas[i][rank] }

// ShardSnapshot is an immutable copy of one shard's counters; JSON
// tags match the /debug/vars output.
type ShardSnapshot struct {
	Requests       int64             `json:"requests"`
	Errors         int64             `json:"errors"`
	Retries        int64             `json:"retries"`
	Hedges         int64             `json:"hedges"`
	HedgeWins      int64             `json:"hedge_wins"`
	BreakerTrips   int64             `json:"breaker_trips"`
	BreakerSkipped int64             `json:"breaker_skipped"`
	Degraded       int64             `json:"degraded"`
	Skipped        int64             `json:"skipped"`
	Failovers      int64             `json:"failovers"`
	Replicas       []ReplicaSnapshot `json:"replicas,omitempty"`
}

// ReplicaSnapshot is an immutable copy of one replica's counters.
// Replicas are listed in failover order (rank 0 is the primary).
type ReplicaSnapshot struct {
	Rank             int    `json:"rank"`
	State            string `json:"state"`
	Requests         int64  `json:"requests"`
	Errors           int64  `json:"errors"`
	Failovers        int64  `json:"failovers"`
	Probes           int64  `json:"probes"`
	ProbeFailures    int64  `json:"probe_failures"`
	StateTransitions int64  `json:"state_transitions"`
}

// replicaStateName renders the replica_state gauge for humans.
func replicaStateName(s int64) string {
	switch s {
	case ReplicaHealthy:
		return "healthy"
	case ReplicaDown:
		return "down"
	}
	return "unknown"
}

// Snapshot is a point-in-time copy of the whole Metrics block.
type Snapshot struct {
	Scatters int64           `json:"scatters"`
	Partial  int64           `json:"partial"`
	Shards   []ShardSnapshot `json:"shards"`
}

// Snapshot copies every counter. Individual counters are read
// atomically; the copy as a whole is a sample of a moving system, like
// any /debug/vars scrape.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Scatters: m.Scatters.Load(),
		Partial:  m.Partial.Load(),
		Shards:   make([]ShardSnapshot, len(m.shards)),
	}
	for i := range m.shards {
		sh := &m.shards[i]
		snap := ShardSnapshot{
			Requests:       sh.Requests.Load(),
			Errors:         sh.Errors.Load(),
			Retries:        sh.Retries.Load(),
			Hedges:         sh.Hedges.Load(),
			HedgeWins:      sh.HedgeWins.Load(),
			BreakerTrips:   sh.BreakerTrips.Load(),
			BreakerSkipped: sh.BreakerSkipped.Load(),
			Degraded:       sh.Degraded.Load(),
			Skipped:        sh.Skipped.Load(),
			Failovers:      sh.Failovers.Load(),
		}
		for rank := range m.replicas[i] {
			r := &m.replicas[i][rank]
			snap.Replicas = append(snap.Replicas, ReplicaSnapshot{
				Rank:             rank,
				State:            replicaStateName(r.State.Load()),
				Requests:         r.Requests.Load(),
				Errors:           r.Errors.Load(),
				Failovers:        r.Failovers.Load(),
				Probes:           r.Probes.Load(),
				ProbeFailures:    r.ProbeFailures.Load(),
				StateTransitions: r.StateChanges.Load(),
			})
		}
		s.Shards[i] = snap
	}
	return s
}

var publishOnce sync.Once

// Publish registers m as the "swvec.cluster" expvar. Idempotent;
// only the first published Metrics wins (one router per process).
func (m *Metrics) Publish() {
	publishOnce.Do(func() {
		expvar.Publish("swvec.cluster", expvar.Func(func() any {
			return m.Snapshot()
		}))
	})
}
