// Package metrics provides low-overhead atomic counters for the
// search pipeline. A search accumulates into a private Counters value
// (one atomic add per batch, never per cell), snapshots it into the
// immutable Snapshot that rides on the result, and merges the snapshot
// into the process-wide Global aggregate, which can be published as an
// expvar for /debug/vars scraping.
//
// The split between Counters (live, atomic) and Snapshot (plain
// int64s) keeps the hot path free of locks and the observed values
// internally consistent: a Snapshot is only taken after every writer
// has quiesced, so its cell totals always sum and its stage counts
// never run ahead of the producer.
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Counters is the live, concurrently-written tally of one search (or,
// for Global, of every search in the process). All fields are atomics;
// the zero value is ready to use.
type Counters struct {
	// Searches and Canceled count completed pipeline runs and how many
	// of them ended early on a context cancellation or deadline.
	Searches atomic.Int64
	Canceled atomic.Int64

	// BatchesProduced counts transposed batches emitted by the
	// producer; Batches8 counts batches the 8-bit stage actually
	// aligned (on a canceled run workers drain without aligning, so
	// Batches8 may trail BatchesProduced). Batches16 counts 16-bit
	// rescue alignments, one saturated (query, sequence) pair each, and
	// Pairs32 counts 32-bit escalation alignments; both stay zero on
	// the native backend, which never saturates.
	BatchesProduced atomic.Int64
	Batches8        atomic.Int64
	Batches16       atomic.Int64
	Pairs32         atomic.Int64

	// Cells8/Cells16/Cells32 are real DP cells per stage width,
	// padding excluded. Their sum is the search's total cell count. On
	// the native backend every cell is in Cells8, the batch stage's
	// count, although that stage computes in 32 bits.
	Cells8  atomic.Int64
	Cells16 atomic.Int64
	Cells32 atomic.Int64

	// Saturated8 counts lanes whose 8-bit score saturated, when the
	// 8-bit stage detects them; Saturated16 counts rescues that also
	// overflowed int16 and escalated to the 32-bit pair kernel. Only
	// the modeled backend saturates: both read zero on native.
	Saturated8  atomic.Int64
	Saturated16 atomic.Int64

	// ProfileCacheHits counts modeled pair alignments that reused a
	// cached 8-bit or striped query profile from the worker's scratch
	// instead of rebuilding it (the native kernel builds no profile).
	ProfileCacheHits atomic.Int64

	// QueueHighWater is the deepest the 8-bit work queue ever got,
	// counting the batch being handed over and capped at the queue's
	// capacity (two batches per worker), so a search that produced any
	// batch reads at least 1 — a direct read on whether the producer or
	// the workers are the bottleneck.
	QueueHighWater atomic.Int64

	// ProduceNanos is wall time spent transposing batches in the
	// producer; Stage8/16/32Nanos are the summed per-worker wall times
	// inside each alignment stage (they overlap in real time, so they
	// measure work, not latency).
	ProduceNanos atomic.Int64
	Stage8Nanos  atomic.Int64
	Stage16Nanos atomic.Int64
	Stage32Nanos atomic.Int64

	// PanicsRecovered counts kernel panics the stage runners absorbed,
	// Retries counts transient stage failures retried with backoff, and
	// Quarantined counts database sequences isolated after a stage
	// exhausted its retries (DESIGN.md §12).
	PanicsRecovered atomic.Int64
	Retries         atomic.Int64
	Quarantined     atomic.Int64

	// Malformed and Oversized count input records the lenient FASTA
	// decoder skipped: syntactically broken records and records beyond
	// the configured sequence-length cap.
	Malformed atomic.Int64
	Oversized atomic.Int64

	// Shed, BreakerTrips, and BreakerRejected count the server's
	// overload responses: requests dropped at the admission gate,
	// circuit-breaker opens, and requests refused while it was open.
	Shed            atomic.Int64
	BreakerTrips    atomic.Int64
	BreakerRejected atomic.Int64
}

// ObserveQueueDepth raises QueueHighWater to depth if it is a new
// maximum.
func (c *Counters) ObserveQueueDepth(depth int) {
	d := int64(depth)
	for {
		cur := c.QueueHighWater.Load()
		if d <= cur || c.QueueHighWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy. It is only guaranteed to be
// internally consistent once every writer has quiesced (the pipeline
// snapshots after its worker pool has fully drained).
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		Searches:         c.Searches.Load(),
		Canceled:         c.Canceled.Load(),
		BatchesProduced:  c.BatchesProduced.Load(),
		Batches8:         c.Batches8.Load(),
		Batches16:        c.Batches16.Load(),
		Pairs32:          c.Pairs32.Load(),
		Cells8:           c.Cells8.Load(),
		Cells16:          c.Cells16.Load(),
		Cells32:          c.Cells32.Load(),
		Saturated8:       c.Saturated8.Load(),
		Saturated16:      c.Saturated16.Load(),
		ProfileCacheHits: c.ProfileCacheHits.Load(),
		QueueHighWater:   c.QueueHighWater.Load(),
		ProduceNanos:     c.ProduceNanos.Load(),
		Stage8Nanos:      c.Stage8Nanos.Load(),
		Stage16Nanos:     c.Stage16Nanos.Load(),
		Stage32Nanos:     c.Stage32Nanos.Load(),
		PanicsRecovered:  c.PanicsRecovered.Load(),
		Retries:          c.Retries.Load(),
		Quarantined:      c.Quarantined.Load(),
		Malformed:        c.Malformed.Load(),
		Oversized:        c.Oversized.Load(),
		Shed:             c.Shed.Load(),
		BreakerTrips:     c.BreakerTrips.Load(),
		BreakerRejected:  c.BreakerRejected.Load(),
	}
}

// Add merges a finished search's snapshot into the aggregate. Counters
// sum; QueueHighWater takes the maximum.
func (c *Counters) Add(s Snapshot) {
	c.Searches.Add(s.Searches)
	c.Canceled.Add(s.Canceled)
	c.BatchesProduced.Add(s.BatchesProduced)
	c.Batches8.Add(s.Batches8)
	c.Batches16.Add(s.Batches16)
	c.Pairs32.Add(s.Pairs32)
	c.Cells8.Add(s.Cells8)
	c.Cells16.Add(s.Cells16)
	c.Cells32.Add(s.Cells32)
	c.Saturated8.Add(s.Saturated8)
	c.Saturated16.Add(s.Saturated16)
	c.ProfileCacheHits.Add(s.ProfileCacheHits)
	c.ObserveQueueDepth(int(s.QueueHighWater))
	c.ProduceNanos.Add(s.ProduceNanos)
	c.Stage8Nanos.Add(s.Stage8Nanos)
	c.Stage16Nanos.Add(s.Stage16Nanos)
	c.Stage32Nanos.Add(s.Stage32Nanos)
	c.PanicsRecovered.Add(s.PanicsRecovered)
	c.Retries.Add(s.Retries)
	c.Quarantined.Add(s.Quarantined)
	c.Malformed.Add(s.Malformed)
	c.Oversized.Add(s.Oversized)
	c.Shed.Add(s.Shed)
	c.BreakerTrips.Add(s.BreakerTrips)
	c.BreakerRejected.Add(s.BreakerRejected)
}

// Snapshot is an immutable copy of Counters. JSON tags match the
// /debug/vars expvar output.
type Snapshot struct {
	Searches         int64 `json:"searches"`
	Canceled         int64 `json:"canceled"`
	BatchesProduced  int64 `json:"batches_produced"`
	Batches8         int64 `json:"batches_8"`
	Batches16        int64 `json:"batches_16"`
	Pairs32          int64 `json:"pairs_32"`
	Cells8           int64 `json:"cells_8"`
	Cells16          int64 `json:"cells_16"`
	Cells32          int64 `json:"cells_32"`
	Saturated8       int64 `json:"saturated_8"`
	Saturated16      int64 `json:"saturated_16"`
	ProfileCacheHits int64 `json:"profile_cache_hits"`
	QueueHighWater   int64 `json:"queue_high_water"`
	ProduceNanos     int64 `json:"produce_nanos"`
	Stage8Nanos      int64 `json:"stage8_nanos"`
	Stage16Nanos     int64 `json:"stage16_nanos"`
	Stage32Nanos     int64 `json:"stage32_nanos"`
	PanicsRecovered  int64 `json:"panics_recovered"`
	Retries          int64 `json:"retries"`
	Quarantined      int64 `json:"quarantined"`
	Malformed        int64 `json:"malformed"`
	Oversized        int64 `json:"oversized"`
	Shed             int64 `json:"shed"`
	BreakerTrips     int64 `json:"breaker_trips"`
	BreakerRejected  int64 `json:"breaker_rejected"`
}

// Cells is the total real DP cell count across every stage width.
func (s Snapshot) Cells() int64 { return s.Cells8 + s.Cells16 + s.Cells32 }

// ProduceTime is the wall time the producer spent transposing batches.
func (s Snapshot) ProduceTime() time.Duration { return time.Duration(s.ProduceNanos) }

// Stage8Time is the summed per-worker wall time in the 8-bit stage.
func (s Snapshot) Stage8Time() time.Duration { return time.Duration(s.Stage8Nanos) }

// Stage16Time is the summed per-worker wall time in the 16-bit
// rescues.
func (s Snapshot) Stage16Time() time.Duration { return time.Duration(s.Stage16Nanos) }

// Stage32Time is the summed per-worker wall time in the 32-bit
// escalation.
func (s Snapshot) Stage32Time() time.Duration { return time.Duration(s.Stage32Nanos) }

// WriteText renders the snapshot as aligned human-readable lines (the
// `swbench -stats` output).
func (s Snapshot) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, ""+
		"searches         %d (%d canceled)\n"+
		"batches          produced %d, aligned8 %d, rescue16 %d, pairs32 %d\n"+
		"cells            8-bit %d, 16-bit %d, 32-bit %d (total %d)\n"+
		"saturated lanes  8-bit %d, 16-bit %d\n"+
		"profile cache    %d hits\n"+
		"queue high-water %d batches\n"+
		"stage time       produce %v, 8-bit %v, 16-bit %v, 32-bit %v\n"+
		"resilience       recovered %d, retried %d, quarantined %d, malformed %d, oversized %d\n"+
		"overload         shed %d, breaker trips %d / rejected %d\n",
		s.Searches, s.Canceled,
		s.BatchesProduced, s.Batches8, s.Batches16, s.Pairs32,
		s.Cells8, s.Cells16, s.Cells32, s.Cells(),
		s.Saturated8, s.Saturated16,
		s.ProfileCacheHits,
		s.QueueHighWater,
		s.ProduceTime().Round(time.Microsecond), s.Stage8Time().Round(time.Microsecond),
		s.Stage16Time().Round(time.Microsecond), s.Stage32Time().Round(time.Microsecond),
		s.PanicsRecovered, s.Retries, s.Quarantined, s.Malformed, s.Oversized,
		s.Shed, s.BreakerTrips, s.BreakerRejected)
	return err
}

// Global aggregates every search run by the process. The search
// entry points merge each finished search's snapshot into it.
var Global Counters

var publishOnce sync.Once

// Publish registers the Global aggregate as the "swvec.search" expvar,
// so binaries that serve /debug/vars (e.g. swserver's admin port)
// expose the pipeline counters. Idempotent; safe to call from multiple
// components.
func Publish() {
	publishOnce.Do(func() {
		expvar.Publish("swvec.search", expvar.Func(func() any {
			return Global.Snapshot()
		}))
	})
}
