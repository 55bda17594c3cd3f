//go:build failpoint

package sched

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/failpoint"
	"swvec/internal/leakcheck"
	"swvec/internal/seqio"
)

// chaosOpt pins the vector width so batch composition (and therefore
// which sequences share a fate with a poisoned batch) is deterministic
// across machines.
func chaosOpt() Options {
	return Options{Gaps: aln.DefaultGaps(), Width: 256, Threads: 4}
}

// modeledChaosOpt is chaosOpt on the modeled backend, the only one
// whose 8-bit stage saturates: the rescue and escalation tiers (and
// their failpoint sites) only run there.
func modeledChaosOpt() Options {
	opt := chaosOpt()
	opt.Backend = core.BackendModeled
	return opt
}

// chaosDB is a plain workload: no saturation, so every hit is written
// exactly once by the 8-bit stage.
func chaosDB(seed int64) ([]seqio.Sequence, []uint8) {
	g := seqio.NewGenerator(seed)
	db := g.Database(300)
	return db, g.Protein("q", 150).Encode(protAlpha)
}

// quarantineSet indexes a quarantine report and sanity-checks every
// record: the stage matches, the cause carries the injected message,
// and the ID round-trips to the database entry.
func quarantineSet(t *testing.T, db []seqio.Sequence, qs []Quarantine, stage, msg string) map[int]bool {
	t.Helper()
	set := make(map[int]bool, len(qs))
	for _, q := range qs {
		if q.Stage != stage {
			t.Errorf("quarantine stage = %q, want %q", q.Stage, stage)
		}
		if !strings.Contains(q.Cause, msg) {
			t.Errorf("quarantine cause = %q, want injected %q", q.Cause, msg)
		}
		if q.SeqIndex < 0 || q.SeqIndex >= len(db) {
			t.Fatalf("quarantine index %d out of range", q.SeqIndex)
		}
		if q.ID != db[q.SeqIndex].ID {
			t.Errorf("quarantine id %q != db[%d].ID %q", q.ID, q.SeqIndex, db[q.SeqIndex].ID)
		}
		set[q.SeqIndex] = true
	}
	return set
}

// TestChaosKernelPanicQuarantinesBatch is the headline self-healing
// property: a kernel panic on one batch quarantines that batch's
// sequences and nothing else — the search still succeeds and every
// other score is identical to a healthy run.
func TestChaosKernelPanicQuarantinesBatch(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := chaosDB(601)
	ref, err := Search(query, db, b62, chaosOpt())
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("sched/align8", "panic(chaos-kernel):first=1"); err != nil {
		t.Fatal(err)
	}
	res, err := Search(query, db, b62, chaosOpt())
	if err != nil {
		t.Fatalf("self-healing search failed outright: %v", err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("panicked batch produced no quarantine records")
	}
	if len(res.Quarantined) > 32 {
		t.Fatalf("%d sequences quarantined, want at most one 32-lane batch", len(res.Quarantined))
	}
	bad := quarantineSet(t, db, res.Quarantined, "align8", "chaos-kernel")
	for i, h := range res.Hits {
		if bad[i] {
			continue
		}
		if h.Score != ref.Hits[i].Score {
			t.Errorf("healthy hit %d scored %d, reference %d", i, h.Score, ref.Hits[i].Score)
		}
	}
	if res.Stats.PanicsRecovered == 0 {
		t.Error("Stats.PanicsRecovered = 0 after a recovered kernel panic")
	}
	if res.Stats.Quarantined != int64(len(res.Quarantined)) {
		t.Errorf("Stats.Quarantined = %d, report has %d", res.Stats.Quarantined, len(res.Quarantined))
	}
	checkStatsConsistent(t, res)
}

// TestChaosTransientErrorRetries: a fault marked transient is retried
// with backoff and the search completes with zero quarantines and a
// result identical to the healthy reference.
func TestChaosTransientErrorRetries(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := chaosDB(602)
	ref, err := Search(query, db, b62, chaosOpt())
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("sched/align8", "error(resource blip):transient:first=2"); err != nil {
		t.Fatal(err)
	}
	res, err := Search(query, db, b62, chaosOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 0 {
		t.Fatalf("transient fault quarantined %d sequences: %+v", len(res.Quarantined), res.Quarantined)
	}
	if res.Stats.Retries == 0 {
		t.Error("Stats.Retries = 0: the transient fault was never retried")
	}
	for i, h := range res.Hits {
		if h != ref.Hits[i] {
			t.Fatalf("hit %d = %+v, reference %+v", i, h, ref.Hits[i])
		}
	}
}

// TestChaosPermanentErrorQuarantines: a non-transient stage error is
// not retried; each poisoned batch is quarantined and the rest of the
// search completes.
func TestChaosPermanentErrorQuarantines(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := chaosDB(603)
	ref, err := Search(query, db, b62, chaosOpt())
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("sched/align8", "error(dead lane):first=2"); err != nil {
		t.Fatal(err)
	}
	res, err := Search(query, db, b62, chaosOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) < 2 {
		t.Fatalf("two injected failures produced %d quarantines", len(res.Quarantined))
	}
	bad := quarantineSet(t, db, res.Quarantined, "align8", "dead lane")
	for i, h := range res.Hits {
		if !bad[i] && h.Score != ref.Hits[i].Score {
			t.Errorf("healthy hit %d scored %d, reference %d", i, h.Score, ref.Hits[i].Score)
		}
	}
	if res.Stats.Retries != 0 {
		t.Errorf("Stats.Retries = %d for a permanent (non-transient) fault", res.Stats.Retries)
	}
}

// TestChaosRescuePanicQuarantines drives the 16-bit rescue tier over
// a saturating workload and panics its kernel once: the rescued
// sequence is quarantined, its hit keeps the capped 8-bit score with
// Rescued false, and untouched sequences match the healthy run.
func TestChaosRescuePanicQuarantines(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := rescueDB(604)
	ref, err := Search(query, db, b62, modeledChaosOpt())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rescued == 0 {
		t.Fatal("setup failure: workload did not saturate the 8-bit stage")
	}
	if err := failpoint.Enable("sched/align16", "panic(rescue burn):first=1"); err != nil {
		t.Fatal(err)
	}
	res, err := Search(query, db, b62, modeledChaosOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("failed rescue produced no quarantine records")
	}
	bad := quarantineSet(t, db, res.Quarantined, "align16", "rescue burn")
	for si := range bad {
		h := res.Hits[si]
		if h.Rescued {
			t.Errorf("quarantined seq %d marked Rescued despite the failed rescue", si)
		}
		if !ref.Hits[si].Rescued {
			t.Errorf("quarantined seq %d was never rescued in the reference run", si)
		}
	}
	for i, h := range res.Hits {
		if !bad[i] && h.Score != ref.Hits[i].Score {
			t.Errorf("healthy hit %d scored %d, reference %d", i, h.Score, ref.Hits[i].Score)
		}
	}
	if res.Stats.PanicsRecovered == 0 {
		t.Error("Stats.PanicsRecovered = 0 after a recovered rescue panic")
	}
}

// TestChaosProducerCrashFailsCleanly: a panic in the pipeline's own
// machinery (the producer, its one coordinator, which has no per-batch
// error path) is not healable — the search must fail with the panic's
// error, promptly and without leaking a single goroutine.
func TestChaosProducerCrashFailsCleanly(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := rescueDB(605)
	if err := failpoint.Enable("sched/produce", "panic(producer bug):after=1"); err != nil {
		t.Fatal(err)
	}
	res, err := Search(query, db, b62, chaosOpt())
	if err == nil {
		t.Fatal("crashed coordinator did not fail the search")
	}
	if !strings.Contains(err.Error(), "produce") || !strings.Contains(err.Error(), "producer bug") {
		t.Errorf("err = %v, want the producer panic", err)
	}
	if res != nil {
		t.Errorf("crashed search returned a result: %+v", res)
	}
}

// TestChaosProducerFaultFailsSearch: a producer fault is fatal by
// design — without the stream there is nothing to heal around — but it
// must still unwind cleanly.
func TestChaosProducerFaultFailsSearch(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := chaosDB(606)
	if err := failpoint.Enable("sched/produce", "error(stream io):first=1"); err != nil {
		t.Fatal(err)
	}
	_, err := Search(query, db, b62, chaosOpt())
	if err == nil {
		t.Fatal("producer fault did not fail the search")
	}
	if !strings.Contains(err.Error(), "stream io") {
		t.Errorf("err = %v, want the injected producer fault", err)
	}
}

// TestChaosMultiSearchQuarantines covers the scenario-2 path: a failed
// multi-query batch quarantines its sequences for every query while the
// rest of the score matrix matches a healthy run.
func TestChaosMultiSearchQuarantines(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	g := seqio.NewGenerator(607)
	db := g.Database(200)
	queries := [][]uint8{
		g.Protein("q1", 120).Encode(protAlpha),
		g.Protein("q2", 180).Encode(protAlpha),
	}
	opt := chaosOpt()
	ref, err := MultiSearch(queries, db, b62, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("sched/align8", "error(multi boom):first=1"); err != nil {
		t.Fatal(err)
	}
	res, err := MultiSearch(queries, db, b62, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) == 0 {
		t.Fatal("failed multi-query batch produced no quarantine records")
	}
	bad := quarantineSet(t, db, res.Quarantined, "align8", "multi boom")
	for qi := range queries {
		for si := range db {
			if bad[si] {
				if res.Scores[qi][si] != 0 {
					t.Errorf("quarantined score [%d][%d] = %d, want 0", qi, si, res.Scores[qi][si])
				}
				continue
			}
			if res.Scores[qi][si] != ref.Scores[qi][si] {
				t.Errorf("score [%d][%d] = %d, reference %d", qi, si, res.Scores[qi][si], ref.Scores[qi][si])
			}
		}
	}
	if res.Stats.Quarantined != int64(len(res.Quarantined)) {
		t.Errorf("Stats.Quarantined = %d, report has %d", res.Stats.Quarantined, len(res.Quarantined))
	}
}

// TestChaosMultiSearchRescueQuarantines arms the 16-bit rescue tier
// with a permanent fault under MultiSearch: every saturated pair is
// quarantined at align16 and keeps its capped 8-bit score, and every
// other score equals a healthy run.
func TestChaosMultiSearchRescueQuarantines(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := rescueDB(609)
	queries := [][]uint8{seqio.NewGenerator(610).Protein("q0", 120).Encode(protAlpha), query}
	opt := modeledChaosOpt()
	ref, err := MultiSearch(queries, db, b62, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rescued == 0 {
		t.Fatal("setup failure: workload did not saturate the 8-bit stage")
	}
	if err := failpoint.Enable("sched/align16", "error(rescue burn)"); err != nil {
		t.Fatal(err)
	}
	res, err := MultiSearch(queries, db, b62, opt)
	if err != nil {
		t.Fatalf("multi-search with a failed rescue must degrade, not fail: %v", err)
	}
	bad := quarantineSet(t, db, res.Quarantined, "align16", "rescue burn")
	if len(bad) == 0 {
		t.Fatal("failed rescue produced no quarantine records")
	}
	const capped8 = 127
	for qi := range queries {
		for si := range db {
			got, want := res.Scores[qi][si], ref.Scores[qi][si]
			if want < capped8 {
				if got != want {
					t.Errorf("score [%d][%d] = %d, reference %d", qi, si, got, want)
				}
				continue
			}
			if !bad[si] {
				t.Errorf("saturated pair [%d][%d] was not quarantined", qi, si)
			}
			if got != capped8 {
				t.Errorf("quarantined pair [%d][%d] = %d, want the capped 8-bit score %d", qi, si, got, capped8)
			}
		}
	}
	if res.Stats.Quarantined != int64(len(res.Quarantined)) || res.Stats.Batches16 != 0 {
		t.Errorf("Stats.Quarantined = %d (report has %d), Batches16 = %d (want 0)",
			res.Stats.Quarantined, len(res.Quarantined), res.Stats.Batches16)
	}
}

// TestChaosDelayRespectsDeadline injects latency into every 8-bit
// batch and runs under a tight deadline: the search must return
// promptly with the ctx error and a consistent partial result, leaking
// nothing.
func TestChaosDelayRespectsDeadline(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	g := seqio.NewGenerator(608)
	db := g.Database(2000)
	query := g.Protein("q", 200).Encode(protAlpha)
	if err := failpoint.Enable("sched/align8", "delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	opt := Options{Gaps: aln.DefaultGaps(), Width: 256, Threads: 2}
	start := time.Now()
	res, err := SearchContext(ctx, query, db, b62, opt)
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("deadlined search took %v to return", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("deadlined search must return the partial result")
	}
	if res.Stats.Canceled != 1 {
		t.Errorf("Stats.Canceled = %d, want 1", res.Stats.Canceled)
	}
	checkStatsConsistent(t, res)
}

// TestChaos32BitEscalationRetries drives the escalation ladder to the
// 32-bit pair tier and injects transient faults into it: the stage
// retry policy must absorb them and the final hits must match a
// healthy run exactly.
func TestChaos32BitEscalationRetries(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := escalationDB(t, 606)
	mat := escalationMat
	opt := modeledChaosOpt()
	ref, err := Search(query, db, mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Pairs32 == 0 {
		t.Fatal("setup failure: workload never escalated to the 32-bit tier")
	}
	if err := failpoint.Enable("sched/align32", "error(escalation blip):transient:first=2"); err != nil {
		t.Fatal(err)
	}
	res, err := Search(query, db, mat, opt)
	if err != nil {
		t.Fatalf("search under transient 32-bit faults failed: %v", err)
	}
	if failpoint.Fired("sched/align32") == 0 {
		t.Fatal("sched/align32 site never fired")
	}
	if res.Stats.Retries == 0 {
		t.Error("injected transient faults caused no retries")
	}
	for i, h := range res.Hits {
		if h.Score != ref.Hits[i].Score || h.Rescued != ref.Hits[i].Rescued {
			t.Errorf("hit %d = (%d, rescued=%v), healthy run (%d, rescued=%v)",
				i, h.Score, h.Rescued, ref.Hits[i].Score, ref.Hits[i].Rescued)
		}
	}
}

// TestChaos32BitFailureQuarantines injects a permanent fault into the
// 32-bit tier: the escalated sequence is quarantined with the align32
// stage recorded, its score stays below the healthy (overflowing)
// value, and every other hit is untouched.
func TestChaos32BitFailureQuarantines(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := escalationDB(t, 607)
	mat := escalationMat
	opt := modeledChaosOpt()
	ref, err := Search(query, db, mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Pairs32 == 0 {
		t.Fatal("setup failure: workload never escalated to the 32-bit tier")
	}
	if err := failpoint.Enable("sched/align32", "error(tier burn)"); err != nil {
		t.Fatal(err)
	}
	res, err := Search(query, db, mat, opt)
	if err != nil {
		t.Fatalf("search with a failed 32-bit tier must degrade, not fail: %v", err)
	}
	bad := quarantineSet(t, db, res.Quarantined, "align32", "tier burn")
	if len(bad) == 0 {
		t.Fatal("failed 32-bit escalation produced no quarantine records")
	}
	for si := range bad {
		if res.Hits[si].Score >= ref.Hits[si].Score {
			t.Errorf("quarantined seq %d scored %d, not below the healthy overflowing %d",
				si, res.Hits[si].Score, ref.Hits[si].Score)
		}
	}
	for i, h := range res.Hits {
		if !bad[i] && h.Score != ref.Hits[i].Score {
			t.Errorf("healthy hit %d scored %d, reference %d", i, h.Score, ref.Hits[i].Score)
		}
	}
}
