package sched

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/leakcheck"
	"swvec/internal/seqio"
)

// waitForGoroutines polls until the live goroutine count drops back to
// at most want, failing the test if it never does — the leak check for
// the canceled pipeline.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s",
				runtime.NumGoroutine(), want, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// checkStatsConsistent asserts the invariants every Stats snapshot must
// satisfy, canceled or not: cell totals sum to Result.Cells, no stage
// ran more batches than the producer emitted, and the rescue counters
// agree with Result.Rescued.
func checkStatsConsistent(t *testing.T, res *Result) {
	t.Helper()
	s := res.Stats
	if s.Cells() != res.Cells {
		t.Errorf("Stats cells %d != Result.Cells %d", s.Cells(), res.Cells)
	}
	if s.Batches8 > s.BatchesProduced {
		t.Errorf("aligned %d batches but only %d produced", s.Batches8, s.BatchesProduced)
	}
	if int(s.Saturated8) != res.Rescued {
		t.Errorf("Saturated8 %d != Result.Rescued %d", s.Saturated8, res.Rescued)
	}
	if s.Saturated16 > s.Saturated8 {
		t.Errorf("more 16-bit saturations (%d) than 8-bit (%d)", s.Saturated16, s.Saturated8)
	}
	if s.Searches != 1 {
		t.Errorf("per-search snapshot has Searches = %d", s.Searches)
	}
}

// TestSearchContextPreCanceled is the deterministic cancellation path:
// an already-canceled context must return immediately with a partial
// (empty) result, the ctx error, and no leaked goroutines.
func TestSearchContextPreCanceled(t *testing.T) {
	leakcheck.Check(t)
	g := seqio.NewGenerator(301)
	db := g.Database(200)
	query := g.Protein("q", 120).Encode(protAlpha)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SearchContext(ctx, query, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled search must still return the partial result")
	}
	if len(res.Hits) != len(db) {
		t.Fatalf("partial result has %d hits, want %d", len(res.Hits), len(db))
	}
	if res.Stats.Canceled != 1 {
		t.Errorf("Stats.Canceled = %d, want 1", res.Stats.Canceled)
	}
	checkStatsConsistent(t, res)
	waitForGoroutines(t, before+2)
}

// TestSearchContextCancel cancels a search mid-stream: the call must
// return promptly with the partial hits, an error wrapping
// context.Canceled, a consistent Stats snapshot, and no leaked
// pipeline goroutines.
func TestSearchContextCancel(t *testing.T) {
	leakcheck.Check(t)
	g := seqio.NewGenerator(302)
	db := g.Database(1200)
	query := g.Protein("q", 250).Encode(protAlpha)

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := SearchContext(ctx, query, db, b62,
		Options{Gaps: aln.DefaultGaps(), Threads: 2})
	elapsed := time.Since(start)
	cancel()
	waitForGoroutines(t, before+2)

	if err == nil {
		// The machine finished 1200 sequences inside 10ms; nothing to
		// assert about partial state, but the leak check above ran.
		t.Skipf("search completed in %v before the cancel fired", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res == nil {
		t.Fatal("canceled search must return the partial result")
	}
	if res.Stats.BatchesProduced >= int64(len(db)/64) && res.Stats.Batches8 == res.Stats.BatchesProduced && res.Stats.Pairs32 == 0 {
		// Not fatal — cancel can land between last batch and return —
		// but the common case is a genuinely partial stream.
		t.Logf("cancel landed after all %d batches were aligned", res.Stats.Batches8)
	}
	if res.Stats.Canceled != 1 {
		t.Errorf("Stats.Canceled = %d, want 1", res.Stats.Canceled)
	}
	checkStatsConsistent(t, res)

	// Partial hits: every aligned batch wrote real scores; verify the
	// result arrays are intact and indexable regardless of progress.
	if len(res.Hits) != len(db) {
		t.Fatalf("partial result has %d hits, want %d", len(res.Hits), len(db))
	}
	for i, h := range res.Hits {
		if h.SeqIndex != i {
			t.Fatalf("hit %d has index %d", i, h.SeqIndex)
		}
	}
}

// TestSearchContextComplete runs an uncanceled ctx search end to end
// and pins down the Stats snapshot against known workload quantities,
// on the modeled backend so the rescue counters register.
func TestSearchContextComplete(t *testing.T) {
	leakcheck.Check(t)
	db, query := rescueDB(303)
	opt := Options{Gaps: aln.DefaultGaps(), Threads: 3, Backend: core.BackendModeled}
	width, err := opt.width()
	if err != nil {
		t.Fatal(err)
	}
	lanes := width / 8
	res, err := SearchContext(context.Background(), query, db, b62, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	wantBatches := int64((len(db) + lanes - 1) / lanes)
	if s.BatchesProduced != wantBatches || s.Batches8 != wantBatches {
		t.Errorf("batches produced/aligned = %d/%d, want %d", s.BatchesProduced, s.Batches8, wantBatches)
	}
	if s.Saturated8 == 0 || s.Batches16 == 0 {
		t.Error("rescue workload did not register in Stats")
	}
	if s.Cells16 == 0 {
		t.Error("16-bit rescue cells missing")
	}
	if s.Stage8Nanos <= 0 || s.ProduceNanos <= 0 {
		t.Errorf("stage timings missing: produce=%d stage8=%d", s.ProduceNanos, s.Stage8Nanos)
	}
	if depth := int64(2 * opt.threads()); s.QueueHighWater < 1 || s.QueueHighWater > depth {
		t.Errorf("queue high-water %d out of range [1, %d]", s.QueueHighWater, depth)
	}
	if s.Canceled != 0 {
		t.Errorf("Canceled = %d on a completed search", s.Canceled)
	}
	checkStatsConsistent(t, res)

	// Stats must not perturb results: identical hits via Search.
	ref, err := Search(query, db, b62, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Hits, ref.Hits) {
		t.Error("ctx and plain Search disagree on hits")
	}
}

// TestMultiSearchContextCancel covers the scenario-2 cancellation path
// the server's request deadline uses.
func TestMultiSearchContextCancel(t *testing.T) {
	leakcheck.Check(t)
	g := seqio.NewGenerator(304)
	db := g.Database(400)
	queries := [][]uint8{
		g.Protein("q1", 200).Encode(protAlpha),
		g.Protein("q2", 300).Encode(protAlpha),
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MultiSearchContext(ctx, queries, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Scores) != len(queries) {
		t.Fatal("canceled multi-search must return the partial score matrix")
	}
	if res.Stats.Batches8 != 0 || res.Cells != 0 {
		t.Errorf("pre-canceled multi-search did work: batches=%d cells=%d", res.Stats.Batches8, res.Cells)
	}
	if res.Stats.Canceled != 1 {
		t.Errorf("Stats.Canceled = %d, want 1", res.Stats.Canceled)
	}
	waitForGoroutines(t, before+2)
}

// TestMultiSearchStats pins the scenario-2 snapshot on a full run.
func TestMultiSearchStats(t *testing.T) {
	leakcheck.Check(t)
	g := seqio.NewGenerator(305)
	db := g.Database(100)
	queries := [][]uint8{g.Protein("q", 150).Encode(protAlpha)}
	res, err := MultiSearchContext(context.Background(), queries, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Batches8 != s.BatchesProduced || s.Batches8 == 0 {
		t.Errorf("batches aligned/produced = %d/%d", s.Batches8, s.BatchesProduced)
	}
	if s.Cells() != res.Cells || res.Cells == 0 {
		t.Errorf("cells mismatch: snapshot %d, result %d", s.Cells(), res.Cells)
	}
	if int(s.Saturated8) != res.Rescued {
		t.Errorf("Saturated8 %d != Rescued %d", s.Saturated8, res.Rescued)
	}
}
