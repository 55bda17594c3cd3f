//go:build failpoint

package sched

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/failpoint"
	"swvec/internal/leakcheck"
	"swvec/internal/seqio"
)

// TestChaosRecoveredPanicLeavesLaterSearchesExact arms a recovered
// panic on the 8-bit stage, once under Search and once under
// MultiSearch; the clean searches that follow in the same process,
// drawing worker arenas from the shared pool, must still match the
// scalar reference.
func TestChaosRecoveredPanicLeavesLaterSearchesExact(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	g := seqio.NewGenerator(613)
	db := g.Database(64)
	queries := [][]uint8{g.Protein("q1", 110).Encode(protAlpha), g.Protein("q2", 140).Encode(protAlpha)}
	want := make([][]int32, len(queries))
	for qi, q := range queries {
		want[qi] = make([]int32, len(db))
		for si := range db {
			want[qi][si] = baselines.ScalarAffine(q, db[si].Encode(protAlpha), b62, aln.DefaultGaps()).Score
		}
	}
	opt := chaosOpt()
	search := func() error {
		_, err := Search(queries[0], db, b62, opt)
		return err
	}
	multi := func() error {
		_, err := MultiSearch(queries, db, b62, opt)
		return err
	}
	const site = "sched/align8"
	// The first search of each pair takes the one armed panic.
	for _, armed := range []struct {
		name          string
		first, second func() error
	}{
		{"Search", search, multi},
		{"MultiSearch", multi, search},
	} {
		if err := failpoint.Enable(site, "panic(arena):first=1"); err != nil {
			t.Fatal(err)
		}
		if err := armed.first(); err != nil {
			t.Fatal(err)
		}
		if err := armed.second(); err != nil {
			t.Fatal(err)
		}
		if failpoint.Fired(site) != 1 {
			t.Fatalf("%s fired %d times, want 1", site, failpoint.Fired(site))
		}
		failpoint.Disable(site)
		for round := 0; round < 2; round++ {
			res, err := Search(queries[0], db, b62, opt)
			if err != nil {
				t.Fatal(err)
			}
			for si, h := range res.Hits {
				if h.Score != want[0][si] {
					t.Errorf("after a %s panic: Search seq %d scored %d, want %d", armed.name, si, h.Score, want[0][si])
				}
			}
			mres, err := MultiSearch(queries, db, b62, opt)
			if err != nil {
				t.Fatal(err)
			}
			for qi := range queries {
				for si, s := range mres.Scores[qi] {
					if s != want[qi][si] {
						t.Errorf("after a %s panic: MultiSearch [%d][%d] scored %d, want %d", armed.name, qi, si, s, want[qi][si])
					}
				}
			}
		}
	}
}

// TestChaosPanickedWorkerDropsArena shows that a worker which
// recovered a panic does not return its arena to the pool, while a
// clean worker does, for the pipeline, multi-query and subroutine
// workers. With one P and an emptied pool, a single-worker search
// takes the one arena the test put there, and only a Put can bring it
// back.
func TestChaosPanickedWorkerDropsArena(t *testing.T) {
	defer failpoint.DisableAll()
	g := seqio.NewGenerator(614)
	db := g.Database(40)
	query := g.Protein("q", 120).Encode(protAlpha)
	// An out-of-alphabet code makes the pair kernel index past its
	// profile: a real kernel panic, which Subroutine recovers.
	corrupt := append([]uint8(nil), query...)
	corrupt[3] = 250
	opt := Options{Gaps: aln.DefaultGaps(), Width: 256, Threads: 1}
	armed := func(site string, search func() error) func() error {
		return func() error {
			if err := failpoint.Enable(site, "panic(arena):first=1"); err != nil {
				return err
			}
			defer failpoint.Disable(site)
			if err := search(); err != nil {
				return err
			}
			if n := failpoint.Fired(site); n != 1 {
				return fmt.Errorf("%s fired %d times, want 1", site, n)
			}
			return nil
		}
	}
	search := func() error {
		_, err := Search(query, db, b62, opt)
		return err
	}
	multi := func() error {
		_, err := MultiSearch([][]uint8{query}, db, b62, opt)
		return err
	}
	subroutine := func(q []uint8) func() error {
		return func() error {
			_, err := Subroutine([][]uint8{q}, db[:4], b62, false, opt)
			return err
		}
	}
	workers := []struct {
		name             string
		clean, panicking func() error
	}{
		{"pipeline", search, armed("sched/align8", search)},
		{"multi", multi, armed("sched/align8", multi)},
		{"subroutine", subroutine(query), func() error {
			if err := subroutine(corrupt)(); err == nil {
				return errors.New("corrupt query did not fail")
			}
			return nil
		}},
	}
	for _, w := range workers {
		// The race detector drops a random quarter of Puts, so only the
		// negative check is exact under it.
		if !raceEnabled && !workerReturnsArena(t, w.clean) {
			t.Errorf("%s: a clean worker did not return its arena", w.name)
		}
		if workerReturnsArena(t, w.panicking) {
			t.Errorf("%s: a worker that recovered a panic returned its arena", w.name)
		}
	}
}

// workerReturnsArena runs a single-worker search with a known arena
// waiting in the pool and reports whether that arena came back.
func workerReturnsArena(t *testing.T, search func() error) bool {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC() // two cycles drop every pooled arena
	runtime.GC()
	s := core.NewScratch()
	scratchPool.Put(s)
	if err := search(); err != nil {
		t.Fatal(err)
	}
	return getScratch() == s
}
