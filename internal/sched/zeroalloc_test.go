package sched

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/failpoint"
	"swvec/internal/metrics"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

// TestSearchZeroAlloc pins the resilience machinery's hot-path cost in
// the default build at zero: the per-batch 8-bit stage — now wrapped in
// failpoint hooks, per-attempt panic recovery, and the retry policy —
// must not allocate on the healthy path. Only the failure paths
// (quarantine, backoff) may.
func TestSearchZeroAlloc(t *testing.T) {
	if failpoint.Enabled {
		t.Skip("failpoint build adds fault-injection lookups to the hot path")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := seqio.NewGenerator(611)
	// Uniform sequence lengths keep the stream's recycled transpose
	// buffer at a fixed capacity: variable-length databases legitimately
	// reallocate it as longer batches stream through, which would mask
	// the overhead this test is pinning.
	db := make([]seqio.Sequence, 0, 2048)
	for i := 0; i < 2048; i++ {
		db = append(db, g.Protein(fmt.Sprintf("s%d", i), 200))
	}
	query := g.Protein("q", 120).Encode(protAlpha)
	opt := Options{Gaps: aln.DefaultGaps(), Width: 256, Threads: 1}
	alpha := b62.Alphabet()
	ictx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &pipeline{
		stages: stages{
			ctx:    ictx,
			cancel: cancel,
			met:    &metrics.Counters{},
			db:     db,
			alpha:  alpha,
			mat:    b62,
			opt:    &opt,
		},
		queries: [][]uint8{query},
		tables:  submat.NewCodeTables(b62),
		res:     &MultiResult{Scores: [][]int32{make([]int32, len(db))}},
		rescued: [][]bool{make([]bool, len(db))},
		stream:  seqio.NewBatchStream(db, alpha, seqio.BatchOptions{Lanes: 32}),
	}
	scratch := core.NewScratch()
	// Two warm batches prime the stream's recycle pool and the scratch
	// arena so the measurement sees the steady state.
	for i := 0; i < 2; i++ {
		b := p.stream.Next()
		if b == nil {
			t.Fatal("stream exhausted during warm-up")
		}
		p.run8(vek.Bare, scratch, b, nil)
	}
	allocs := testing.AllocsPerRun(50, func() {
		b := p.stream.Next()
		if b == nil {
			t.Fatal("stream exhausted mid-measurement")
		}
		p.run8(vek.Bare, scratch, b, nil)
	})
	if allocs != 0 {
		t.Errorf("run8 allocates %.1f objects per batch on the healthy path", allocs)
	}
}

// TestMultiSearchReusesArenas pins what the scratch pool saves on the
// serve path: a warm MultiSearch of one ~100-aa query against a shard
// of 20 short proteins (50–400 aa, like a serving shard's slice) takes
// its worker arena from the pool instead of growing a fresh one. A
// fresh arena per call costs about 26 KiB here; a pooled one leaves
// about 19 KiB, mostly the batch transposition. The bound sits between
// the two, so a search that stops reusing pooled arenas fails it.
func TestMultiSearchReusesArenas(t *testing.T) {
	if failpoint.Enabled {
		t.Skip("failpoint build adds fault-injection lookups to the hot path")
	}
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := seqio.NewGenerator(612)
	db := make([]seqio.Sequence, 20)
	for i := range db {
		db[i] = g.Protein(fmt.Sprintf("s%d", i), 50+18*i)
	}
	queries := [][]uint8{g.Protein("q", 100).Encode(protAlpha)}
	opt := Options{Gaps: aln.DefaultGaps(), Threads: 2}
	search := func() {
		if _, err := MultiSearch(queries, db, b62, opt); err != nil {
			t.Fatal(err)
		}
	}
	search() // warm the pool
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		search()
	}
	runtime.ReadMemStats(&after)
	if kib := float64(after.TotalAlloc-before.TotalAlloc) / calls / 1024; kib > 22 {
		t.Errorf("MultiSearch allocates %.1f KiB per warm call, want at most 22", kib)
	}
}
