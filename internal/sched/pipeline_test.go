package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/seqio"
)

// rescueDB returns a database plus query where at least one sequence
// saturates the 8-bit stage but nothing escalates past 16 bits.
func rescueDB(seed int64) ([]seqio.Sequence, []uint8) {
	g := seqio.NewGenerator(seed)
	db := g.Database(60)
	query := g.Protein("q", 200)
	db = append(db, g.Related(query, "homolog", 0.03, 0.01))
	return db, query.Encode(protAlpha)
}

// expectedCells computes the stage-aware cell count from the hit
// flags: every sequence is processed once at 8 bits, rescued sequences
// again at 16 bits, and scores past int16 range once more at 32 bits.
func expectedCells(db []seqio.Sequence, qlen int, hits []Hit, sorted bool) int64 {
	batches := seqio.BuildBatches(db, protAlpha, seqio.BatchOptions{SortByLength: sorted})
	want := seqio.BatchedCells(batches, qlen)
	for _, h := range hits {
		if h.Rescued {
			want += int64(qlen) * int64(db[h.SeqIndex].Len())
		}
		if h.Score > 32767 {
			want += int64(qlen) * int64(db[h.SeqIndex].Len())
		}
	}
	return want
}

// TestSearchCellsCountAllStages is the regression test for the cell
// accounting fix: Cells must include the 16-bit rescue (and 32-bit
// escalation) work, not just the 8-bit sweep, and must be deterministic
// across thread counts and batch orderings. It runs on the modeled
// backend, the only one that rescues.
func TestSearchCellsCountAllStages(t *testing.T) {
	db, query := rescueDB(201)
	var first int64
	for _, cfg := range []Options{
		{Gaps: aln.DefaultGaps(), Threads: 1, Backend: core.BackendModeled},
		{Gaps: aln.DefaultGaps(), Threads: 4, Backend: core.BackendModeled},
		{Gaps: aln.DefaultGaps(), Threads: 3, SortByLength: true, Backend: core.BackendModeled},
	} {
		res, err := Search(query, db, b62, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rescued == 0 {
			t.Fatal("setup failure: no rescue triggered")
		}
		for _, h := range res.Hits {
			if h.Score > 32767 {
				t.Fatalf("setup failure: seq %d escalated to 32 bits", h.SeqIndex)
			}
		}
		want := expectedCells(db, len(query), res.Hits, cfg.SortByLength)
		if res.Cells != want {
			t.Fatalf("threads=%d sorted=%v: Cells = %d, want %d (8-bit sweep plus %d rescues)",
				cfg.Threads, cfg.SortByLength, res.Cells, want, res.Rescued)
		}
		if first == 0 {
			first = res.Cells
		} else if res.Cells != first {
			t.Fatalf("Cells not deterministic: %d vs %d", res.Cells, first)
		}
	}
}

// TestSearchEscalatesTo32Bits drives a self-alignment whose score
// overflows int16 (120*400 = 48000 under escalationMat), forcing the
// full 8 -> 16 -> 32 bit escalation chain through the streaming
// pipeline of the modeled backend.
func TestSearchEscalatesTo32Bits(t *testing.T) {
	if testing.Short() {
		t.Skip("long self-alignment")
	}
	g := seqio.NewGenerator(202)
	db := g.Database(40)
	big := g.Protein("big", 400)
	db = append(db, big)
	query := big.Encode(protAlpha)
	res, err := Search(query, db, escalationMat, Options{Gaps: aln.DefaultGaps(), Threads: 4, Backend: core.BackendModeled})
	if err != nil {
		t.Fatal(err)
	}
	hit := res.Hits[len(db)-1]
	if hit.Score <= 32767 {
		t.Fatalf("setup failure: self-alignment score %d fits in int16", hit.Score)
	}
	if !hit.Rescued {
		t.Fatal("escalated hit not marked Rescued")
	}
	want := baselines.ScalarAffine(query, big.Encode(protAlpha), escalationMat, aln.DefaultGaps()).Score
	if hit.Score != want {
		t.Fatalf("32-bit score %d, want scalar %d", hit.Score, want)
	}
	if got := expectedCells(db, len(query), res.Hits, false); res.Cells != got {
		t.Fatalf("Cells = %d, want %d including the 32-bit pass", res.Cells, got)
	}
	if res.TopHits(1)[0].SeqIndex != len(db)-1 {
		t.Error("self-hit should rank first")
	}
}

// referenceTopHits is the semantics TopHits must preserve: a stable
// score-descending sort of the full hit list, truncated to n.
func referenceTopHits(hits []Hit, n int) []Hit {
	all := make([]Hit, len(hits))
	copy(all, hits)
	sort.SliceStable(all, func(a, b int) bool { return all[a].Score > all[b].Score })
	if n < 0 {
		n = 0
	}
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

func TestTopHitsMatchesStableSort(t *testing.T) {
	// Scores with heavy ties so the database-order tie-break is
	// actually exercised.
	scores := []int32{40, 17, 93, 40, 40, 5, 93, 17, 62, 40, 5, 93, 0, 62, 40}
	res := &Result{Hits: make([]Hit, len(scores))}
	for i, s := range scores {
		res.Hits[i] = Hit{SeqIndex: i, Score: s, Rescued: i%3 == 0}
	}
	for _, n := range []int{-3, 0, 1, 3, 7, len(scores), len(scores) + 5} {
		got := res.TopHits(n)
		want := referenceTopHits(res.Hits, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d:\n got %v\nwant %v", n, got, want)
		}
	}
	// TopHits must not disturb the result's own hit order.
	for i, h := range res.Hits {
		if h.SeqIndex != i {
			t.Fatal("TopHits mutated Result.Hits")
		}
	}
}

// TestMultiTopHitsMatchesStableSort checks MultiResult.TopHits, which
// ranks a score row without building a hit per sequence, against the
// stable sort on tie-heavy random rows, including n past the row
// length and n <= 0.
func TestMultiTopHitsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		res := &MultiResult{Scores: make([][]int32, 3)}
		for q := range res.Scores {
			row := make([]int32, rng.Intn(40))
			for i := range row {
				row[i] = int32(rng.Intn(6)) // few values: many ties
			}
			res.Scores[q] = row
		}
		for q, row := range res.Scores {
			hits := make([]Hit, len(row))
			for i, s := range row {
				hits[i] = Hit{SeqIndex: i, Score: s}
			}
			for _, n := range []int{-1, 0, 1, 5, len(row), len(row) + 3} {
				if got, want := res.TopHits(q, n), referenceTopHits(hits, n); !reflect.DeepEqual(got, want) {
					t.Fatalf("row %v, n=%d:\n got %v\nwant %v", row, n, got, want)
				}
			}
		}
	}
}

func TestTopHitsOnSearchResult(t *testing.T) {
	db, query := rescueDB(204)
	res, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, len(db)} {
		if got, want := res.TopHits(n), referenceTopHits(res.Hits, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: heap selection disagrees with stable sort", n)
		}
	}
}

// TestConcurrentSearches runs Search and MultiSearch from many
// goroutines over shared inputs; under -race this certifies the
// lock-free hit writes and scratch arenas are properly confined.
func TestConcurrentSearches(t *testing.T) {
	g := seqio.NewGenerator(205)
	db := g.Database(70)
	q1 := g.Protein("q1", 150).Encode(protAlpha)
	q2 := g.Protein("q2", 90).Encode(protAlpha)
	opt := Options{Gaps: aln.DefaultGaps(), Threads: 3}

	ref, err := Search(q1, db, b62, opt)
	if err != nil {
		t.Fatal(err)
	}
	refMulti, err := MultiSearch([][]uint8{q1, q2}, db, b62, opt)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Search(q1, db, b62, opt)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Hits, ref.Hits) {
				t.Error("concurrent Search diverged")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := MultiSearch([][]uint8{q1, q2}, db, b62, opt)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(res.Scores, refMulti.Scores) {
				t.Error("concurrent MultiSearch diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
