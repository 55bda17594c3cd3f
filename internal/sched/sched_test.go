package sched

import (
	"fmt"
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/metrics"
	"swvec/internal/seqio"
	"swvec/internal/submat"
)

var (
	b62       = submat.Blosum62()
	protAlpha = b62.Alphabet()
)

func TestSearchMatchesScalarScores(t *testing.T) {
	g := seqio.NewGenerator(101)
	db := g.Database(80)
	query := g.Protein("q", 150).Encode(protAlpha)
	res, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != len(db) {
		t.Fatalf("hits = %d, want %d", len(res.Hits), len(db))
	}
	for i, h := range res.Hits {
		if h.SeqIndex != i {
			t.Fatalf("hit %d has index %d", i, h.SeqIndex)
		}
		want := baselines.ScalarAffine(query, db[i].Encode(protAlpha), b62, aln.DefaultGaps()).Score
		if h.Score != want {
			t.Fatalf("seq %d: score %d, want %d (rescued=%v)", i, h.Score, want, h.Rescued)
		}
	}
	if res.Cells <= 0 || res.Elapsed <= 0 {
		t.Error("missing cells/elapsed accounting")
	}
}

// TestSearchRescuesSaturatedLanes runs on the modeled backend, the
// only one whose 8-bit stage saturates.
func TestSearchRescuesSaturatedLanes(t *testing.T) {
	g := seqio.NewGenerator(102)
	db := g.Database(40)
	query := g.Protein("q", 200)
	db = append(db, g.Related(query, "homolog", 0.03, 0.01))
	qEnc := query.Encode(protAlpha)
	res, err := Search(qEnc, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 2, Backend: core.BackendModeled})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rescued == 0 {
		t.Fatal("expected at least one 16-bit rescue")
	}
	want := baselines.ScalarAffine(qEnc, db[len(db)-1].Encode(protAlpha), b62, aln.DefaultGaps()).Score
	got := res.Hits[len(db)-1]
	if !got.Rescued || got.Score != want {
		t.Fatalf("homolog: score %d (rescued %v), want %d rescued", got.Score, got.Rescued, want)
	}
	top := res.TopHits(1)
	if top[0].SeqIndex != len(db)-1 {
		t.Errorf("top hit should be the homolog, got seq %d", top[0].SeqIndex)
	}
}

func TestSearchThreadCountInvariance(t *testing.T) {
	g := seqio.NewGenerator(103)
	db := g.Database(64)
	query := g.Protein("q", 100).Encode(protAlpha)
	ref, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4, 8} {
		res, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Hits {
			if res.Hits[i].Score != ref.Hits[i].Score {
				t.Fatalf("threads=%d: seq %d score %d != %d", threads, i, res.Hits[i].Score, ref.Hits[i].Score)
			}
		}
	}
}

func TestSearchSortByLengthInvariance(t *testing.T) {
	g := seqio.NewGenerator(104)
	db := g.Database(70)
	query := g.Protein("q", 90).Encode(protAlpha)
	a, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps(), SortByLength: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Hits {
		if a.Hits[i].Score != b.Hits[i].Score {
			t.Fatalf("seq %d: sorted batching changed score %d -> %d", i, a.Hits[i].Score, b.Hits[i].Score)
		}
	}
}

// TestSearchWidthInvariance is the width-parity acceptance check: the
// 512-bit pipeline (64-lane batches, wide rescue engines) must produce
// exactly the scores of the 256-bit pipeline, including on a workload
// that forces 16-bit rescues through the wide engines. It runs on the
// modeled backend, the only one with width-specific engines.
func TestSearchWidthInvariance(t *testing.T) {
	g := seqio.NewGenerator(113)
	db := g.Database(40)
	query := g.Protein("q", 250)
	db = append(db, g.Related(query, "homolog", 0.03, 0.01))
	qEnc := query.Encode(protAlpha)
	ref, err := Search(qEnc, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 3, Width: 256, Backend: core.BackendModeled})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Search(qEnc, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 3, Width: 512, Backend: core.BackendModeled})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rescued == 0 || wide.Rescued == 0 {
		t.Fatalf("expected rescues at both widths (256: %d, 512: %d)", ref.Rescued, wide.Rescued)
	}
	for i := range ref.Hits {
		if wide.Hits[i].Score != ref.Hits[i].Score {
			t.Fatalf("seq %d: width 512 score %d != width 256 score %d", i, wide.Hits[i].Score, ref.Hits[i].Score)
		}
	}
	if wide.Cells != ref.Cells {
		t.Errorf("real-cell accounting differs across widths: %d vs %d", wide.Cells, ref.Cells)
	}
	if _, err := Search(qEnc, db, b62, Options{Gaps: aln.DefaultGaps(), Width: 300}); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestSearchInstrumentation(t *testing.T) {
	g := seqio.NewGenerator(105)
	db := g.Database(32)
	query := g.Protein("q", 60).Encode(protAlpha)
	res, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps(), Threads: 3, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally == nil || res.Tally.Total() == 0 {
		t.Fatal("instrumented search returned no tally")
	}
	plain, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Tally != nil {
		t.Error("uninstrumented search should not carry a tally")
	}
}

func TestSearchErrors(t *testing.T) {
	g := seqio.NewGenerator(106)
	db := g.Database(4)
	if _, err := Search(nil, db, b62, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("empty query accepted")
	}
	q := g.Protein("q", 10).Encode(protAlpha)
	if _, err := Search(q, nil, b62, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := Search(q, db, b62, Options{Gaps: aln.Gaps{}}); err == nil {
		t.Error("invalid gaps accepted")
	}
}

// TestMultiSearchMatchesSingleSearches checks that both scenarios give
// every (query, sequence) pair the scalar reference's score. Rows with
// sameStats also run Search(q) and MultiSearch([q]) on one worker at
// both vector widths: one dataflow must report the same Stats counters
// for both, every field but the wall-clock timings. Rows that need
// rescues run on the modeled backend, the only one that saturates.
func TestMultiSearchMatchesSingleSearches(t *testing.T) {
	g := seqio.NewGenerator(107)
	escDB, escQuery := escalationDB(t, 402)
	// 257 sequences make at least five batches at either width, so a
	// one-worker queue fills to its capacity of 2 in both scenarios; the
	// homolog saturates 8 bits and is rescued at 16.
	og := seqio.NewGenerator(114)
	oneQuery := og.Protein("q", 200)
	var oneDB []seqio.Sequence
	for i := 0; i < 256; i++ {
		oneDB = append(oneDB, og.Protein(fmt.Sprintf("s%d", i), 40))
	}
	oneDB = append(oneDB, og.Related(oneQuery, "homolog", 0.03, 0.01))
	cases := []struct {
		name      string
		db        []seqio.Sequence
		queries   [][]uint8
		mat       *submat.Matrix
		backend   core.Backend
		sameStats bool
	}{
		{"blosum62", g.Database(48), [][]uint8{
			g.Protein("q0", 50).Encode(protAlpha),
			g.Protein("q1", 120).Encode(protAlpha),
			g.Protein("q2", 33).Encode(protAlpha),
		}, b62, core.BackendAuto, false},
		// The self-hit scores 120*400 = 48000, past int16: the rescue
		// must climb to the 32-bit tier in both scenarios.
		{"escalation", escDB, [][]uint8{escQuery}, escalationMat, core.BackendModeled, false},
		{"one-query", oneDB, [][]uint8{oneQuery.Encode(protAlpha)}, b62, core.BackendModeled, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			multi, err := MultiSearch(c.queries, c.db, c.mat, Options{Gaps: aln.DefaultGaps(), Threads: 4, Backend: c.backend})
			if err != nil {
				t.Fatal(err)
			}
			if len(multi.Scores) != len(c.queries) {
				t.Fatalf("scores rows = %d", len(multi.Scores))
			}
			for qi, q := range c.queries {
				single, err := Search(q, c.db, c.mat, Options{Gaps: aln.DefaultGaps(), Backend: c.backend})
				if err != nil {
					t.Fatal(err)
				}
				for si := range c.db {
					want := baselines.ScalarAffine(q, c.db[si].Encode(protAlpha), c.mat, aln.DefaultGaps()).Score
					if got := multi.Scores[qi][si]; got != single.Hits[si].Score || got != want {
						t.Fatalf("q%d seq%d: multi %d, single %d, scalar %d", qi, si, got, single.Hits[si].Score, want)
					}
				}
			}
			if multi.Cells <= 0 {
				t.Error("cells not counted")
			}
			if !c.sameStats {
				return
			}
			for _, width := range []int{256, 512} {
				opt := Options{Gaps: aln.DefaultGaps(), Threads: 1, Width: width, Backend: c.backend}
				single, err := Search(c.queries[0], c.db, c.mat, opt)
				if err != nil {
					t.Fatal(err)
				}
				multi, err := MultiSearch(c.queries, c.db, c.mat, opt)
				if err != nil {
					t.Fatal(err)
				}
				if single.Rescued == 0 {
					t.Fatalf("width %d: setup failure: no rescue", width)
				}
				for si, h := range single.Hits {
					if got := multi.Scores[0][si]; got != h.Score {
						t.Fatalf("width %d seq %d: multi %d, single %d", width, si, got, h.Score)
					}
				}
				if got, want := untimed(multi.Stats), untimed(single.Stats); got != want {
					t.Errorf("width %d: stats differ\nmulti  %+v\nsingle %+v", width, got, want)
				}
			}
		})
	}
}

// untimed is s without its wall-clock stage timings.
func untimed(s metrics.Snapshot) metrics.Snapshot {
	s.ProduceNanos, s.Stage8Nanos, s.Stage16Nanos, s.Stage32Nanos = 0, 0, 0, 0
	return s
}

func TestSubroutineScoresAndTraceback(t *testing.T) {
	g := seqio.NewGenerator(108)
	db := g.Database(6)
	queries := [][]uint8{
		g.Protein("q0", 40).Encode(protAlpha),
		g.Protein("q1", 70).Encode(protAlpha),
	}
	res, err := Subroutine(queries, db, b62, true, Options{Gaps: aln.DefaultGaps(), Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != len(queries)*len(db) {
		t.Fatalf("hits = %d", len(res.Hits))
	}
	for _, h := range res.Hits {
		want := baselines.ScalarAffine(queries[h.Query], db[h.Seq].Encode(protAlpha), b62, aln.DefaultGaps()).Score
		if h.Score != want {
			t.Fatalf("pair (%d,%d): score %d, want %d", h.Query, h.Seq, h.Score, want)
		}
		if h.Alignment == nil {
			t.Fatalf("pair (%d,%d): missing alignment", h.Query, h.Seq)
		}
		if h.Score > 0 {
			got, err := aln.Rescore(h.Alignment, queries[h.Query], db[h.Seq].Encode(protAlpha),
				func(qc, dc uint8) int32 { return int32(b62.Score(qc, dc)) }, aln.DefaultGaps())
			if err != nil {
				t.Fatalf("pair (%d,%d): %v", h.Query, h.Seq, err)
			}
			if got != h.Score {
				t.Fatalf("pair (%d,%d): rescore %d != %d", h.Query, h.Seq, got, h.Score)
			}
		}
	}
}

func TestSubroutineScoreOnly(t *testing.T) {
	g := seqio.NewGenerator(109)
	db := g.Database(4)
	queries := [][]uint8{g.Protein("q", 30).Encode(protAlpha)}
	res, err := Subroutine(queries, db, b62, false, Options{Gaps: aln.DefaultGaps()})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.Alignment != nil {
			t.Error("score-only subroutine returned alignments")
		}
	}
}

func TestGCUPSAccessors(t *testing.T) {
	r := &Result{Cells: 2e9}
	if r.GCUPS() != 0 {
		t.Error("zero elapsed should give 0 GCUPS")
	}
}

func TestMultiAndSubroutineGCUPSAccessors(t *testing.T) {
	g := seqio.NewGenerator(110)
	db := g.Database(8)
	queries := [][]uint8{g.Protein("q", 30).Encode(protAlpha)}
	multi, err := MultiSearch(queries, db, b62, Options{Gaps: aln.DefaultGaps()})
	if err != nil {
		t.Fatal(err)
	}
	if multi.GCUPS() <= 0 {
		t.Error("multi GCUPS should be positive")
	}
	sub, err := Subroutine(queries, db, b62, false, Options{Gaps: aln.DefaultGaps()})
	if err != nil {
		t.Fatal(err)
	}
	if sub.GCUPS() <= 0 {
		t.Error("subroutine GCUPS should be positive")
	}
	if (&MultiResult{Cells: 5}).GCUPS() != 0 {
		t.Error("zero elapsed multi GCUPS should be 0")
	}
	if (&SubroutineResult{Cells: 5}).GCUPS() != 0 {
		t.Error("zero elapsed subroutine GCUPS should be 0")
	}
}

func TestSubroutineErrors(t *testing.T) {
	g := seqio.NewGenerator(111)
	db := g.Database(2)
	if _, err := Subroutine(nil, db, b62, false, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("no queries accepted")
	}
	q := [][]uint8{g.Protein("q", 10).Encode(protAlpha)}
	if _, err := Subroutine(q, nil, b62, false, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("empty db accepted")
	}
	if _, err := Subroutine(q, db, b62, false, Options{Gaps: aln.Gaps{}}); err == nil {
		t.Error("invalid gaps accepted")
	}
	bad := []seqio.Sequence{{ID: "empty"}}
	if _, err := Subroutine(q, bad, b62, false, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("empty db sequence accepted")
	}
}

func TestMultiSearchErrors(t *testing.T) {
	g := seqio.NewGenerator(112)
	db := g.Database(2)
	if _, err := MultiSearch(nil, db, b62, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("no queries accepted")
	}
	if _, err := MultiSearch([][]uint8{nil}, db, b62, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("empty query accepted")
	}
	q := [][]uint8{g.Protein("q", 10).Encode(protAlpha)}
	if _, err := MultiSearch(q, nil, b62, Options{Gaps: aln.DefaultGaps()}); err == nil {
		t.Error("empty db accepted")
	}
	if _, err := MultiSearch(q, db, b62, Options{Gaps: aln.Gaps{}}); err == nil {
		t.Error("invalid gaps accepted")
	}
}
