package swvec

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"swvec/internal/sched"
)

func TestQuickstartFlow(t *testing.T) {
	al, err := New()
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align([]byte("MKVLAWGQHE"), []byte("MKVLAWGQHE"))
	if err != nil {
		t.Fatal(err)
	}
	if a.CigarString() != "10M" {
		t.Errorf("cigar = %q", a.CigarString())
	}
	if a.Score <= 0 {
		t.Errorf("score = %d", a.Score)
	}
	sc, err := al.Score([]byte("MKVLAWGQHE"), []byte("MKVLAWGQHE"))
	if err != nil {
		t.Fatal(err)
	}
	if sc != a.Score {
		t.Errorf("Score %d != Align score %d", sc, a.Score)
	}
}

func TestOptionValidation(t *testing.T) {
	if _, err := New(WithGaps(0, 0)); err == nil {
		t.Error("zero gaps accepted")
	}
	if _, err := New(WithMatrix(nil)); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := New(WithThreads(-1)); err == nil {
		t.Error("negative threads accepted")
	}
}

func TestScoreRejectsInvalidResidues(t *testing.T) {
	al, _ := New()
	if _, err := al.Score([]byte("MK1LAW"), []byte("MKVLAW")); err == nil {
		t.Error("digit residue accepted")
	}
	if _, err := al.Score(nil, []byte("MKVLAW")); err == nil {
		t.Error("empty query accepted")
	}
}

func TestSearchEndToEnd(t *testing.T) {
	al, err := New(WithThreads(4), WithLengthSortedBatches())
	if err != nil {
		t.Fatal(err)
	}
	db := GenerateDatabase(7, 50)
	res, err := al.Search([]byte(string(db[17].Residues)), db)
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopHits(1)
	if top[0].SeqIndex != 17 {
		t.Errorf("self-search should rank sequence 17 first, got %d", top[0].SeqIndex)
	}
	if res.GCUPS() <= 0 {
		t.Error("no throughput recorded")
	}
}

func TestSearchAllEndToEnd(t *testing.T) {
	al, err := New(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	db := GenerateDatabase(8, 40)
	queries := [][]byte{db[3].Residues, db[30].Residues}
	res, err := al.SearchAll(queries, db)
	if err != nil {
		t.Fatal(err)
	}
	// Each query's best hit must be itself.
	for qi := range queries {
		self := []int{3, 30}[qi]
		best, bestIdx := int32(-1), -1
		for si, sc := range res.Scores[qi] {
			if sc > best {
				best, bestIdx = sc, si
			}
		}
		if bestIdx != self {
			t.Errorf("query %d: best hit %d, want %d", qi, bestIdx, self)
		}
	}
}

// TestAlignerConcurrentScenarios shares one Aligner between goroutines
// running Search and SearchAll while sched.Subroutine runs beside them,
// so worker arenas pass between the three scenarios and between query
// lengths through the shared scratch pool. Self-hits saturate the
// 8-bit stage, so the rescue path reuses arenas too. Every result must
// equal its sequential run; run it under -race.
func TestAlignerConcurrentScenarios(t *testing.T) {
	al, err := New(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	var db []Sequence
	for _, s := range GenerateDatabase(9, 40) {
		if len(s.Residues) <= 250 { // short proteins keep -race runs quick
			db = append(db, s)
		}
	}
	queries := [][]byte{db[4].Residues, db[0].Residues, db[7].Residues}
	encoded := make([][]uint8, len(queries))
	for i, q := range queries {
		if encoded[i], err = al.encode(q); err != nil {
			t.Fatal(err)
		}
	}
	search := func(q []byte) ([]Hit, error) {
		res, err := al.Search(q, db)
		if err != nil {
			return nil, err
		}
		return res.Hits, nil
	}
	searchAll := func() ([][]int32, error) {
		res, err := al.SearchAll(queries, db)
		if err != nil {
			return nil, err
		}
		return res.Scores, nil
	}
	subroutine := func() ([]sched.PairHit, error) {
		res, err := sched.Subroutine(encoded, db[:6], al.mat, true, al.schedOptions())
		if err != nil {
			return nil, err
		}
		return res.Hits, nil
	}

	wantHits := make([][]Hit, len(queries))
	for i, q := range queries {
		if wantHits[i], err = search(q); err != nil {
			t.Fatal(err)
		}
	}
	wantScores, err := searchAll()
	if err != nil {
		t.Fatal(err)
	}
	wantPairs, err := subroutine()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				got, err := search(q)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, wantHits[i]) {
					t.Errorf("concurrent Search of query %d diverged", i)
				}
			}
		}()
		go func() {
			defer wg.Done()
			got, err := searchAll()
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, wantScores) {
				t.Error("concurrent SearchAll diverged")
			}
		}()
		go func() {
			defer wg.Done()
			got, err := subroutine()
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, wantPairs) {
				t.Error("concurrent Subroutine diverged")
			}
		}()
	}
	wg.Wait()
}

func TestLinearGapOption(t *testing.T) {
	al, err := New(WithLinearGap(2))
	if err != nil {
		t.Fatal(err)
	}
	if !al.Gaps().IsLinear() {
		t.Error("linear gap option did not apply")
	}
	if _, err := al.Score([]byte("ACDEFG"), []byte("ACDEFG")); err != nil {
		t.Fatal(err)
	}
}

func TestMatchMismatchMatrixOption(t *testing.T) {
	al, err := New(WithMatrix(MatchMismatch(2, -1)), WithGaps(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := al.Score([]byte("ACDEF"), []byte("ACDEF"))
	if err != nil {
		t.Fatal(err)
	}
	if sc != 10 {
		t.Errorf("score = %d, want 10", sc)
	}
}

func TestDNAAlignment(t *testing.T) {
	al, err := New(WithMatrix(DNAMatrix()), WithGaps(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := al.Score([]byte("ACGTACGT"), []byte("ACGTACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if sc != 16 {
		t.Errorf("DNA self-score = %d, want 16", sc)
	}
}

func TestParseMatrixRoundTrip(t *testing.T) {
	src := "   A  C\nA  5 -4\nC -4  5\n"
	m, err := ParseMatrix(strings.NewReader(src), "custom")
	if err != nil {
		t.Fatal(err)
	}
	al, err := New(WithMatrix(m), WithGaps(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := al.Score([]byte("ACAC"), []byte("ACAC"))
	if err != nil {
		t.Fatal(err)
	}
	if sc != 20 {
		t.Errorf("score = %d, want 20", sc)
	}
}

func TestFastaHelpers(t *testing.T) {
	db := GenerateDatabase(9, 5)
	var buf bytes.Buffer
	if err := WriteFasta(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 {
		t.Fatalf("round trip lost records: %d", len(back))
	}
}

func TestGenerateQueries(t *testing.T) {
	qs := GenerateQueries(1)
	if len(qs) != 10 {
		t.Fatalf("queries = %d, want 10", len(qs))
	}
}

func TestAlignRescoresViaSpans(t *testing.T) {
	al, _ := New()
	db := GenerateDatabase(10, 2)
	a, err := al.Align(db[0].Residues[:80], db[0].Residues)
	if err != nil {
		t.Fatal(err)
	}
	if a.QuerySpan() != a.EndQ-a.BegQ+1 {
		t.Errorf("query span %d inconsistent with [%d,%d]", a.QuerySpan(), a.BegQ, a.EndQ)
	}
	if a.DatabaseSpan() != a.EndD-a.BegD+1 {
		t.Errorf("database span %d inconsistent with [%d,%d]", a.DatabaseSpan(), a.BegD, a.EndD)
	}
}

func TestScoreRescues16BitSaturation(t *testing.T) {
	// Two identical 3000-residue tryptophan runs score 33000, beyond
	// int16: Score must fall back to the exact scalar kernel.
	al, _ := New()
	w := make([]byte, 3000)
	for i := range w {
		w[i] = 'W'
	}
	sc, err := al.Score(w, w)
	if err != nil {
		t.Fatal(err)
	}
	if sc != 33000 {
		t.Fatalf("score = %d, want 33000", sc)
	}
}

// TestAlignPast16Bits: Align's traceback runs at 16 bits, where the
// 3000-residue tryptophan pair (exact score 33000) clamps. Align must
// refuse it with an error naming the exact score and the limit, not
// return a clamped alignment; a pair just under the limit still aligns.
func TestAlignPast16Bits(t *testing.T) {
	al, _ := New()
	w := bytes.Repeat([]byte("W"), 3000)
	a, err := al.Align(w, w)
	if err == nil {
		t.Fatalf("Align returned score %d and no error", a.Score)
	}
	for _, want := range []string{"33000", "32767"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
	a, err = al.Align(w[:2978], w[:2978])
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != 32758 || a.BegQ != 0 || a.EndQ != 2977 {
		t.Fatalf("alignment under the limit = score %d over [%d,%d], want 32758 over [0,2977]", a.Score, a.BegQ, a.EndQ)
	}
}

func TestAlignerAccessors(t *testing.T) {
	al, _ := New()
	if al.Matrix() != Blosum62() {
		t.Error("default matrix should be BLOSUM62")
	}
	if al.Gaps() != DefaultGaps() {
		t.Error("default gaps mismatch")
	}
}

func TestSearchContextPublicAPI(t *testing.T) {
	al, err := New(WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	db := GenerateDatabase(7, 40)
	query := db[3].Residues[:80]

	// Uncanceled context: identical to Search, with a populated Stats
	// snapshot on the result.
	res, err := al.SearchContext(context.Background(), query, db)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cells() != res.Cells || res.Cells == 0 {
		t.Fatalf("Stats cells %d vs result cells %d", res.Stats.Cells(), res.Cells)
	}
	if res.Stats.BatchesProduced == 0 || res.Stats.Batches8 == 0 {
		t.Fatalf("missing batch counters: %+v", res.Stats)
	}

	// Pre-canceled context: partial result plus the ctx error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = al.SearchContext(ctx, query, db)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Hits) != len(db) {
		t.Fatal("canceled search must return the partial result")
	}

	// SearchAllContext honors deadlines the same way.
	mres, err := al.SearchAllContext(ctx, [][]byte{query}, db)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchAllContext err = %v, want context.Canceled", err)
	}
	if mres == nil || len(mres.Scores) != 1 {
		t.Fatal("canceled multi-search must return the partial result")
	}
}

func TestGlobalStatsAccumulate(t *testing.T) {
	al, err := New()
	if err != nil {
		t.Fatal(err)
	}
	db := GenerateDatabase(8, 16)
	before := GlobalStats()
	if _, err := al.Search(db[0].Residues[:60], db); err != nil {
		t.Fatal(err)
	}
	after := GlobalStats()
	if after.Searches <= before.Searches || after.Cells() <= before.Cells() {
		t.Fatalf("global counters did not advance: before %+v after %+v", before, after)
	}
	PublishMetrics()
	PublishMetrics() // idempotent
}
