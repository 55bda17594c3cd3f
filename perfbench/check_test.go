package main

import (
	"testing"

	"swvec"
	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/cluster"
	"swvec/internal/seqio"
)

func TestScanCheckRejectsCorruptedAnswers(t *testing.T) {
	g := seqio.NewGenerator(3)
	db := g.Database(40)
	q := g.Protein("Q", 150)
	db = append(db, g.Related(q, "H0", scanSubRate, 0), g.Related(q, "H1", scanSubRate, 0))
	qs := []swvec.Sequence{q}
	planted := map[string][2]string{"Q": {"H0", "H1"}}
	al, err := swvec.New(swvec.WithLengthSortedBatches())
	if err != nil {
		t.Fatal(err)
	}
	res, err := al.Search(q.Residues, db)
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopHits(2)
	good := scanOp{res: res, top: [2]int{top[0].SeqIndex, top[1].SeqIndex},
		sample: []int{0, 5, 40}, scores: []int32{res.Hits[0].Score, res.Hits[5].Score, res.Hits[40].Score}}
	mat := swvec.Blosum62()
	alpha := mat.Alphabet()
	want := func(_, d int) int32 {
		return baselines.ScalarAffine(alpha.Encode(q.Residues), alpha.Encode(db[d].Residues), mat, swvec.DefaultGaps()).Score
	}
	if err := checkScanOp(good, planted, db, qs, want); err != nil {
		t.Fatalf("correct search rejected: %v", err)
	}

	wrongTop := good
	wrongTop.top = [2]int{top[0].SeqIndex, 7}
	wrongScore := good
	wrongScore.scores = []int32{good.scores[0], good.scores[1] + 1, good.scores[2]}
	quarantined := good
	qres := *res
	qres.Quarantined = []swvec.Quarantine{{SeqIndex: 3, ID: db[3].ID, Stage: "align8", Cause: "injected"}}
	quarantined.res = &qres
	for name, op := range map[string]scanOp{"planted homolog displaced": wrongTop, "score off by one": wrongScore, "quarantine": quarantined} {
		if checkScanOp(op, planted, db, qs, want) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestServeCheckRejectsCorruptedAnswers(t *testing.T) {
	want := []cluster.Hit{{SeqID: "A", Score: 50}, {SeqID: "B", Score: 40}, {SeqID: "C", Score: 40}}
	ok := wireResponse{Response: cluster.Response{ID: "op1", Hits: append([]cluster.Hit(nil), want...)},
		Shards: &cluster.ShardReport{Total: 2, OK: []int{0, 1}}}
	if err := checkServeResponse(ok, want); err != nil {
		t.Fatalf("correct reply rejected: %v", err)
	}
	corrupt := map[string]func(*wireResponse){
		"partial": func(r *wireResponse) {
			r.Partial = true
			r.Shards = &cluster.ShardReport{Total: 2, OK: []int{0}, Skipped: []int{1}}
		},
		"score changed":    func(r *wireResponse) { r.Hits[1].Score++ },
		"tie order broken": func(r *wireResponse) { r.Hits[1], r.Hits[2] = r.Hits[2], r.Hits[1] },
		"hit missing":      func(r *wireResponse) { r.Hits = r.Hits[:2] },
		"error":            func(r *wireResponse) { r.Hits, r.Error, r.Code = nil, "boom", cluster.CodeInternal },
	}
	for name, f := range corrupt {
		r := ok
		r.Hits = append([]cluster.Hit(nil), ok.Hits...)
		f(&r)
		if checkServeResponse(r, want) == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestAlignCheckRejectsCorruptedAnswers(t *testing.T) {
	g := seqio.NewGenerator(5)
	q := g.Protein("Q", 200)
	d := g.Related(q, "D", alignSubRate, alignIndel)
	al, err := swvec.New()
	if err != nil {
		t.Fatal(err)
	}
	a, err := al.Align(q.Residues, d.Residues)
	if err != nil {
		t.Fatal(err)
	}
	score, err := al.Score(q.Residues, d.Residues)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAlignment(a, q.Residues, d.Residues, score); err != nil {
		t.Fatalf("correct alignment rejected: %v", err)
	}
	if checkAlignment(a, q.Residues, d.Residues, score+1) == nil {
		t.Error("score disagreeing with Score passed")
	}
	bent := *a
	bent.Cigar = append([]aln.CigarOp(nil), a.Cigar...)
	bent.Cigar[0].Len--
	bent.Cigar = append(bent.Cigar, aln.CigarOp{Kind: aln.OpMatch, Len: 1})
	if checkAlignment(&bent, q.Residues, d.Residues, score) == nil {
		t.Errorf("CIGAR %s that does not rescore passed", bent.CigarString())
	}
	if checkAlignment(nil, q.Residues, d.Residues, score) == nil {
		t.Error("missing alignment passed")
	}
}
