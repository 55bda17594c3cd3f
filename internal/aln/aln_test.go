package aln

import (
	"strings"
	"testing"
)

func TestGapsValidate(t *testing.T) {
	if err := DefaultGaps().Validate(); err != nil {
		t.Errorf("default gaps invalid: %v", err)
	}
	bad := []Gaps{
		{Open: 0, Extend: 1},
		{Open: 1, Extend: 0},
		{Open: -2, Extend: 1},
		{Open: 1, Extend: 2},
		{Open: maxGapPenalty + 1, Extend: 1},
		{Open: maxGapPenalty + 1, Extend: maxGapPenalty + 1},
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("gaps %+v accepted", g)
		}
	}
	for _, g := range []Gaps{{Open: maxGapPenalty, Extend: 1}, {Open: maxGapPenalty, Extend: maxGapPenalty}} {
		if err := g.Validate(); err != nil {
			t.Errorf("gaps %+v at the bound rejected: %v", g, err)
		}
	}
}

func TestLinearGaps(t *testing.T) {
	g := Linear(3)
	if !g.IsLinear() {
		t.Error("Linear() not linear")
	}
	if DefaultGaps().IsLinear() {
		t.Error("default affine gaps reported linear")
	}
}

func TestCigarString(t *testing.T) {
	a := &Alignment{}
	a.AppendOp(OpMatch, 12)
	a.AppendOp(OpDelete, 2)
	a.AppendOp(OpMatch, 7)
	if got := a.CigarString(); got != "12M2D7M" {
		t.Fatalf("cigar = %q", got)
	}
}

func TestAppendOpMerges(t *testing.T) {
	a := &Alignment{}
	a.AppendOp(OpMatch, 3)
	a.AppendOp(OpMatch, 4)
	if len(a.Cigar) != 1 || a.Cigar[0].Len != 7 {
		t.Fatalf("merge failed: %+v", a.Cigar)
	}
	a.AppendOp(OpInsert, 0) // no-op
	if len(a.Cigar) != 1 {
		t.Fatal("zero-length op appended")
	}
}

func TestSpans(t *testing.T) {
	a := &Alignment{}
	a.AppendOp(OpMatch, 10)
	a.AppendOp(OpInsert, 3)
	a.AppendOp(OpDelete, 2)
	if a.QuerySpan() != 13 {
		t.Errorf("query span = %d, want 13", a.QuerySpan())
	}
	if a.DatabaseSpan() != 12 {
		t.Errorf("database span = %d, want 12", a.DatabaseSpan())
	}
}

func TestReverse(t *testing.T) {
	a := &Alignment{}
	a.AppendOp(OpMatch, 1)
	a.AppendOp(OpDelete, 2)
	a.AppendOp(OpInsert, 3)
	a.Reverse()
	if a.Cigar[0].Kind != OpInsert || a.Cigar[2].Kind != OpMatch {
		t.Fatalf("reverse wrong: %s", a.CigarString())
	}
}

func score22(qc, dc uint8) int32 {
	if qc == dc {
		return 2
	}
	return -1
}

func TestRescoreSimple(t *testing.T) {
	q := []uint8{1, 2, 3, 4, 5}
	d := []uint8{1, 2, 9, 3, 4, 5}
	a := &Alignment{Score: 0, BegQ: 0, EndQ: 4, BegD: 0, EndD: 5}
	a.AppendOp(OpMatch, 2)
	a.AppendOp(OpDelete, 1)
	a.AppendOp(OpMatch, 3)
	got, err := Rescore(a, q, d, score22, Gaps{Open: 2, Extend: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*5-2 {
		t.Fatalf("rescore = %d, want 8", got)
	}
}

func TestRescoreAffineGapCost(t *testing.T) {
	q := []uint8{1, 2, 3, 4}
	d := []uint8{1, 4}
	a := &Alignment{BegQ: 0, EndQ: 3, BegD: 0, EndD: 1}
	a.AppendOp(OpMatch, 1)
	a.AppendOp(OpInsert, 2)
	a.AppendOp(OpMatch, 1)
	got, err := Rescore(a, q, d, score22, Gaps{Open: 3, Extend: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 matches (4) - (open 3 + extend 1) = 0.
	if got != 0 {
		t.Fatalf("rescore = %d, want 0", got)
	}
}

func TestRescoreDetectsInconsistentEnd(t *testing.T) {
	q := []uint8{1, 2}
	d := []uint8{1, 2}
	a := &Alignment{BegQ: 0, EndQ: 1, BegD: 0, EndD: 0} // end wrong
	a.AppendOp(OpMatch, 2)
	if _, err := Rescore(a, q, d, score22, DefaultGaps()); err == nil {
		t.Fatal("inconsistent end accepted")
	}
}

func TestRescoreDetectsOverrun(t *testing.T) {
	q := []uint8{1}
	d := []uint8{1}
	a := &Alignment{BegQ: 0, EndQ: 1, BegD: 0, EndD: 1}
	a.AppendOp(OpMatch, 2)
	if _, err := Rescore(a, q, d, score22, DefaultGaps()); err == nil {
		t.Fatal("overrun accepted")
	}
	if !strings.Contains(func() string {
		_, err := Rescore(a, q, d, score22, DefaultGaps())
		return err.Error()
	}(), "runs past") {
		t.Fatal("unexpected error text")
	}
}

func TestRescoreEmptyAlignment(t *testing.T) {
	a := &Alignment{BegQ: -1, EndQ: -1, BegD: -1, EndD: -1}
	got, err := Rescore(a, nil, nil, score22, DefaultGaps())
	if err != nil || got != 0 {
		t.Fatalf("empty alignment: %d, %v", got, err)
	}
	a.AppendOp(OpMatch, 1)
	if _, err := Rescore(a, nil, nil, score22, DefaultGaps()); err == nil {
		t.Fatal("empty alignment with ops accepted")
	}
}
