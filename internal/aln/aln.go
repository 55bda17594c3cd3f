// Package aln holds the alignment-domain types shared by the paper's
// kernel (internal/core), the comparison kernels (internal/baselines),
// and the public API: gap models, score results, and traceback
// alignments with CIGAR rendering.
package aln

import (
	"fmt"
	"strings"
)

// Gaps holds affine gap penalties as positive costs: a gap of length k
// costs Open + (k-1)*Extend. The linear gap model is the special case
// Open == Extend. Validate bounds both penalties at 2^29.
type Gaps struct {
	Open   int32
	Extend int32
}

// DefaultGaps returns the protein defaults used throughout the
// evaluation (BLOSUM62 with gap open 11, extend 1, in the
// first-residue-costs-Open convention).
func DefaultGaps() Gaps { return Gaps{Open: 11, Extend: 1} }

// Linear returns the linear-gap model with per-residue cost ext.
func Linear(ext int32) Gaps { return Gaps{Open: ext, Extend: ext} }

// IsLinear reports whether the gap model is effectively linear.
func (g Gaps) IsLinear() bool { return g.Open == g.Extend }

// maxGapPenalty bounds both gap penalties so that no int32 recurrence
// can wrap. E and F start at -2^29 in the int32 kernels (native.Pair32
// and the modeled 32-bit engine) and at -2^30 in the scalar reference
// (internal/baselines), and every later E or F is at least -Open. One
// more subtraction of a penalty of at most 2^29 therefore stays at or
// above -2^30 - 2^29, clear of the int32 floor of -2^31. The 8- and
// 16-bit kernels clamp penalties to their element range first.
const maxGapPenalty = 1 << 29

// Validate rejects non-positive or inconsistent penalties, and
// penalties above 2^29 (536870912), past which the int32 recurrences
// could wrap.
func (g Gaps) Validate() error {
	if g.Open <= 0 || g.Extend <= 0 {
		return fmt.Errorf("aln: gap penalties must be positive, got open=%d extend=%d", g.Open, g.Extend)
	}
	if g.Extend > g.Open {
		return fmt.Errorf("aln: gap extend %d exceeds open %d", g.Extend, g.Open)
	}
	if g.Open > maxGapPenalty {
		return fmt.Errorf("aln: gap open %d exceeds the bound %d", g.Open, maxGapPenalty)
	}
	return nil
}

// ScoreResult is the outcome of a score-only local alignment.
type ScoreResult struct {
	// Score is the optimal local alignment score (>= 0).
	Score int32
	// EndQ and EndD are 0-based inclusive end coordinates of the
	// optimal cell (first such cell in row-major order), or -1 when
	// Score == 0.
	EndQ, EndD int
	// Saturated reports that an 8- or 16-bit kernel hit its ceiling and
	// the score is a lower bound; callers rerun at a wider width.
	Saturated bool
}

// OpKind is one traceback operation.
type OpKind byte

const (
	// OpMatch aligns a query residue to a database residue (match or
	// mismatch).
	OpMatch OpKind = 'M'
	// OpInsert consumes a query residue against a gap (vertical move).
	OpInsert OpKind = 'I'
	// OpDelete consumes a database residue against a gap (horizontal
	// move).
	OpDelete OpKind = 'D'
)

// CigarOp is a run-length encoded traceback operation.
type CigarOp struct {
	Kind OpKind
	Len  int
}

// Alignment is a local alignment with full traceback.
type Alignment struct {
	Score int32
	// BegQ/EndQ and BegD/EndD delimit the aligned regions, 0-based
	// inclusive.
	BegQ, EndQ int
	BegD, EndD int
	// Cigar is the operation sequence from (BegQ, BegD) to (EndQ, EndD).
	Cigar []CigarOp
}

// CigarString renders the CIGAR in the usual compact form, e.g.
// "12M2D7M".
func (a *Alignment) CigarString() string {
	var b strings.Builder
	for _, op := range a.Cigar {
		fmt.Fprintf(&b, "%d%c", op.Len, op.Kind)
	}
	return b.String()
}

// QuerySpan returns the number of query residues consumed by the
// alignment.
func (a *Alignment) QuerySpan() int {
	n := 0
	for _, op := range a.Cigar {
		if op.Kind == OpMatch || op.Kind == OpInsert {
			n += op.Len
		}
	}
	return n
}

// DatabaseSpan returns the number of database residues consumed.
func (a *Alignment) DatabaseSpan() int {
	n := 0
	for _, op := range a.Cigar {
		if op.Kind == OpMatch || op.Kind == OpDelete {
			n += op.Len
		}
	}
	return n
}

// AppendOp extends the CIGAR, merging consecutive operations of the
// same kind.
func (a *Alignment) AppendOp(kind OpKind, n int) {
	if n <= 0 {
		return
	}
	if len(a.Cigar) > 0 && a.Cigar[len(a.Cigar)-1].Kind == kind {
		a.Cigar[len(a.Cigar)-1].Len += n
		return
	}
	a.Cigar = append(a.Cigar, CigarOp{Kind: kind, Len: n})
}

// Reverse reverses the CIGAR in place (tracebacks are built
// end-to-start).
func (a *Alignment) Reverse() {
	for i, j := 0, len(a.Cigar)-1; i < j; i, j = i+1, j-1 {
		a.Cigar[i], a.Cigar[j] = a.Cigar[j], a.Cigar[i]
	}
}
