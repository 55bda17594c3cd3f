package seqio

import (
	"slices"

	"swvec/internal/alphabet"
)

// BatchLanes is the number of sequences per database batch: one lane
// per int8 element of a 256-bit register, as in §III-C ("batches
// containing 32 transposed sequences, i.e., 32 for the number of lanes
// in AVX2 when using 8-bit integers").
const BatchLanes = 32

// MaxBatchLanes is the widest batch any engine consumes: one lane per
// int8 element of a 512-bit register.
const MaxBatchLanes = 64

// A Batch holds up to Stride() database sequences in transposed
// residue-code layout: T[j*Stride()+lane] is residue j of the lane-th
// sequence, so one vector load fetches residue j of all lanes at once
// ("each adjacent transposed residue represents a residue from a
// different sequence"). Lanes past a sequence's end, and lanes of a
// short batch, are padded with the alphabet sentinel code, whose
// strongly negative substitution scores keep padding out of every
// local alignment.
type Batch struct {
	// Count is the number of real sequences (1..Stride()).
	Count int
	// MaxLen is the longest member length; T has MaxLen*Stride()
	// entries.
	MaxLen int
	// Lanes is the transposed stride — 32 for the 256-bit engines, 64
	// for the 512-bit ones. Zero means the legacy 32-lane layout.
	Lanes int
	// Lens holds each lane's true sequence length (0 for padding lanes).
	Lens [MaxBatchLanes]int
	// Index holds each lane's position in the source database slice
	// (-1 for padding lanes).
	Index [MaxBatchLanes]int
	// T is the transposed residue-code matrix.
	T []uint8
}

// Stride returns the batch's lane stride, defaulting to BatchLanes for
// zero-value batches.
func (b *Batch) Stride() int {
	if b.Lanes == 0 {
		return BatchLanes
	}
	return b.Lanes
}

// ResidueColumn returns the residue codes at position j, one per lane.
// The slice aliases the batch.
func (b *Batch) ResidueColumn(j int) []uint8 {
	stride := b.Stride()
	return b.T[j*stride : (j+1)*stride]
}

// Cells returns the total number of DP cells a query of length qlen
// induces against the real sequences of the batch (padding excluded).
func (b *Batch) Cells(qlen int) int64 {
	var total int64
	for lane := 0; lane < b.Count; lane++ {
		total += int64(qlen) * int64(b.Lens[lane])
	}
	return total
}

// BatchOptions controls database batching.
type BatchOptions struct {
	// SortByLength groups sequences of similar length into the same
	// batch, shrinking the padded tail each batch must process. This
	// is the main offline tuning knob for the batch layout.
	SortByLength bool
	// Lanes is the batch lane stride: BatchLanes (the default when
	// zero) for the 256-bit engines, MaxBatchLanes for the 512-bit
	// ones.
	Lanes int
}

// BuildBatches reorganizes the entire database into transposed batches
// eagerly. It is the materialized form of BatchStream, kept for tests,
// tools, and workloads small enough to hold every batch at once; the
// search pipeline streams instead. Its batches are BatchStream's, in
// ascending length order when sorted.
func BuildBatches(seqs []Sequence, alpha *alphabet.Alphabet, opts BatchOptions) []*Batch {
	s := NewBatchStream(seqs, alpha, opts)
	var batches []*Batch
	for b := s.Next(); b != nil; b = s.Next() {
		batches = append(batches, b)
	}
	if opts.SortByLength {
		slices.Reverse(batches)
	}
	return batches
}

// BatchedCells sums Cells over all batches for a query length.
func BatchedCells(batches []*Batch, qlen int) int64 {
	var total int64
	for _, b := range batches {
		total += b.Cells(qlen)
	}
	return total
}
