package seqio

import (
	"sort"
	"sync"

	"swvec/internal/alphabet"
)

// A BatchStream produces transposed batches on demand, so a database
// search never materializes every batch at once: the §III-C
// preprocessing happens incrementally, one batch ahead of the kernels.
// Length-sorted mode sorts an index permutation of the database, not a
// copy of the sequences, groups that sorted index into batches, and
// hands the groups out longest first: the batch that takes longest
// starts first instead of running last while the other workers idle
// (Graham's LPT rule).
//
// Next must be called from a single goroutine (the pipeline producer);
// Recycle is safe to call concurrently from consumers, which lets the
// worker pool hand exhausted batch buffers back for reuse and keeps the
// steady-state batch path allocation-free.
type BatchStream struct {
	seqs  []Sequence
	order []int
	alpha *alphabet.Alphabet
	lanes int
	// groups is the stream's batch count and done how many it has
	// produced; desc hands the groups out in reverse order.
	groups, done int
	desc         bool

	mu   sync.Mutex
	free []*Batch
}

// NewBatchStream prepares a stream over seqs. With SortByLength set it
// sorts only an index permutation (stable, ascending length), groups it
// into batches in that order, and streams the groups longest first.
// Unsorted streams keep database order.
func NewBatchStream(seqs []Sequence, alpha *alphabet.Alphabet, opts BatchOptions) *BatchStream {
	order := make([]int, len(seqs))
	for i := range order {
		order[i] = i
	}
	if opts.SortByLength {
		sort.SliceStable(order, func(a, b int) bool {
			return seqs[order[a]].Len() < seqs[order[b]].Len()
		})
	}
	lanes := opts.Lanes
	if lanes <= 0 {
		lanes = BatchLanes
	}
	groups := (len(seqs) + lanes - 1) / lanes
	return &BatchStream{seqs: seqs, order: order, alpha: alpha, lanes: lanes, groups: groups, desc: opts.SortByLength}
}

// Remaining returns the number of batches the stream has yet to
// produce.
func (s *BatchStream) Remaining() int {
	return s.groups - s.done
}

// Next returns the next transposed batch, or nil when the database is
// exhausted. The caller owns the batch until it passes it to Recycle.
func (s *BatchStream) Next() *Batch {
	if s.done >= s.groups {
		return nil
	}
	g := s.done
	if s.desc {
		g = s.groups - 1 - g
	}
	s.done++
	start := g * s.lanes
	members := s.order[start:min(start+s.lanes, len(s.order))]
	b := s.take()
	fillBatch(b, s.seqs, members, s.alpha, s.lanes)
	return b
}

// take pops a recycled batch or allocates a fresh one.
func (s *BatchStream) take() *Batch {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		b := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return b
	}
	return &Batch{}
}

// Recycle hands a batch buffer back to the stream for reuse. The
// caller must not touch the batch afterwards.
func (s *BatchStream) Recycle(b *Batch) {
	if b == nil {
		return
	}
	s.mu.Lock()
	s.free = append(s.free, b)
	s.mu.Unlock()
}

// MakeBatch builds one transposed batch of the given lane stride whose
// lanes are the database positions listed in members (at most lanes
// entries; lanes <= 0 selects BatchLanes), without copying sequences.
// Kernel benchmarks and profiles use it to batch chosen sequences; the
// search pipeline rescues saturated lanes one pair at a time instead.
func MakeBatch(seqs []Sequence, members []int, alpha *alphabet.Alphabet, lanes int) *Batch {
	if lanes <= 0 {
		lanes = BatchLanes
	}
	b := &Batch{}
	fillBatch(b, seqs, members, alpha, lanes)
	return b
}

// fillBatch (re)initializes b to hold the sequences at positions
// members of seqs, reusing b's transposed buffer when its capacity
// suffices. Residues are encoded directly into the transposed layout.
func fillBatch(b *Batch, seqs []Sequence, members []int, alpha *alphabet.Alphabet, lanes int) {
	b.Count = len(members)
	b.MaxLen = 0
	b.Lanes = lanes
	for lane := range b.Index {
		b.Index[lane] = -1
		b.Lens[lane] = 0
	}
	for lane, si := range members {
		b.Index[lane] = si
		b.Lens[lane] = seqs[si].Len()
		if seqs[si].Len() > b.MaxLen {
			b.MaxLen = seqs[si].Len()
		}
	}
	need := b.MaxLen * lanes
	if cap(b.T) < need {
		b.T = make([]uint8, need)
	} else {
		b.T = b.T[:need]
	}
	for i := range b.T {
		b.T[i] = alphabet.Sentinel
	}
	for lane, si := range members {
		res := seqs[si].Residues
		for j := 0; j < len(res); j++ {
			b.T[j*lanes+lane] = alpha.Index(res[j])
		}
	}
}
