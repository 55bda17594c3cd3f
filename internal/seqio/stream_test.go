package seqio

import (
	"reflect"
	"testing"

	"swvec/internal/alphabet"
)

func collectStream(s *BatchStream) []*Batch {
	var out []*Batch
	for b := s.Next(); b != nil; b = s.Next() {
		out = append(out, b)
	}
	return out
}

// TestBatchStreamMatchesBuildBatches: the stream produces BuildBatches'
// batches, in the same order unsorted and longest first when sorted.
func TestBatchStreamMatchesBuildBatches(t *testing.T) {
	alpha := alphabet.ProteinAlphabet()
	g := NewGenerator(21)
	db := g.Database(77)
	for _, sorted := range []bool{false, true} {
		opts := BatchOptions{SortByLength: sorted}
		want := BuildBatches(db, alpha, opts)
		got := collectStream(NewBatchStream(db, alpha, opts))
		if len(got) != len(want) {
			t.Fatalf("sorted=%v: %d batches, want %d", sorted, len(got), len(want))
		}
		for i := range want {
			w := want[i]
			if sorted {
				w = want[len(want)-1-i]
			}
			if !reflect.DeepEqual(got[i], w) {
				t.Fatalf("sorted=%v: batch %d differs", sorted, i)
			}
		}
	}
}

// TestSortedStreamLongestFirst: a length-sorted stream hands out its
// batches by non-increasing MaxLen, starting with the partial group of
// the longest sequences, while BuildBatches keeps ascending order.
func TestSortedStreamLongestFirst(t *testing.T) {
	alpha := alphabet.ProteinAlphabet()
	db := NewGenerator(23).Database(BatchLanes*2 + 13)
	opts := BatchOptions{SortByLength: true}
	got := collectStream(NewBatchStream(db, alpha, opts))
	built := BuildBatches(db, alpha, opts)
	if len(got) != 3 || got[0].Count != 13 {
		t.Fatalf("first of %d batches holds %d sequences, want the 13 longest", len(got), got[0].Count)
	}
	for i := 1; i < len(got); i++ {
		if got[i].MaxLen > got[i-1].MaxLen {
			t.Fatalf("stream batch %d is longer than batch %d (%d > %d)", i, i-1, got[i].MaxLen, got[i-1].MaxLen)
		}
		if built[i].MaxLen < built[i-1].MaxLen {
			t.Fatalf("BuildBatches batch %d is shorter than batch %d", i, i-1)
		}
	}
}

func TestBatchStreamRemaining(t *testing.T) {
	alpha := alphabet.ProteinAlphabet()
	g := NewGenerator(22)
	db := g.Database(BatchLanes*2 + 5)
	s := NewBatchStream(db, alpha, BatchOptions{})
	if s.Remaining() != 3 {
		t.Fatalf("remaining = %d, want 3", s.Remaining())
	}
	s.Next()
	if s.Remaining() != 2 {
		t.Fatalf("after one batch remaining = %d, want 2", s.Remaining())
	}
	collectStream(s)
	if s.Remaining() != 0 {
		t.Fatalf("exhausted stream remaining = %d", s.Remaining())
	}
	if s.Next() != nil {
		t.Fatal("exhausted stream returned a batch")
	}
}

// TestBatchStreamRecycleAcrossSizes forces multiple batches through
// one recycled buffer with shrinking MaxLen: the transposed slice must
// be reused (no fresh allocation) yet shrink correctly, carrying no
// stale lanes from the larger predecessor.
func TestBatchStreamRecycleAcrossSizes(t *testing.T) {
	alpha := alphabet.ProteinAlphabet()
	g := NewGenerator(24)
	db := make([]Sequence, 0, BatchLanes*3)
	for i := 0; i < BatchLanes; i++ {
		db = append(db, g.Protein("long", 200))
	}
	for i := 0; i < BatchLanes; i++ {
		db = append(db, g.Protein("mid", 80))
	}
	for i := 0; i < BatchLanes; i++ {
		db = append(db, g.Protein("short", 15))
	}
	want := BuildBatches(db, alpha, BatchOptions{})
	s := NewBatchStream(db, alpha, BatchOptions{})
	var prev *Batch
	for i := 0; ; i++ {
		b := s.Next()
		if b == nil {
			if i != len(want) {
				t.Fatalf("stream produced %d batches, want %d", i, len(want))
			}
			break
		}
		if prev != nil && b != prev {
			t.Fatalf("batch %d did not reuse the recycled batch", i)
		}
		if !reflect.DeepEqual(b, want[i]) {
			t.Fatalf("recycled batch %d differs (maxlen %d vs %d, tlen %d vs %d)",
				i, b.MaxLen, want[i].MaxLen, len(b.T), len(want[i].T))
		}
		prev = b
		s.Recycle(b)
	}
}

func TestMakeBatchSubset(t *testing.T) {
	alpha := alphabet.ProteinAlphabet()
	g := NewGenerator(25)
	db := g.Database(50)
	members := []int{3, 17, 42}
	b := MakeBatch(db, members, alpha, 0)
	if b.Count != len(members) {
		t.Fatalf("count = %d", b.Count)
	}
	for lane, si := range members {
		if b.Index[lane] != si {
			t.Fatalf("lane %d index = %d, want %d", lane, b.Index[lane], si)
		}
		if b.Lens[lane] != db[si].Len() {
			t.Fatalf("lane %d len = %d, want %d", lane, b.Lens[lane], db[si].Len())
		}
		enc := db[si].Encode(alpha)
		for j, code := range enc {
			if b.T[j*BatchLanes+lane] != code {
				t.Fatalf("lane %d residue %d = %d, want %d", lane, j, b.T[j*BatchLanes+lane], code)
			}
		}
	}
	for lane := len(members); lane < BatchLanes; lane++ {
		if b.Index[lane] != -1 || b.Lens[lane] != 0 {
			t.Fatalf("padding lane %d not cleared", lane)
		}
	}
}

// TestBatchStreamWideLanes checks the 64-lane (512-bit) stride: batch
// count halves, the transposed layout uses the wide stride, and every
// residue lands at T[j*64+lane].
func TestBatchStreamWideLanes(t *testing.T) {
	alpha := alphabet.ProteinAlphabet()
	g := NewGenerator(26)
	db := g.Database(MaxBatchLanes + 7)
	s := NewBatchStream(db, alpha, BatchOptions{Lanes: MaxBatchLanes})
	if s.Remaining() != 2 {
		t.Fatalf("remaining = %d, want 2", s.Remaining())
	}
	batches := collectStream(s)
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2", len(batches))
	}
	for bi, b := range batches {
		if b.Stride() != MaxBatchLanes {
			t.Fatalf("batch %d stride = %d, want %d", bi, b.Stride(), MaxBatchLanes)
		}
		if len(b.T) != b.MaxLen*MaxBatchLanes {
			t.Fatalf("batch %d T size = %d, want %d", bi, len(b.T), b.MaxLen*MaxBatchLanes)
		}
		for lane := 0; lane < b.Count; lane++ {
			si := b.Index[lane]
			enc := db[si].Encode(alpha)
			for j, code := range enc {
				if b.T[j*MaxBatchLanes+lane] != code {
					t.Fatalf("batch %d lane %d residue %d = %d, want %d",
						bi, lane, j, b.T[j*MaxBatchLanes+lane], code)
				}
			}
			for j := len(enc); j < b.MaxLen; j++ {
				if b.T[j*MaxBatchLanes+lane] != alphabet.Sentinel {
					t.Fatalf("batch %d lane %d tail residue %d not sentinel", bi, lane, j)
				}
			}
		}
	}
	if batches[0].Count != MaxBatchLanes || batches[1].Count != 7 {
		t.Fatalf("counts = %d,%d want %d,7", batches[0].Count, batches[1].Count, MaxBatchLanes)
	}
}
