package sched

import "sort"

// TopHits returns the n best hits, ranked by score with ties broken by
// database order (lower SeqIndex first), matching a stable
// score-descending sort of Hits.
func (r *Result) TopHits(n int) []Hit {
	return TopK(r.Hits, n)
}

// TopHits returns query q's n best hits under the TopK ranking,
// selected straight from its score row without building a hit per
// database sequence. SeqIndex is the database position; Rescued is
// not tracked per query and stays false.
func (r *MultiResult) TopHits(q, n int) []Hit {
	row := r.Scores[q]
	return topK(len(row), n, func(i int) Hit { return Hit{SeqIndex: i, Score: row[i]} })
}

// TopK selects the n best of hits under the search ranking contract:
// score descending, ties broken by database order (lower SeqIndex
// first). It selects with a bounded min-heap in O(len(hits)·log n) and
// copies only the selected hits, instead of copying and fully sorting
// the hit list. n larger than the hit count is clamped; n <= 0 yields
// an empty slice.
//
// TopK is the single definition of the ranking: Result.TopHits uses it
// for single-node searches and the cluster merge (internal/cluster)
// uses it over per-shard top-K lists, which is what makes a sharded
// scatter-gather bit-identical — order and tie-breaks included — to a
// single-node search over the whole database.
func TopK(hits []Hit, n int) []Hit {
	return topK(len(hits), n, func(i int) Hit { return hits[i] })
}

// topK is TopK over count candidates read through at.
func topK(count, n int, at func(i int) Hit) []Hit {
	if n > count {
		n = count
	}
	if n <= 0 {
		return []Hit{}
	}
	// worse reports whether a ranks strictly below b. SeqIndex values
	// are unique, so this is a strict total order.
	worse := func(a, b Hit) bool {
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.SeqIndex > b.SeqIndex
	}
	// Min-heap of the best n seen so far, worst at the root.
	heap := make([]Hit, 0, n)
	siftUp := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(heap[i], heap[parent]) {
				return
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	siftDown := func(i int) {
		for {
			l, rt, worst := 2*i+1, 2*i+2, i
			if l < len(heap) && worse(heap[l], heap[worst]) {
				worst = l
			}
			if rt < len(heap) && worse(heap[rt], heap[worst]) {
				worst = rt
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for i := 0; i < count; i++ {
		h := at(i)
		if len(heap) < n {
			heap = append(heap, h)
			siftUp(len(heap) - 1)
			continue
		}
		if worse(heap[0], h) {
			heap[0] = h
			siftDown(0)
		}
	}
	sort.Slice(heap, func(a, b int) bool { return worse(heap[b], heap[a]) })
	return heap
}
