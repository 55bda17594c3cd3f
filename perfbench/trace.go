package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// recorder keeps the traced run's spans and counts in memory; write
// saves them once, at exit. A nil *recorder records nothing, which is
// how the untraced run calls the same code without tracing.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	nextID int64
	spans  []span
	counts map[string]float64
}

// span is one timed call: its name, the span that caused it (0 for
// none) and the operation it belongs to (-1 for none).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string]float64{}}
}

// activeSpan is a span that has started; end records it.
type activeSpan struct {
	r     *recorder
	id    int64
	par   int64
	op    int64
	name  string
	start time.Time
}

// begin starts a span named name under parent (0 for a root) for
// operation op (-1 for none).
func (r *recorder) begin(name string, parent, op int64) activeSpan {
	if r == nil {
		return activeSpan{}
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return activeSpan{r: r, id: id, par: parent, op: op, name: name, start: time.Now()}
}

// ID is the span's identifier, to pass as a child's parent.
func (s activeSpan) ID() int64 { return s.id }

// end records the span.
func (s activeSpan) end() {
	if s.r == nil {
		return
	}
	now := time.Now()
	s.r.add(span{ID: s.id, Parent: s.par, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.r.epoch), End: now.Sub(s.r.epoch)})
}

// add records a finished span directly, for intervals the benchmark
// measured itself (an open-loop request runs from its due time).
func (r *recorder) add(sp span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if sp.ID == 0 {
		r.nextID++
		sp.ID = r.nextID
	}
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// at converts a wall time into an offset from the recorder's epoch.
func (r *recorder) at(t time.Time) time.Duration {
	if r == nil {
		return 0
	}
	return t.Sub(r.epoch)
}

// count adds v to the named count.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string        `json:"name"`
	N     int           `json:"n"`
	Total time.Duration `json:"total_ns"`
	Self  time.Duration `json:"self_ns"`
}

// stats aggregates spans by name. A span's self time is its duration
// minus the part of it that its children cover; children may overlap
// each other, so the covered part is the union of their intervals.
func (r *recorder) stats() []spanStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int64][]span{}
	for _, sp := range r.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	agg := map[string]*spanStat{}
	for _, sp := range r.spans {
		st := agg[sp.Name]
		if st == nil {
			st = &spanStat{Name: sp.Name}
			agg[sp.Name] = st
		}
		d := sp.End - sp.Start
		st.N++
		st.Total += d
		st.Self += d - covered(sp, children[sp.ID])
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// covered returns how much of parent's interval the union of kids'
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.a <= cur.b:
			if x.b > cur.b {
				cur.b = x.b
			}
		default:
			total += cur.b - cur.a
			cur = x
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// write saves every span, the per-name aggregates and the counts as one
// JSON document.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	st := r.stats()
	r.mu.Lock()
	doc := struct {
		Spans  []span             `json:"spans"`
		Stats  []spanStat         `json:"stats"`
		Counts map[string]float64 `json:"counts"`
	}{r.spans, st, r.counts}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printStats writes the per-name span aggregates and the counts.
func (r *recorder) printStats(w io.Writer) {
	for _, st := range r.stats() {
		fmt.Fprintf(w, "  span %-26s n=%-6d total=%10.3fms self=%10.3fms\n",
			st.Name, st.N, float64(st.Total)/1e6, float64(st.Self)/1e6)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counts))
	for n := range r.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  count %-25s %.6g\n", n, r.counts[n])
	}
}
