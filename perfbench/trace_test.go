package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRecorderSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	ms := time.Millisecond
	r.add(span{ID: 1, Op: 7, Name: "root", Start: 0, End: 100 * ms})
	// Overlapping children count once; a child running past its parent
	// is clipped to the parent.
	r.add(span{ID: 2, Parent: 1, Op: 7, Name: "child", Start: 10 * ms, End: 30 * ms})
	r.add(span{ID: 3, Parent: 1, Op: 7, Name: "child", Start: 20 * ms, End: 50 * ms})
	r.add(span{ID: 4, Parent: 1, Op: 7, Name: "child", Start: 90 * ms, End: 120 * ms})
	r.add(span{ID: 5, Parent: 3, Op: 7, Name: "grandchild", Start: 25 * ms, End: 35 * ms})
	got := map[string]spanStat{}
	for _, st := range r.stats() {
		got[st.Name] = st
	}
	want := map[string][3]time.Duration{ // n, total, self
		"root":       {1, 100 * ms, 50 * ms},
		"child":      {3, 80 * ms, 70 * ms},
		"grandchild": {1, 10 * ms, 10 * ms},
	}
	for name, w := range want {
		st := got[name]
		if time.Duration(st.N) != w[0] || st.Total != w[1] || st.Self != w[2] {
			t.Errorf("%s: n=%d total=%v self=%v, want n=%d total=%v self=%v", name, st.N, st.Total, st.Self, w[0], w[1], w[2])
		}
	}
}

func TestRecorderNestsLiveSpansAndWritesOnce(t *testing.T) {
	r := newRecorder()
	outer := r.begin("outer", 0, 1)
	inner := r.begin("inner", outer.ID(), 1)
	time.Sleep(2 * time.Millisecond)
	inner.end()
	outer.end()
	r.count("things", 2)
	r.count("things", 3)
	if n := len(r.spans); n != 2 {
		t.Fatalf("%d spans before write, want 2", n)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans  []span
		Stats  []spanStat
		Counts map[string]float64
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Counts["things"] != 5 {
		t.Fatalf("written trace: %d spans, counts %v", len(doc.Spans), doc.Counts)
	}
	for _, sp := range doc.Spans {
		if sp.Name == "inner" && sp.Parent != outer.ID() {
			t.Fatalf("inner span's parent %d, want %d", sp.Parent, outer.ID())
		}
	}
	for _, st := range doc.Stats {
		if st.Name == "outer" && st.Self >= st.Total {
			t.Fatalf("outer self %v not below its total %v", st.Self, st.Total)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	sp := r.begin("x", 0, 1)
	sp.end()
	r.count("x", 1)
	r.add(span{Name: "x"})
	if r.stats() != nil || r.write(filepath.Join(t.TempDir(), "none")) != nil {
		t.Fatal("nil recorder did something")
	}
}
