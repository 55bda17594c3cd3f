package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not run", w.Name)
		}
		if w.Name == "serve" {
			for _, s := range []string{fmt.Sprintf("%g req/s", serveRate), fmt.Sprintf("limit %d ms", serveLimit.Milliseconds())} {
				if !strings.Contains(w.Why, s) {
					t.Errorf("serve's why does not state %q: %s", s, w.Why)
				}
			}
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, the benchmark reports %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if i < len(endToEnd) {
			d := endToEnd[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
				t.Errorf("end_to_end[%d] = %+v, benchmark has %s %s %s %g", i, m, d.name, d.unit, d.better, d.bound)
			}
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, the benchmark reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if i < len(perLayer) {
			d := perLayer[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("per_layer[%d] = %+v, benchmark has %s %s %s", i, m, d.name, d.unit, d.better)
			}
		}
	}
}
