package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one end-to-end metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off. BENCHMARK.json must match it (see TestBenchmarkJSON).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"gcups", "GCUPS", "higher", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"ok_frac", "ratio", "higher", 0.05},
}

// layerDef is one per-layer metric of the traced run, with the
// workload it is measured on and the end-to-end metric it should move.
type layerDef struct {
	name, unit, better string
	workload, moves    string
}

// perLayer lists the per-layer metrics every traced run reports.
var perLayer = []layerDef{
	{"kernel.batch8_gcups", "GCUPS", "higher", "scan", "scan/gcups"},
	{"kernel.batch16_gcups", "GCUPS", "higher", "scan", "scan/gcups"},
	{"kernel.pad_frac", "ratio", "lower", "scan", "scan/gcups"},
	{"kernel.sat8_frac", "ratio", "lower", "scan", "scan/gcups"},
	{"kernel.multi8_gcups", "GCUPS", "higher", "serve", "serve/p50_ms"},
	{"kernel.trace_gcups", "GCUPS", "higher", "align", "align/ops_per_s, align/p50_ms"},
	{"kernel.score_gcups", "GCUPS", "higher", "align", "none today; align/ops_per_s once Align gets a native score pass"},
	{"seqio.stream_ns_per_residue", "ns", "lower", "scan", "scan/gcups, by at most its producer share"},
	{"seqio.build_ms", "ms", "lower", "serve", "serve/p50_ms"},
	{"sched.produce_s", "s", "lower", "scan", "scan/gcups"},
	{"sched.stage8_s", "s", "lower", "scan", "scan/gcups"},
	{"sched.stage16_s", "s", "lower", "scan", "scan/gcups"},
	{"sched.busy_frac", "ratio", "higher", "scan", "scan/gcups"},
	{"sched.rescued", "count", "lower", "scan", "scan/gcups"},
	{"sched.pairs32", "count", "lower", "scan", "scan/gcups"},
	{"sched.queue_high_water", "count", "higher", "scan", "scan/gcups"},
	{"sched.retries", "count", "lower", "scan", "scan/ok_frac"},
	{"swserver.rtt_p50_ms", "ms", "lower", "serve", "serve/p50_ms"},
	{"swserver.rtt_tail_ms", "ms", "lower", "serve", "serve/tail_ms"},
	{"swserver.batch_fill", "count", "higher", "serve", "serve/p50_ms"},
	{"swserver.compute_ms", "ms", "lower", "serve", "serve/p50_ms"},
	{"swserver.wait_ms", "ms", "lower", "serve", "serve/p50_ms"},
	{"swserver.refused_frac", "ratio", "lower", "serve", "serve/ok_frac"},
	{"cluster.scatter_p50_ms", "ms", "lower", "serve", "serve/p50_ms"},
	{"cluster.router_ms", "ms", "lower", "serve", "serve/p50_ms"},
	{"cluster.merge_us", "us", "lower", "serve", "serve/p50_ms"},
	{"cluster.requests_per_scatter", "count", "lower", "serve", "serve/p50_ms, serve/tail_ms"},
	{"cluster.hedge_frac", "ratio", "lower", "serve", "serve/tail_ms"},
	{"cluster.hedge_win_frac", "ratio", "higher", "serve", "serve/tail_ms"},
	{"cluster.retry_frac", "ratio", "lower", "serve", "serve/tail_ms, serve/ok_frac"},
	{"cluster.failover_frac", "ratio", "lower", "serve", "serve/tail_ms, serve/ok_frac"},
	{"cluster.degraded_frac", "ratio", "lower", "serve", "serve/tail_ms, serve/ok_frac"},
	{"cluster.probes_per_s", "1/s", "lower", "serve", "serve/p50_ms"},
	{"aln.walk_us", "us", "lower", "align", "align/p50_ms"},
	{"aln.trace_kb_per_op", "KiB", "lower", "align", "align/alloc_kb_per_op, align/peak_rss_mb"},
	{"aln.cigar_ops", "count", "lower", "align", "none (sanity count)"},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V    float64
	N    int
	Note string // e.g. which percentile a tail is
}

// pass is the outcome of one workload pass.
type pass struct {
	workload  string
	attempted int
	failed    int
	// problems are errors and failed output checks; any makes the run
	// incorrect.
	problems []string
	e2e      map[string]value
	layers   map[string]value
	record   []string
}

func newPass(workload string) *pass {
	return &pass{workload: workload, e2e: map[string]value{}, layers: map[string]value{}}
}

func (p *pass) problem(format string, args ...any) {
	const keep = 20
	if len(p.problems) < keep {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *pass) note(format string, args ...any) {
	p.record = append(p.record, fmt.Sprintf(format, args...))
}

// latencyMetrics fills p50_ms and tail_ms from per-operation latencies
// in milliseconds; failed operations count as beyond failedMs.
func (p *pass) latencyMetrics(ms []float64, failed int, failedMs float64) {
	p.e2e["p50_ms"] = value{V: median(ms), N: len(ms)}
	t := tailPercentile(ms, failed, failedMs)
	p.e2e["tail_ms"] = value{V: t.Value, N: t.N, Note: fmt.Sprintf("p%.1f, %d beyond", t.P, t.Beyond)}
}

// printValues writes named values with their units and sample counts.
func printValues(w io.Writer, prefix string, vals map[string]value, unit func(string) string) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := vals[n]
		fmt.Fprintf(w, "%s %-30s %14.6g %-6s n=%-6d %s\n", prefix, n, v.V, unit(n), v.N, v.Note)
	}
}

func e2eUnit(name string) string {
	for _, d := range endToEnd {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite replaces a non-finite value by 0 so the result stays valid
// JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// percentiles renders a latency sample's spread for the run record.
func percentiles(ms []float64) string {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	if len(s) == 0 {
		return "no samples"
	}
	var b []string
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99} {
		b = append(b, fmt.Sprintf("p%g=%.1fms", p, s[int(p/100*float64(len(s)-1))]))
	}
	return strings.Join(b, " ") + fmt.Sprintf(" n=%d", len(s))
}
