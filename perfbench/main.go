// Command perfbench is the repository's benchmark. It drives three
// workloads through the program's public entry points — scan (database
// search in process), serve (an open loop through swrouter and four
// swserver shards) and align (Smith-Waterman with traceback as a
// library subroutine) — checks every answer, and prints the end-to-end
// metrics or, with -trace 1, the per-layer metrics. The last line of
// standard output is one JSON object with the result.
//
// Run it through run.sh, which builds it and the server binaries from
// the checkout first:
//
//	bash perfbench/run.sh --workload serve --seed 3 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what every workload pass needs from the run.
type env struct {
	seed  int64
	nproc int
	bin   string // directory holding the swserver and swrouter binaries
	work  string // scratch directory inside the checkout
	fleet *fleet
}

// workloads maps each workload name to its pass.
var workloads = map[string]func(context.Context, *env, *recorder, time.Duration, int) (*pass, error){
	"scan":  runScan,
	"serve": runServe,
	"align": runAlign,
}

// workloadOrder is the order the traced run replays other workloads in.
var workloadOrder = []string{"scan", "serve", "align"}

// setupReps is how many times a run sets up its workload; setup_s is
// the median.
const setupReps = 3

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload: scan, serve, align, or all (untraced only)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", 20, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer run")
		root     = flag.String("root", ".", "checkout root")
		bin      = flag.String("bin", "", "directory holding swserver and swrouter")
	)
	flag.Parse()
	_, known := workloads[*workload]
	all := *workload == "all" && *traced == 0
	if !(known || all) || *seconds < 1 || *bin == "" || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload scan|serve|align|all -seed N -seconds N -trace 0|1 -bin DIR [-root DIR]")
		return 2
	}

	// SIGINT and SIGTERM cancel the run; the deferred teardown below
	// still stops every process.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	work := filepath.Join(*root, ".bench_build", "perfbench", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	f := newFleet(work, func(name string, pid int) {
		fmt.Fprintf(os.Stderr, "perfbench: started %s pid=%d\n", name, pid)
	})
	defer f.stopAll()

	e := &env{seed: *seed, nproc: runtime.NumCPU(), bin: *bin, work: work, fleet: f}
	dur := time.Duration(*seconds) * time.Second
	res, err := execute(ctx, e, *workload, dur, *traced == 1, *root)
	f.stopAll()
	if verr := f.verify(); verr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", verr)
		return 1
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted")
		return 1
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the requested pass or passes and prints the report.
// Workload "all" runs every workload's untraced pass in this one
// process and names each metric <workload>/<metric>.
func execute(ctx context.Context, e *env, workload string, dur time.Duration, traced bool, root string) (*result, error) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%t\n", workload, e.seed, dur.Seconds(), traced)
	fmt.Printf("run: nproc=%d gomaxprocs=%d go=%s\n", e.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	cpu0 := readCPU()
	res := &result{Correct: true, Metrics: map[string]resultValue{}}
	// put adds a metric to the result; a missing one makes the run
	// incorrect (a failed check can cut a layer replay short).
	put := func(key, name, unit string, vals map[string]value) {
		v, ok := vals[name]
		if !ok {
			res.Correct = false
			fmt.Printf("MISSING metric %s\n", key)
		}
		res.Metrics[key] = resultValue{Value: finite(v.V), Unit: unit}
	}
	untraced := []string{workload}
	if workload == "all" {
		untraced = workloadOrder
	}
	var passes []*pass
	for _, w := range untraced {
		p, err := workloads[w](ctx, e, nil, dur, setupReps)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		if traced {
			continue
		}
		for _, d := range endToEnd {
			key := d.name
			if workload == "all" {
				key = w + "/" + d.name
			}
			put(key, d.name, d.unit, p.e2e)
		}
	}
	first := passes[0]
	if traced {
		rec := newRecorder()
		tr, err := workloads[workload](ctx, e, rec, dur, setupReps)
		if err != nil {
			return nil, err
		}
		passes = append(passes, tr)
		// The other workloads' layers, from shorter traced passes.
		for _, w := range workloadOrder {
			if w == workload {
				continue
			}
			p, err := workloads[w](ctx, e, rec, dur/4, 1)
			if err != nil {
				return nil, err
			}
			passes = append(passes, p)
		}
		layers := map[string]value{}
		for _, p := range passes[1:] {
			for k, v := range p.layers {
				layers[k] = v
			}
		}
		for _, d := range perLayer {
			put(d.name, d.name, d.unit, layers)
		}
		fmt.Println("per-layer metrics (layer, value, unit, samples; measured on -> should move):")
		for _, d := range perLayer {
			v := layers[d.name]
			fmt.Printf("layer %-30s %14.6g %-6s n=%-6d %s -> %s  %s\n", d.name, v.V, d.unit, v.N, d.workload, d.moves, v.Note)
		}
		fmt.Printf("tracing overhead on %s (traced - untraced):\n", workload)
		for _, d := range endToEnd {
			u, t := first.e2e[d.name], tr.e2e[d.name]
			fmt.Printf("overhead %-16s %+14.6g %-6s (%+.2f%%) untraced %.6g traced %.6g\n",
				d.name, t.V-u.V, d.unit, 100*ratio(t.V-u.V, u.V), u.V, t.V)
		}
		fmt.Println("spans (total and self time by name) and counts:")
		rec.printStats(os.Stdout)
		path := filepath.Join(root, ".bench_build", "perfbench",
			fmt.Sprintf("trace-%s-seed%d.json", workload, e.seed))
		if err := rec.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace written to %s\n", path)
	}
	for _, p := range passes {
		for _, line := range p.record {
			fmt.Println(line)
		}
	}
	fmt.Printf("run: cpu steal %.2f%% over the whole run\n", 100*readCPU().stealSince(cpu0))
	for i, w := range untraced {
		fmt.Printf("end-to-end metrics of %s (name, value, unit, samples):\n", w)
		printValues(os.Stdout, "metric", passes[i].e2e, e2eUnit)
	}

	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, prob := range p.problems {
			res.Correct = false
			fmt.Printf("CHECK FAILED %s: %s\n", p.workload, prob)
		}
	}
	return res, nil
}

// announce tells an outside observer on standard error that a timed
// phase is starting; the teardown tests kill the benchmark on it.
func announce(workload string) {
	fmt.Fprintf(os.Stderr, "perfbench: %s timed phase\n", workload)
}

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal float64
}

// readCPU reads the aggregate CPU times; zero if unavailable.
func readCPU() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var c cpuTimes
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		// guest and guest_nice (fields 9 and 10) are already counted in
		// user and nice.
		if i < 8 {
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealSince returns the share of CPU time stolen since c0.
func (c cpuTimes) stealSince(c0 cpuTimes) float64 {
	return ratio(c.steal-c0.steal, c.total-c0.total)
}
