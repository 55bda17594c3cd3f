// Command swbench regenerates the paper's evaluation figures
// (Figs. 6-14) from the reproduction's kernels, the instrumented
// vector machine and the architecture models.
//
// Usage:
//
//	swbench                 # all figures, full workload
//	swbench -fig 14         # one figure
//	swbench -quick          # small workloads
//	swbench -csv            # CSV instead of aligned tables
//	swbench -stats          # append the cumulative pipeline counters
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"swvec/internal/core"
	"swvec/internal/figures"
	"swvec/internal/metrics"
	"swvec/internal/stats"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6..14, det, port, mem, pipe, or all")
		quick     = flag.Bool("quick", false, "small workloads for fast runs")
		csv       = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		seed      = flag.Int64("seed", 42, "workload seed")
		db        = flag.Int("db", 0, "database size override (sequences)")
		width     = flag.String("width", "auto", "search-pipeline vector width: 256, 512, or auto")
		backend   = flag.String("backend", "auto", "execution backend: auto, modeled, or native (instrumented figures resolve auto to modeled)")
		kernel    = flag.String("kernel", "auto", "modeled-backend kernel family: auto (diagonal), diagonal, striped, or lazyf; the native backend ignores it")
		pipeStats = flag.Bool("stats", false, "print the cumulative per-stage pipeline counters after the run")
	)
	flag.Parse()

	var bits int
	switch *width {
	case "auto":
		bits = 0
	case "256":
		bits = 256
	case "512":
		bits = 512
	default:
		fmt.Fprintf(os.Stderr, "swbench: unknown width %q (want 256, 512, or auto)\n", *width)
		os.Exit(2)
	}

	be, err := core.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swbench: %v\n", err)
		os.Exit(2)
	}

	kern, err := core.ParseKernel(*kernel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "swbench: %v\n", err)
		os.Exit(2)
	}

	cfg := figures.Config{Quick: *quick, Seed: *seed, DBSize: *db, Width: bits, Backend: be, Kernel: kern}
	var tables []*stats.Table
	run := func(id string) {
		switch id {
		case "6":
			tables = append(tables, figures.Fig06AVX2vsAVX512(cfg))
		case "7":
			tables = append(tables, figures.Fig07AffineGap(cfg))
		case "8":
			tables = append(tables, figures.Fig08Traceback(cfg))
		case "9":
			tables = append(tables, figures.Fig09SubstMatrix(cfg))
		case "10":
			tables = append(tables, figures.Fig10Tuning(cfg))
		case "11":
			tables = append(tables, figures.Fig11Scaling(cfg))
		case "12":
			tables = append(tables, figures.Fig12TopDown(cfg)...)
		case "13":
			tables = append(tables, figures.Fig13Scenarios(cfg))
		case "14":
			t, h := figures.Fig14VsParasail(cfg)
			tables = append(tables, t)
			fmt.Fprintf(os.Stderr, "headline: %s (paper: 3.9x / 1.9x / 1.5x)\n", h)
		case "det", "determinism":
			tables = append(tables, figures.Determinism(cfg))
		case "port", "portability":
			tables = append(tables, figures.Portability(cfg))
		case "mem", "memory":
			tables = append(tables, figures.MemoryAnalysis(cfg))
		case "pipe", "pipeline":
			tables = append(tables, figures.PipelineReport(cfg))
		default:
			fmt.Fprintf(os.Stderr, "swbench: unknown figure %q\n", id)
			os.Exit(2)
		}
	}

	switch strings.ToLower(*fig) {
	case "all":
		for f := 6; f <= 14; f++ {
			run(strconv.Itoa(f))
		}
		run("det")
		run("port")
		run("mem")
		run("pipe")
	default:
		for _, id := range strings.Split(*fig, ",") {
			run(strings.TrimSpace(id))
		}
	}

	for _, t := range tables {
		var err error
		if *csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %v\n", err)
			os.Exit(1)
		}
	}

	if *pipeStats {
		fmt.Println("\n# pipeline counters (cumulative across the run)")
		if err := metrics.Global.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "swbench: %v\n", err)
			os.Exit(1)
		}
	}
}
