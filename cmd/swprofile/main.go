// Command swprofile runs a kernel workload on the instrumented vector
// machine and prints a Vtune-style top-down report per architecture —
// the interactive counterpart of Fig. 12.
//
// Usage:
//
//	swprofile -kernel pair16 -qlen 320 -dlen 2000
//	swprofile -kernel batch8 -qlen 320 -db 64 -arch haswell,skylake
//	swprofile -kernel striped16 -qlen 511
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/isa"
	"swvec/internal/perfmodel"
	"swvec/internal/profile"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

func main() {
	var (
		kernel    = flag.String("kernel", "pair16", "kernel: pair8, pair16, pair16w, pair32, batch8, batch16, diag16, scan16, striped16, striped8")
		qlen      = flag.Int("qlen", 320, "query length")
		dlen      = flag.Int("dlen", 2000, "database sequence length (pair kernels)")
		dbSize    = flag.Int("db", 32, "database sequence count (batch kernels)")
		archList  = flag.String("arch", "skylake", "comma-separated architectures, or 'all'")
		fixed     = flag.Bool("fixed", false, "use a match/mismatch matrix instead of BLOSUM62")
		traceback = flag.Bool("traceback", false, "enable traceback recording (pair16 only)")
		seed      = flag.Int64("seed", 42, "workload seed")
	)
	flag.Parse()

	mat := submat.Blosum62()
	if *fixed {
		mat = submat.MatchMismatch(mat.Alphabet(), 2, -1)
	}
	alpha := mat.Alphabet()
	g := seqio.NewGenerator(*seed)
	q := g.Protein("q", *qlen).Encode(alpha)
	d := g.Protein("d", *dlen).Encode(alpha)
	gaps := aln.DefaultGaps()
	popt := core.PairOptions{Gaps: gaps, Traceback: *traceback}

	mch, tal := vek.NewMachine()
	var cells int64
	var wsKB float64
	switch *kernel {
	case "pair8":
		if _, err := core.AlignPair8(mch, q, d, mat, popt); err != nil {
			fatal("%v", err)
		}
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*13/1024
	case "pair16":
		if _, _, err := core.AlignPair16(mch, q, d, mat, popt); err != nil {
			fatal("%v", err)
		}
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*26/1024
	case "pair16w":
		if _, err := core.AlignPair16W(mch, q, d, mat, core.PairOptions{Gaps: gaps}); err != nil {
			fatal("%v", err)
		}
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*26/1024
	case "pair32":
		if _, err := core.AlignPair32(mch, q, d, mat, core.PairOptions{Gaps: gaps}); err != nil {
			fatal("%v", err)
		}
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*52/1024
	case "batch8", "batch16":
		db := g.Database(*dbSize)
		tables := submat.NewCodeTables(mat)
		batches := seqio.BuildBatches(db, alpha, seqio.BatchOptions{SortByLength: true})
		for _, b := range batches {
			var err error
			if *kernel == "batch8" {
				_, err = core.AlignBatch8(mch, q, tables, b, core.BatchOptions{Gaps: gaps})
			} else {
				_, err = core.AlignBatch16(mch, q, tables, b, core.BatchOptions{Gaps: gaps})
			}
			if err != nil {
				fatal("%v", err)
			}
			cells += b.Cells(*qlen)
		}
		wsKB = 64
	case "diag16":
		baselines.Diag16(mch, q, d, mat, gaps)
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*26/1024
	case "scan16":
		baselines.Scan16(mch, q, d, mat, gaps)
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*26/1024
	case "striped16":
		if _, _, err := core.AlignPair16(mch, q, d, mat, core.PairOptions{Gaps: gaps, Kernel: core.KernelStriped}); err != nil {
			fatal("%v", err)
		}
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*90/1024
	case "striped8":
		if _, err := core.AlignPair8(mch, q, d, mat, core.PairOptions{Gaps: gaps, Kernel: core.KernelStriped}); err != nil {
			fatal("%v", err)
		}
		cells, wsKB = int64(*qlen)*int64(*dlen), float64(*qlen)*45/1024
	default:
		fatal("unknown kernel %q", *kernel)
	}

	for _, arch := range resolveArchs(*archList) {
		run := perfmodel.Run{Arch: arch, Tally: tal, Cells: cells, WorkingSetKB: wsKB}
		rep := profile.Analyze(fmt.Sprintf("%s qlen=%d", *kernel, *qlen), run)
		if err := rep.Render(os.Stdout); err != nil {
			fatal("%v", err)
		}
	}
}

func resolveArchs(list string) []*isa.Arch {
	if strings.EqualFold(list, "all") {
		return isa.All()
	}
	var out []*isa.Arch
	for _, name := range strings.Split(list, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "haswell":
			out = append(out, isa.Get(isa.Haswell))
		case "broadwell":
			out = append(out, isa.Get(isa.Broadwell))
		case "skylake":
			out = append(out, isa.Get(isa.Skylake))
		case "cascadelake":
			out = append(out, isa.Get(isa.Cascadelake))
		case "alderlake":
			out = append(out, isa.Get(isa.Alderlake))
		default:
			fatal("unknown architecture %q", name)
		}
	}
	return out
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "swprofile: "+format+"\n", args...)
	os.Exit(1)
}
