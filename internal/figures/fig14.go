package figures

import (
	"fmt"

	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/isa"
	"swvec/internal/seqio"
	"swvec/internal/stats"
	"swvec/internal/vek"
)

// Headline captures the paper's abstract-level comparison: the
// geometric-mean speedup of this work over each Parasail kernel.
type Headline struct {
	VsDiag    float64
	VsScan    float64
	VsStriped float64
}

// String renders the headline like the paper's abstract.
func (h Headline) String() string {
	return fmt.Sprintf("vs diag %.1fx, vs scan %.1fx, vs striped %.1fx", h.VsDiag, h.VsScan, h.VsStriped)
}

// Fig14VsParasail reproduces Fig. 14: this work against the Parasail
// diag, scan and striped kernels, per architecture and query size,
// modeled GCUPS at one thread. The expected shape: ours fastest
// everywhere, striped the best Parasail kernel, diag the slowest
// (headline: 3.9x / 1.9x / 1.5x vs diag / scan / striped). Diag and
// scan come from internal/baselines; striped is core's KernelStriped.
func Fig14VsParasail(cfg Config) (*stats.Table, Headline) {
	w := newWorkload(cfg)
	t := &stats.Table{
		Title:   "Fig 14: this work vs Parasail diag/scan/striped (modeled GCUPS, 1 thread)",
		Headers: []string{"arch", "query_len", "ours", "diag", "scan", "striped", "vs_diag", "vs_scan", "vs_striped"},
		Note:    "ours is the 8-bit batch engine with 16-bit rescue; baselines are 16-bit Parasail-style kernels on the same vector machine",
	}

	// Per-query tallies are architecture independent: measure once.
	type meas struct {
		ours, diag, scan, striped *vek.Tally
		cells                     int64
		wsOurs                    float64
	}
	measures := make([]meas, len(w.encQ))
	for qi, q := range w.encQ {
		var m meas
		m.ours, m.cells, _ = w.searchTally(q, 0, true, w.gaps, 256)
		m.wsOurs = w.batchWorkingSetKB(0, seqio.BatchLanes)

		mchD, talD := vek.NewMachine()
		mchS, talS := vek.NewMachine()
		mchT, talT := vek.NewMachine()
		// One scratch per query: core's striped kernel builds the
		// striped profile once and serves every sequence from its cache.
		striped := core.PairOptions{Gaps: w.gaps, Kernel: core.KernelStriped, Scratch: core.NewScratch()}
		for i := range w.db {
			d := w.db[i].Encode(w.mat.Alphabet())
			baselines.Diag16(mchD, q, d, w.mat, w.gaps)
			baselines.Scan16(mchS, q, d, w.mat, w.gaps)
			if _, _, err := core.AlignPair16(mchT, q, d, w.mat, striped); err != nil {
				panic(err)
			}
		}
		m.diag, m.scan, m.striped = talD, talS, talT
		measures[qi] = m
	}

	var rDiag, rScan, rStriped []float64
	for _, arch := range isa.Evaluated() {
		for qi := range w.encQ {
			m := measures[qi]
			qlen := w.queries[qi].Len()
			// Baselines keep per-pair state: ~12 int16 arrays of qlen
			// (diag/scan) or the striped profile (32*qlen*2 bytes).
			wsPair := float64(qlen) * 26 / 1024
			gOurs := pairRunWS(arch, m.ours, m.cells, m.wsOurs).GCUPS1()
			gDiag := pairRunWS(arch, m.diag, m.cells, wsPair).GCUPS1()
			gScan := pairRunWS(arch, m.scan, m.cells, wsPair).GCUPS1()
			gStriped := pairRunWS(arch, m.striped, m.cells, wsPair+float64(qlen)*64/1024).GCUPS1()
			t.AddRow(arch.Name, qlen, gOurs, gDiag, gScan, gStriped,
				fmt.Sprintf("%.1fx", gOurs/gDiag),
				fmt.Sprintf("%.1fx", gOurs/gScan),
				fmt.Sprintf("%.1fx", gOurs/gStriped))
			rDiag = append(rDiag, gOurs/gDiag)
			rScan = append(rScan, gOurs/gScan)
			rStriped = append(rStriped, gOurs/gStriped)
		}
	}
	h := Headline{
		VsDiag:    stats.GeoMean(rDiag),
		VsScan:    stats.GeoMean(rScan),
		VsStriped: stats.GeoMean(rStriped),
	}
	t.Note += "; geomean " + h.String()
	return t, h
}

// Determinism reproduces the §IV-H robustness argument: the wavefront
// kernel's work is a pure function of the input sizes, while striped's
// lazy-F loop (core's KernelStriped at 16x16 and 8x32) and scan's
// correction pass vary with the data.
func Determinism(cfg Config) *stats.Table {
	w := newWorkload(cfg)
	t := &stats.Table{
		Title:   "Determinism (§IV-H): data-dependent correction work of the speculative kernels",
		Headers: []string{"input", "striped16_lazyF_per_col", "striped16_worst_col", "striped8_lazyF_per_col", "scan_corrections_per_col", "ours_extra"},
		Note:    "ours (wavefront) runs zero correction loops on every input; speculative kernels vary",
	}
	q := w.encQ[len(w.encQ)/2]

	inputs := []struct {
		name string
		d    []uint8
	}{
		{"random protein", w.target},
		{"homolog (gap heavy)", append(append([]uint8{}, q[:len(q)/4]...), q[3*len(q)/4:]...)},
		{"self (identical)", q},
	}
	for _, in := range inputs {
		if len(in.d) == 0 {
			continue
		}
		// Every inner lazy-F iteration of a KernelStriped call issues
		// exactly one movemask, and nothing else in the call issues one,
		// so the tally's movemask count is the iteration count.
		s := core.NewScratch()
		opt := core.PairOptions{Gaps: w.gaps, Kernel: core.KernelStriped, Scratch: s}
		mch16, tal16 := vek.NewMachine()
		if _, _, err := core.AlignPair16(mch16, q, in.d, w.mat, opt); err != nil {
			panic(err)
		}
		mch8, tal8 := vek.NewMachine()
		if _, err := core.AlignPair8(mch8, q, in.d, w.mat, opt); err != nil {
			panic(err)
		}
		_, cStats := baselines.Scan16(vek.Bare, q, in.d, w.mat, w.gaps)
		cols := float64(len(in.d))
		t.AddRow(in.name,
			fmt.Sprintf("%.2f", float64(tal16.N256[vek.OpMoveMask])/cols),
			s.LazyFWorstColumn(),
			fmt.Sprintf("%.2f", float64(tal8.N256[vek.OpMoveMask])/cols),
			fmt.Sprintf("%.2f", float64(cStats.Corrections)/float64(max(cStats.Columns, 1))),
			"0 (deterministic)")
	}
	return t
}
