package figures

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Quick: true, DBSize: 96, QueryLens: []int{35, 110}, PairTargetLen: 300}

// parseX extracts the float from a "1.8x" cell.
func parseX(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q: %v", s, err)
	}
	return v
}

func TestFig06Shape(t *testing.T) {
	tb := Fig06AVX2vsAVX512(quick)
	if len(tb.Rows) != len(quick.QueryLens)+1 {
		t.Fatalf("rows = %d, want %d (queries + streaming search)", len(tb.Rows), len(quick.QueryLens)+1)
	}
	// The Fig. 6 finding: AVX512 lands well below the naive 2x — on
	// small queries it can even lose to AVX2 (downclocking plus masked
	// tails), and it never approaches doubling. The streaming-search
	// row runs the whole pipeline at 512 bits: there the ALU-bound
	// batch engine sits exactly where port fusion eats the width, and
	// a database that doesn't fill the 64-lane batches adds padding, so
	// 512 may lose outright — but must neither collapse nor win big.
	for _, row := range tb.Rows {
		lo, hi := 0.8, 2.0
		if strings.HasPrefix(row[0], "search(") {
			lo, hi = 0.45, 1.2
		}
		for _, col := range []int{3, 6} {
			sp := parseX(t, row[col])
			if sp <= lo || sp >= hi {
				t.Errorf("AVX512 speedup %.2f outside (%.2f, %.2f): row %v", sp, lo, hi, row)
			}
		}
	}
}

func TestFig07Shape(t *testing.T) {
	tb := Fig07AffineGap(quick)
	// Affine must be within 40% of linear on every arch (the "no
	// noticeable drop" finding).
	for _, row := range tb.Rows {
		for c := 1; c+1 < len(row); c += 2 {
			aff, _ := strconv.ParseFloat(row[c], 64)
			lin, _ := strconv.ParseFloat(row[c+1], 64)
			if aff > lin {
				continue // affine faster is fine
			}
			if (lin-aff)/lin > 0.40 {
				t.Errorf("affine %.2f vs linear %.2f: drop too large (row %v)", aff, lin, row)
			}
		}
	}
}

func TestFig08Shape(t *testing.T) {
	tb := Fig08Traceback(quick)
	for _, row := range tb.Rows {
		for c := 2; c+1 < len(row); c += 2 {
			noTB, _ := strconv.ParseFloat(row[c], 64)
			withTB, _ := strconv.ParseFloat(row[c+1], 64)
			if withTB > noTB {
				continue
			}
			if (noTB-withTB)/noTB > 0.35 {
				t.Errorf("traceback drop too large: %.2f -> %.2f", noTB, withTB)
			}
		}
	}
}

func TestFig09Shape(t *testing.T) {
	tb := Fig09SubstMatrix(quick)
	// Fixed scores must beat the gather path on every architecture.
	for _, row := range tb.Rows {
		for c := 1; c+1 < len(row); c += 2 {
			sub, _ := strconv.ParseFloat(row[c], 64)
			fix, _ := strconv.ParseFloat(row[c+1], 64)
			if fix <= sub {
				t.Errorf("fixed scores %.2f should beat submat %.2f (row %v)", fix, sub, row)
			}
		}
	}
}

func TestFig10Improvement(t *testing.T) {
	tb := Fig10Tuning(Config{Quick: true, DBSize: 8, QueryLens: []int{64, 320}, PairTargetLen: 300})
	if len(tb.Rows) != 4*2 {
		t.Fatalf("rows = %d, want 8 (4 archs x 2 query sizes)", len(tb.Rows))
	}
	anyGain := false
	for _, row := range tb.Rows {
		imp, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(row[4], "+"), "%"), 64)
		if err != nil {
			t.Fatalf("bad improvement cell %q", row[4])
		}
		if imp < -0.001 {
			t.Errorf("tuning regressed: %s", row[4])
		}
		if imp > 0.5 {
			anyGain = true
		}
	}
	if !anyGain {
		t.Error("tuning found no gains anywhere; fitness landscape looks flat")
	}
}

func TestFig11Shape(t *testing.T) {
	tb := Fig11Scaling(quick)
	// For each arch, raw speedup at the last single-socket row must be
	// sub-linear and the recalibrated one near-linear; HT adds more.
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	var prevArch string
	var lastGCUPS float64
	for _, row := range tb.Rows {
		if row[0] != prevArch {
			prevArch = row[0]
			lastGCUPS = 0
		}
		g, _ := strconv.ParseFloat(row[3], 64)
		if g < lastGCUPS {
			t.Errorf("%s: GCUPS fell from %.2f to %.2f as threads grew", row[0], lastGCUPS, g)
		}
		lastGCUPS = g
	}
}

func TestFig12Shape(t *testing.T) {
	tabs := Fig12TopDown(quick)
	if len(tabs) != 3 {
		t.Fatalf("tables = %d", len(tabs))
	}
	a := tabs[0]
	if len(a.Rows) != 2 {
		t.Fatalf("fig12a rows = %d", len(a.Rows))
	}
	if a.Rows[0][7] != "core bound" {
		t.Errorf("with-submat verdict = %q, want core bound", a.Rows[0][7])
	}
	// Memory-bound share: >= ~8% in both scenarios, larger without.
	memWith := parsePct(t, a.Rows[0][5])
	memWithout := parsePct(t, a.Rows[1][5])
	if memWith < 0.04 {
		t.Errorf("memory share with submat %.3f too small", memWith)
	}
	if memWithout <= memWith {
		t.Errorf("memory share without submat (%.3f) should exceed with (%.3f)", memWithout, memWith)
	}
	// 12b: efficiency rises in the HT region.
	b := tabs[1]
	first := parsePct(t, b.Rows[0][1])
	last := parsePct(t, b.Rows[len(b.Rows)-1][1])
	if last <= first {
		t.Errorf("HT slot efficiency %.3f should exceed single-thread %.3f", last, first)
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percent cell %q", s)
	}
	return v / 100
}

func TestFig13Runs(t *testing.T) {
	tb := Fig13Scenarios(quick)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		cells, _ := strconv.ParseFloat(row[1], 64)
		if cells <= 0 {
			t.Errorf("scenario %q has no cells", row[0])
		}
	}
}

func TestFig14HeadlineShape(t *testing.T) {
	tb, h := Fig14VsParasail(quick)
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	// The paper's ordering: diag slowest, then scan, then striped;
	// ours fastest.
	if !(h.VsDiag > h.VsScan && h.VsScan > h.VsStriped) {
		t.Errorf("speedup ordering wrong: %s", h)
	}
	if h.VsStriped <= 1.0 {
		t.Errorf("ours should beat striped: %s", h)
	}
	if h.VsDiag < 2.0 || h.VsDiag > 8.0 {
		t.Errorf("vs diag %.1fx implausibly far from the paper's 3.9x", h.VsDiag)
	}
	if h.VsScan < 1.2 || h.VsScan > 4.0 {
		t.Errorf("vs scan %.1fx implausibly far from the paper's 1.9x", h.VsScan)
	}
	if h.VsStriped < 1.05 || h.VsStriped > 3.0 {
		t.Errorf("vs striped %.1fx implausibly far from the paper's 1.5x", h.VsStriped)
	}
}

// TestDeterminismTable pins the §IV-H table of `swbench -quick -fig
// det` cell by cell: striped16 lazy-F iterations per column, its worst
// column, striped8 iterations per column, and scan corrections per
// column. The rates differ across inputs, which is the data dependence
// the table exists to show.
func TestDeterminismTable(t *testing.T) {
	tb := Determinism(Config{Quick: true})
	want := [][]string{
		{"random protein", "10.22", "26", "12.02", "1.00"},
		{"homolog (gap heavy)", "49.69", "92", "54.93", "4.27"},
		{"self (identical)", "44.93", "92", "55.82", "3.46"},
	}
	if len(tb.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(want))
	}
	for i, w := range want {
		if got := tb.Rows[i][:len(w)]; !slices.Equal(got, w) {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
}

func TestPortabilityTable(t *testing.T) {
	tb := Portability(quick)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 architectures", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		g256, _ := strconv.ParseFloat(row[3], 64)
		g512, _ := strconv.ParseFloat(row[4], 64)
		// The portability conclusion: the AVX-512 build never wins
		// meaningfully anywhere — on AVX2-only machines it double-pumps
		// and on AVX-512 machines the license/port costs eat the width.
		ratio := g512 / g256
		if ratio > 1.15 {
			t.Errorf("%s: the 512 build should not meaningfully win (ratio %.2f)", row[0], ratio)
		}
		if ratio < 0.6 {
			t.Errorf("%s: the 512 build should not collapse (ratio %.2f)", row[0], ratio)
		}
		batch, _ := strconv.ParseFloat(row[2], 64)
		if batch <= g256 {
			t.Errorf("%s: batch engine (%.2f) should beat the pair kernel (%.2f)", row[0], batch, g256)
		}
	}
}

func TestMemoryAnalysisTable(t *testing.T) {
	tb := MemoryAnalysis(quick)
	if len(tb.Rows) < 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Cache-resident rows stay CPU bound; the DRAM row flips or at
	// least maximizes the memory share; GCUPS must not increase as the
	// working set grows.
	if !strings.HasPrefix(tb.Rows[0][6], "CPU bound") {
		t.Errorf("L1-resident run should be CPU bound, got %q", tb.Rows[0][6])
	}
	var prevG float64 = 1e18
	var prevMem float64 = -1
	for _, row := range tb.Rows {
		g, _ := strconv.ParseFloat(row[2], 64)
		if g > prevG+1e-9 {
			t.Errorf("GCUPS rose with a larger working set: %v", row)
		}
		prevG = g
		mem := parsePct(t, row[4])
		if mem < prevMem-1e-9 {
			t.Errorf("memory share fell with a larger working set: %v", row)
		}
		prevMem = mem
	}
	last := tb.Rows[len(tb.Rows)-1]
	if parsePct(t, last[4]) <= parsePct(t, tb.Rows[0][4]) {
		t.Error("DRAM-scale run should be markedly more memory bound than L1")
	}
}
