package swvec

// The benchmark harness of deliverable (d): one benchmark per paper
// figure (each regenerates the figure's series via internal/figures)
// plus kernel micro-benchmarks and ablations for the design choices
// DESIGN.md calls out. Custom metrics report modeled cycles per DP
// cell on the Skylake model alongside the usual wall-clock numbers
// (the wall clock measures the emulated vector machine, not native
// SIMD).
//
// Run: go test -bench=. -benchmem .

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/cluster"
	"swvec/internal/core"
	"swvec/internal/figures"
	"swvec/internal/isa"
	"swvec/internal/perfmodel"
	"swvec/internal/sched"
	"swvec/internal/seqio"
	"swvec/internal/submat"
	"swvec/internal/vek"
)

var benchCfg = figures.Config{Quick: true}

func BenchmarkFig06_AVX2vsAVX512(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig06AVX2vsAVX512(benchCfg)
	}
}

func BenchmarkFig07_AffineGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig07AffineGap(benchCfg)
	}
}

func BenchmarkFig08_Traceback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig08Traceback(benchCfg)
	}
}

func BenchmarkFig09_SubstMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig09SubstMatrix(benchCfg)
	}
}

func BenchmarkFig10_Tuning(b *testing.B) {
	cfg := figures.Config{Quick: true, DBSize: 8, QueryLens: []int{64, 320}}
	for i := 0; i < b.N; i++ {
		figures.Fig10Tuning(cfg)
	}
}

func BenchmarkFig11_Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig11Scaling(benchCfg)
	}
}

func BenchmarkFig12_TopDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Fig12TopDown(benchCfg)
	}
}

func BenchmarkFig13_Scenarios(b *testing.B) {
	cfg := figures.Config{Quick: true, DBSize: 24, QueryLens: []int{35, 110}}
	for i := 0; i < b.N; i++ {
		figures.Fig13Scenarios(cfg)
	}
}

func BenchmarkFig14_VsParasail(b *testing.B) {
	// A larger quick database than the default so length-sorted
	// batching is representative (a single unsorted batch overstates
	// padding and understates the headline ratios).
	cfg := figures.Config{Quick: true, DBSize: 96}
	var h figures.Headline
	for i := 0; i < b.N; i++ {
		_, h = figures.Fig14VsParasail(cfg)
	}
	b.ReportMetric(h.VsDiag, "x-vs-diag")
	b.ReportMetric(h.VsScan, "x-vs-scan")
	b.ReportMetric(h.VsStriped, "x-vs-striped")
}

func BenchmarkDeterminism(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figures.Determinism(benchCfg)
	}
}

// --- kernel micro-benchmarks ---

type benchPair struct {
	q, d []uint8
	mat  *submat.Matrix
	gaps aln.Gaps
}

func newBenchPair(qlen, dlen int) benchPair {
	mat := submat.Blosum62()
	g := seqio.NewGenerator(5)
	return benchPair{
		q:    g.Protein("q", qlen).Encode(mat.Alphabet()),
		d:    g.Protein("d", dlen).Encode(mat.Alphabet()),
		mat:  mat,
		gaps: aln.DefaultGaps(),
	}
}

// reportModel attaches the modeled Skylake cycles/cell for a tally.
func reportModel(b *testing.B, tal *vek.Tally, cells int64, wsKB float64) {
	run := perfmodel.Run{Arch: isa.Get(isa.Skylake), Tally: tal, Cells: cells, WorkingSetKB: wsKB}
	b.ReportMetric(run.Cycles()/float64(cells), "modelcyc/cell")
	b.ReportMetric(run.GCUPS1(), "modelGCUPS")
}

func BenchmarkKernelScalar(b *testing.B) {
	p := newBenchPair(320, 1000)
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	for i := 0; i < b.N; i++ {
		baselines.ScalarAffine(p.q, p.d, p.mat, p.gaps)
	}
}

func BenchmarkKernelPair16(b *testing.B) {
	p := newBenchPair(320, 1000)
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		if _, _, err := core.AlignPair16(mch, p.q, p.d, p.mat, core.PairOptions{Gaps: p.gaps}); err != nil {
			b.Fatal(err)
		}
	}
	reportModel(b, tal, cells, float64(len(p.q))*26/1024)
}

func BenchmarkKernelPair16Traceback(b *testing.B) {
	p := newBenchPair(320, 1000)
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		if _, _, err := core.AlignPair16(mch, p.q, p.d, p.mat, core.PairOptions{Gaps: p.gaps, Traceback: true}); err != nil {
			b.Fatal(err)
		}
	}
	reportModel(b, tal, cells, float64(len(p.q))*29/1024)
}

func BenchmarkKernelPair16Wide(b *testing.B) {
	p := newBenchPair(320, 1000)
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		if _, err := core.AlignPair16W(mch, p.q, p.d, p.mat, core.PairOptions{Gaps: p.gaps}); err != nil {
			b.Fatal(err)
		}
	}
	reportModel(b, tal, cells, float64(len(p.q))*26/1024)
}

func BenchmarkKernelPair8Fixed(b *testing.B) {
	p := newBenchPair(320, 1000)
	fixed := submat.MatchMismatch(p.mat.Alphabet(), 2, -1)
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		if _, err := core.AlignPair8(mch, p.q, p.d, fixed, core.PairOptions{Gaps: p.gaps}); err != nil {
			b.Fatal(err)
		}
	}
	reportModel(b, tal, cells, float64(len(p.q))*13/1024)
}

func BenchmarkKernelBatch8(b *testing.B) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(6)
	db := g.Database(32)
	batch := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{SortByLength: true})[0]
	q := g.Protein("q", 320).Encode(mat.Alphabet())
	cells := batch.Cells(len(q))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		if _, err := core.AlignBatch8(mch, q, tables, batch, core.BatchOptions{Gaps: aln.DefaultGaps()}); err != nil {
			b.Fatal(err)
		}
	}
	reportModel(b, tal, cells, 64)
}

func BenchmarkKernelDiag16(b *testing.B) {
	p := newBenchPair(320, 1000)
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		baselines.Diag16(mch, p.q, p.d, p.mat, p.gaps)
	}
	reportModel(b, tal, cells, float64(len(p.q))*26/1024)
}

func BenchmarkKernelScan16(b *testing.B) {
	p := newBenchPair(320, 1000)
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		baselines.Scan16(mch, p.q, p.d, p.mat, p.gaps)
	}
	reportModel(b, tal, cells, float64(len(p.q))*26/1024)
}

func BenchmarkKernelStriped16(b *testing.B) {
	p := newBenchPair(320, 1000)
	opt := core.PairOptions{Gaps: p.gaps, Kernel: core.KernelStriped, Scratch: core.NewScratch()}
	cells := int64(len(p.q)) * int64(len(p.d))
	b.SetBytes(cells)
	mch, tal := vek.NewMachine()
	for i := 0; i < b.N; i++ {
		tal.Reset()
		if _, _, err := core.AlignPair16(mch, p.q, p.d, p.mat, opt); err != nil {
			b.Fatal(err)
		}
	}
	reportModel(b, tal, cells, float64(len(p.q))*90/1024)
}

// --- ablation benchmarks (DESIGN.md §6) ---

// ablationRatio runs the kernel twice with one option toggled and
// reports the modeled cycle ratio per architecture (off/on: >1 means
// the paper's choice wins). Skylake and Haswell bracket the
// microarchitecture range — some optimizations only matter where ports
// are scarcer.
func ablationRatio(b *testing.B, base, variant core.PairOptions) {
	p := newBenchPair(320, 1000)
	cells := int64(len(p.q)) * int64(len(p.d))
	var ratioSKX, ratioHSW float64
	for i := 0; i < b.N; i++ {
		mA, tA := vek.NewMachine()
		if _, _, err := core.AlignPair16(mA, p.q, p.d, p.mat, base); err != nil {
			b.Fatal(err)
		}
		mB, tB := vek.NewMachine()
		if _, _, err := core.AlignPair16(mB, p.q, p.d, p.mat, variant); err != nil {
			b.Fatal(err)
		}
		ws := float64(len(p.q)) * 26 / 1024
		ratio := func(arch *isa.Arch) float64 {
			cA := perfmodel.Run{Arch: arch, Tally: tA, Cells: cells, WorkingSetKB: ws}.Cycles()
			cB := perfmodel.Run{Arch: arch, Tally: tB, Cells: cells, WorkingSetKB: ws}.Cycles()
			return cB / cA
		}
		ratioSKX = ratio(isa.Get(isa.Skylake))
		ratioHSW = ratio(isa.Get(isa.Haswell))
	}
	b.ReportMetric(ratioSKX, "skx-ratio-off/on")
	b.ReportMetric(ratioHSW, "hsw-ratio-off/on")
}

func BenchmarkAblationDiagonalVsRowMajor(b *testing.B) {
	g := aln.DefaultGaps()
	ablationRatio(b, core.PairOptions{Gaps: g}, core.PairOptions{Gaps: g, RowMajorLayout: true})
}

func BenchmarkAblationDeferredVsEagerMax(b *testing.B) {
	g := aln.DefaultGaps()
	ablationRatio(b, core.PairOptions{Gaps: g}, core.PairOptions{Gaps: g, EagerMax: true})
}

// BenchmarkAblationDeferredVsEagerMaxBatch runs the §III-D ablation on
// the ALU-bound batch engine, where the per-vector reduction is not
// hidden by a load bottleneck — the setting where deferring pays.
func BenchmarkAblationDeferredVsEagerMaxBatch(b *testing.B) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(9)
	db := g.Database(32)
	batch := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{SortByLength: true})[0]
	q := g.Protein("q", 320).Encode(mat.Alphabet())
	cells := batch.Cells(len(q))
	arch := isa.Get(isa.Skylake)
	var ratio float64
	for i := 0; i < b.N; i++ {
		mD, tD := vek.NewMachine()
		if _, err := core.AlignBatch8(mD, q, tables, batch, core.BatchOptions{Gaps: aln.DefaultGaps()}); err != nil {
			b.Fatal(err)
		}
		mE, tE := vek.NewMachine()
		if _, err := core.AlignBatch8(mE, q, tables, batch, core.BatchOptions{Gaps: aln.DefaultGaps(), EagerMax: true}); err != nil {
			b.Fatal(err)
		}
		cD := perfmodel.Run{Arch: arch, Tally: tD, Cells: cells, WorkingSetKB: 64}.Cycles()
		cE := perfmodel.Run{Arch: arch, Tally: tE, Cells: cells, WorkingSetKB: 64}.Cycles()
		ratio = cE / cD
	}
	b.ReportMetric(ratio, "skx-ratio-eager/deferred")
}

func BenchmarkAblationPadTailVsScalarTail(b *testing.B) {
	g := aln.DefaultGaps()
	ablationRatio(b, core.PairOptions{Gaps: g}, core.PairOptions{Gaps: g, ScalarTail: true})
}

// BenchmarkAblationProfileVsGather8Bit contrasts the 8-bit pair
// kernel's scalar profile assembly with the batch engine's shuffle
// scoring — the §III-C motivation for database batching.
func BenchmarkAblationProfileVsGather8Bit(b *testing.B) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(7)
	db := g.Database(32)
	batch := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{SortByLength: true})[0]
	q := g.Protein("q", 320).Encode(mat.Alphabet())
	arch := isa.Get(isa.Skylake)
	var ratio float64
	for i := 0; i < b.N; i++ {
		mP, tP := vek.NewMachine()
		d := db[0].Encode(mat.Alphabet())
		if _, err := core.AlignPair8(mP, q, d, mat, core.PairOptions{Gaps: aln.DefaultGaps()}); err != nil {
			b.Fatal(err)
		}
		pairCells := int64(len(q)) * int64(len(d))
		mB, tB := vek.NewMachine()
		if _, err := core.AlignBatch8(mB, q, tables, batch, core.BatchOptions{Gaps: aln.DefaultGaps()}); err != nil {
			b.Fatal(err)
		}
		batchCells := int64(len(q)) * int64(batch.MaxLen) * int64(batch.Count)
		cP := perfmodel.Run{Arch: arch, Tally: tP, Cells: pairCells, WorkingSetKB: 8}.Cycles() / float64(pairCells)
		cB := perfmodel.Run{Arch: arch, Tally: tB, Cells: batchCells, WorkingSetKB: 64}.Cycles() / float64(batchCells)
		ratio = cP / cB
	}
	b.ReportMetric(ratio, "x-batch-vs-pair8")
}

// BenchmarkAblationBatchBlockCols sweeps the batch engine's block
// size, the knob §IV-I wants an autotuner for.
func BenchmarkAblationBatchBlockCols(b *testing.B) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	g := seqio.NewGenerator(8)
	db := g.Database(32)
	batch := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{SortByLength: true})[0]
	q := g.Protein("q", 320).Encode(mat.Alphabet())
	for i := 0; i < b.N; i++ {
		for _, cols := range []int{0, 32, 128, 512} {
			if _, err := core.AlignBatch8(vek.Bare, q, tables, batch, core.BatchOptions{Gaps: aln.DefaultGaps(), BlockCols: cols}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// searchBenchConfigs enumerates the backend × vector-width × kernel
// points the search benchmarks record. The sub-benchmark name carries
// every field so BENCH_ci.json entries are self-describing and
// comparable across PRs (the pre-backend baseline corresponds to
// backend=modeled/width=256/kernel=auto). The native backend has one
// kernel, native.Pair32, so it has no forced-kernel rows; its width
// only sets how many sequences a batch holds.
var searchBenchConfigs = []struct {
	name    string
	backend Backend
	width   int
	kernel  Kernel
}{
	{"backend=modeled/width=256/kernel=auto", BackendModeled, 256, KernelAuto},
	{"backend=native/width=256/kernel=auto", BackendNative, 256, KernelAuto},
	{"backend=native/width=512/kernel=auto", BackendNative, 512, KernelAuto},
}

// searchBenchQueryLens are the query classes the search benchmarks
// sweep: one short query and one long one.
var searchBenchQueryLens = []int{200, 1200}

// BenchmarkSearchEndToEnd measures the public API's database search on
// the host, per query class, execution backend, vector width, and
// kernel family. On the modeled backend the wall clock measures the
// emulated vector machine; on the native backend it measures the
// compiled serving kernels.
func BenchmarkSearchEndToEnd(b *testing.B) {
	db := GenerateDatabase(9, 64)
	for _, qlen := range searchBenchQueryLens {
		query := seqio.NewGenerator(9).Protein("q", qlen).Residues
		for _, cfg := range searchBenchConfigs {
			b.Run(fmt.Sprintf("qlen=%d/%s", qlen, cfg.name), func(b *testing.B) {
				al, err := New(WithLengthSortedBatches(),
					WithBackend(cfg.backend), WithVectorWidth(cfg.width), WithKernel(cfg.kernel))
				if err != nil {
					b.Fatal(err)
				}
				var cells int64
				for i := 0; i < b.N; i++ {
					res, err := al.Search(query, db)
					if err != nil {
						b.Fatal(err)
					}
					cells = res.Cells
				}
				b.SetBytes(cells)
			})
		}
	}
}

// BenchmarkKernelBatch8Scratch is the steady-state allocation check
// for the 8-bit batch engine at both vector widths: with a warm
// per-worker scratch arena the per-batch allocation count must be
// zero, whether the generic kernel runs 32 or 64 lanes.
func BenchmarkKernelBatch8Scratch(b *testing.B) {
	mat := submat.Blosum62()
	tables := submat.NewCodeTables(mat)
	for _, bw := range []struct {
		name  string
		lanes int
	}{{"256", seqio.BatchLanes}, {"512", seqio.MaxBatchLanes}} {
		b.Run(bw.name, func(b *testing.B) {
			g := seqio.NewGenerator(6)
			db := g.Database(bw.lanes)
			batch := seqio.BuildBatches(db, mat.Alphabet(), seqio.BatchOptions{SortByLength: true, Lanes: bw.lanes})[0]
			q := g.Protein("q", 320).Encode(mat.Alphabet())
			b.SetBytes(batch.Cells(len(q)))
			opt := core.BatchOptions{Gaps: aln.DefaultGaps(), Scratch: core.NewScratch()}
			if _, err := core.AlignBatch8(vek.Bare, q, tables, batch, opt); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.AlignBatch8(vek.Bare, q, tables, batch, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearchPipeline measures the streaming search on the
// standard 2000-sequence database (the tentpole's GCUPS acceptance
// workload), per query class and kernel family. MB/s is cell updates
// per second / 1e6; allocs/op shows the whole-pipeline allocation
// budget, which no longer scales with per-batch work.
func BenchmarkSearchPipeline(b *testing.B) {
	db := GenerateDatabase(1, 2000)
	for _, qlen := range searchBenchQueryLens {
		query := seqio.NewGenerator(1).Protein("q", qlen).Residues
		for _, cfg := range searchBenchConfigs {
			b.Run(fmt.Sprintf("qlen=%d/%s", qlen, cfg.name), func(b *testing.B) {
				al, err := New(WithLengthSortedBatches(),
					WithBackend(cfg.backend), WithVectorWidth(cfg.width), WithKernel(cfg.kernel))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				var cells int64
				for i := 0; i < b.N; i++ {
					res, err := al.Search(query, db)
					if err != nil {
						b.Fatal(err)
					}
					cells = res.Cells
				}
				b.SetBytes(cells)
			})
		}
	}
}

// startCannedShard serves the wire protocol on an ephemeral port with
// a fixed per-shard hit list: the scatter benchmark measures the
// router's fan-out, merge, and health-gating overhead, not the
// alignment the real swserver would run behind the socket.
func startCannedShard(b *testing.B, hits []cluster.Hit) string {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				sc := bufio.NewScanner(c)
				enc := json.NewEncoder(c)
				for sc.Scan() {
					var req cluster.Request
					if json.Unmarshal(sc.Bytes(), &req) != nil {
						return
					}
					resp := cluster.Response{ID: req.ID}
					if req.Type != cluster.TypePing {
						resp.Hits = hits
					}
					if enc.Encode(resp) != nil {
						return
					}
				}
			}(conn)
		}
	}()
	b.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// BenchmarkSearchScatter measures the cluster routing layer's
// per-query cost — dial, fan-out, per-replica admission, and global
// top-K merge — over canned shard endpoints. The per-slice answers are
// real top-K lists computed once by the local pipeline, so the merge
// works on representative data; replicas=1 is the single-copy path
// and replicas=2 prices the replicated admission walk. No prober runs:
// it pings off the query path, and these canned shards never fail.
func BenchmarkSearchScatter(b *testing.B) {
	const shards, topK = 3, 5
	db := GenerateDatabase(42, 512)
	query := seqio.NewGenerator(7).Protein("q", 200).Residues
	al, err := New()
	if err != nil {
		b.Fatal(err)
	}
	parts := cluster.NewShardMap(shards).Partition(db)
	canned := make([][]cluster.Hit, shards)
	for s, part := range parts {
		res, err := al.Search(query, part)
		if err != nil {
			b.Fatal(err)
		}
		top := sched.TopK(res.Hits, topK)
		hits := make([]cluster.Hit, len(top))
		for i, h := range top {
			hits[i] = cluster.Hit{SeqID: part[h.SeqIndex].ID, Score: h.Score}
		}
		canned[s] = hits
	}
	for _, replicas := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d/replicas=%d", shards, replicas), func(b *testing.B) {
			groups := make([][]string, shards)
			for s := 0; s < shards; s++ {
				for r := 0; r < replicas; r++ {
					groups[s] = append(groups[s], startCannedShard(b, canned[s]))
				}
			}
			pool := cluster.NewReplicatedPool(groups, cluster.NewIndex(db), cluster.Policy{
				Timeout:         5 * time.Second,
				Retries:         1,
				RetryBase:       time.Millisecond,
				RetryMax:        5 * time.Millisecond,
				BreakerFailures: 3,
				BreakerCooldown: 100 * time.Millisecond,
			})
			b.Cleanup(pool.Close)
			req := cluster.Request{ID: "bench", Residues: string(query), Top: topK}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits, rep, err := pool.Scatter(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Partial() {
					b.Fatalf("scatter went partial: %+v", rep)
				}
				if len(hits) != topK {
					b.Fatalf("got %d hits, want %d", len(hits), topK)
				}
			}
		})
	}
}

// BenchmarkBackends compares the modeled vector machine with the native
// backend on identical pair and batch workloads at both register
// widths. Wall clock is the comparison that matters: the modeled rows
// price the interpreter the serving path no longer pays, the native
// rows are what swserver actually runs — native.Pair32 for every
// entry point, one lane at a time for the batch ones. A kernel family
// is a modeled-backend choice, so native has only the diagonal rows.
func BenchmarkBackends(b *testing.B) {
	p := newBenchPair(320, 1000)
	fixed := submat.MatchMismatch(p.mat.Alphabet(), 2, -1)
	pairCells := int64(len(p.q)) * int64(len(p.d))
	tables := submat.NewCodeTables(p.mat)
	g := seqio.NewGenerator(6)
	q := g.Protein("bq", 320).Encode(p.mat.Alphabet())
	batch256 := seqio.BuildBatches(g.Database(seqio.BatchLanes), p.mat.Alphabet(),
		seqio.BatchOptions{SortByLength: true, Lanes: seqio.BatchLanes})[0]
	batch512 := seqio.BuildBatches(g.Database(seqio.MaxBatchLanes), p.mat.Alphabet(),
		seqio.BatchOptions{SortByLength: true, Lanes: seqio.MaxBatchLanes})[0]

	cases := []struct {
		stage   string
		width   int
		cells   int64
		striped bool // has a striped-family variant (affine, score-only)
		run     func(m vek.Machine, po core.PairOptions, bo core.BatchOptions) error
	}{
		{"pair8", 256, pairCells, true, func(m vek.Machine, po core.PairOptions, _ core.BatchOptions) error {
			_, err := core.AlignPair8(m, p.q, p.d, fixed, po)
			return err
		}},
		{"pair8", 512, pairCells, true, func(m vek.Machine, po core.PairOptions, _ core.BatchOptions) error {
			_, err := core.AlignPair8W(m, p.q, p.d, fixed, po)
			return err
		}},
		{"pair16", 256, pairCells, true, func(m vek.Machine, po core.PairOptions, _ core.BatchOptions) error {
			_, _, err := core.AlignPair16(m, p.q, p.d, p.mat, po)
			return err
		}},
		{"pair16", 512, pairCells, true, func(m vek.Machine, po core.PairOptions, _ core.BatchOptions) error {
			_, err := core.AlignPair16W(m, p.q, p.d, p.mat, po)
			return err
		}},
		{"pair32", 256, pairCells, false, func(m vek.Machine, po core.PairOptions, _ core.BatchOptions) error {
			_, err := core.AlignPair32(m, p.q, p.d, p.mat, po)
			return err
		}},
		{"batch8", 256, batch256.Cells(len(q)), true, func(m vek.Machine, _ core.PairOptions, bo core.BatchOptions) error {
			_, err := core.AlignBatch8(m, q, tables, batch256, bo)
			return err
		}},
		{"batch8", 512, batch512.Cells(len(q)), true, func(m vek.Machine, _ core.PairOptions, bo core.BatchOptions) error {
			_, err := core.AlignBatch8(m, q, tables, batch512, bo)
			return err
		}},
		{"batch16", 256, batch256.Cells(len(q)), true, func(m vek.Machine, _ core.PairOptions, bo core.BatchOptions) error {
			_, err := core.AlignBatch16(m, q, tables, batch256, bo)
			return err
		}},
		{"batch16", 512, batch512.Cells(len(q)), true, func(m vek.Machine, _ core.PairOptions, bo core.BatchOptions) error {
			_, err := core.AlignBatch16(m, q, tables, batch512, bo)
			return err
		}},
	}

	for _, be := range []core.Backend{core.BackendModeled, core.BackendNative} {
		mch := vek.Bare
		if be == core.BackendModeled {
			mch, _ = vek.NewMachine()
		}
		scratch := core.NewScratch()
		for _, kern := range []core.Kernel{core.KernelDiagonal, core.KernelStriped, core.KernelLazyF} {
			popt := core.PairOptions{Gaps: aln.DefaultGaps(), Backend: be, Scratch: scratch, Kernel: kern}
			bopt := core.BatchOptions{Gaps: aln.DefaultGaps(), Backend: be, Scratch: scratch, Kernel: kern}
			for _, c := range cases {
				if kern.Striped() && (!c.striped || be == core.BackendNative) {
					continue
				}
				b.Run(fmt.Sprintf("%s/backend=%s/width=%d/kernel=%s", c.stage, be, c.width, kern), func(b *testing.B) {
					b.SetBytes(c.cells)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if err := c.run(mch, popt, bopt); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
