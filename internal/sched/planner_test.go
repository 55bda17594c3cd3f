package sched

import (
	"testing"

	"swvec/internal/aln"
	"swvec/internal/baselines"
	"swvec/internal/core"
	"swvec/internal/seqio"
)

// TestPlannerDecisions pins the kernel resolution table: every row is
// one search configuration and the family it must resolve to. A family
// is a modeled-backend choice; native resolves to KernelAuto whatever
// was asked.
func TestPlannerDecisions(t *testing.T) {
	costly := aln.Gaps{Open: 20, Extend: 1}
	cheap := aln.Gaps{Open: 2, Extend: 1}
	modeled := core.BackendModeled
	cases := []struct {
		name string
		opt  Options
		want core.Kernel
	}{
		{"explicit-diagonal", Options{Gaps: costly, Kernel: core.KernelDiagonal, Backend: modeled}, core.KernelDiagonal},
		{"explicit-striped", Options{Gaps: cheap, Kernel: core.KernelStriped, Backend: modeled}, core.KernelStriped},
		{"explicit-lazyf", Options{Gaps: costly, Kernel: core.KernelLazyF, Backend: modeled}, core.KernelLazyF},
		{"explicit-wins-over-instrument", Options{Gaps: costly, Kernel: core.KernelLazyF, Instrument: true}, core.KernelLazyF},
		{"instrumented-stays-diagonal", Options{Gaps: costly, Instrument: true}, core.KernelDiagonal},
		{"modeled-stays-diagonal", Options{Gaps: costly, Backend: modeled}, core.KernelDiagonal},
		{"linear-stays-diagonal", Options{Gaps: aln.Linear(2), Backend: modeled}, core.KernelDiagonal},
		{"native-auto", Options{Gaps: costly}, core.KernelAuto},
		{"native-ignores-explicit-striped", Options{Gaps: costly, Kernel: core.KernelStriped}, core.KernelAuto},
		{"native-instrumented-ignores-explicit-lazyf", Options{Gaps: cheap, Kernel: core.KernelLazyF, Backend: core.BackendNative, Instrument: true}, core.KernelAuto},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.opt.kernel(c.opt.backend()); got != c.want {
				t.Fatalf("kernel(%+v) = %v, want %v", c.opt, got, c.want)
			}
		})
	}
}

// TestSearchReportsPlannedKernel runs real searches and checks that
// Result.Kernel reflects the resolved family and that the family
// really ran: a modeled search's operation tally differs from an
// instrumented diagonal search's for striped and lazyf and matches it
// for diagonal. Native searches report KernelAuto and return the
// default native search's scores even when a family is forced.
func TestSearchReportsPlannedKernel(t *testing.T) {
	g := seqio.NewGenerator(404)
	db := g.Database(6)
	longQ := g.Protein("q", 464).Encode(protAlpha)
	shortQ := g.Protein("s", 60).Encode(protAlpha)
	costly := aln.Gaps{Open: 20, Extend: 1}
	cheap := aln.Gaps{Open: 2, Extend: 1}
	modeled := core.BackendModeled

	cases := []struct {
		name  string
		query []uint8
		opt   Options
		want  core.Kernel
	}{
		{"auto-long-costly", longQ, Options{Gaps: costly, Threads: 2, Backend: modeled}, core.KernelDiagonal},
		{"auto-long-cheap", longQ, Options{Gaps: cheap, Threads: 2, Backend: modeled}, core.KernelDiagonal},
		{"auto-short", shortQ, Options{Gaps: costly, Threads: 2}, core.KernelAuto},
		{"forced-diagonal", shortQ, Options{Gaps: costly, Threads: 2, Kernel: core.KernelDiagonal, Backend: modeled}, core.KernelDiagonal},
		{"forced-striped", shortQ, Options{Gaps: costly, Threads: 2, Kernel: core.KernelStriped, Backend: modeled}, core.KernelStriped},
		{"forced-lazyf", shortQ, Options{Gaps: cheap, Threads: 2, Kernel: core.KernelLazyF, Backend: modeled}, core.KernelLazyF},
		{"native-forced-striped", longQ, Options{Gaps: costly, Threads: 2, Kernel: core.KernelStriped}, core.KernelAuto},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := Search(c.query, db, b62, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kernel != c.want {
				t.Fatalf("Result.Kernel = %v, want %v", res.Kernel, c.want)
			}
			// Scores must not depend on the plan.
			for i, h := range res.Hits {
				want := baselines.ScalarAffine(c.query, db[i].Encode(protAlpha), b62, c.opt.Gaps).Score
				if h.Score != want {
					t.Fatalf("seq %d: score %d, want %d", i, h.Score, want)
				}
			}
			if c.want == core.KernelAuto {
				// Native: the default search's scores.
				def := c.opt
				def.Kernel = core.KernelAuto
				base, err := Search(c.query, db, b62, def)
				if err != nil {
					t.Fatal(err)
				}
				for i := range res.Hits {
					if res.Hits[i] != base.Hits[i] {
						t.Fatalf("seq %d: %+v, default native search %+v", i, res.Hits[i], base.Hits[i])
					}
				}
				return
			}
			if c.opt.Kernel == core.KernelAuto {
				return
			}
			// A forced family is witnessed by the work it did, not by
			// what Result.Kernel says: the striped families issue a
			// different instruction mix from the diagonal engines.
			inst := c.opt
			inst.Instrument = true
			got, err := Search(c.query, db, b62, inst)
			if err != nil {
				t.Fatal(err)
			}
			diag := inst
			diag.Kernel = core.KernelDiagonal
			ref, err := Search(c.query, db, b62, diag)
			if err != nil {
				t.Fatal(err)
			}
			if same := *got.Tally == *ref.Tally; same != (c.want == core.KernelDiagonal) {
				t.Fatalf("%v search tally equal to the diagonal search's: %v, want %v", c.want, same, c.want == core.KernelDiagonal)
			}
		})
	}
}

// TestInstrumentedSearchStaysDiagonal guards the figure apparatus: an
// instrumented Auto search must run (and tally) the modeled diagonal
// kernels.
func TestInstrumentedSearchStaysDiagonal(t *testing.T) {
	g := seqio.NewGenerator(405)
	db := g.Database(12)
	query := g.Protein("q", 424).Encode(protAlpha)
	res, err := Search(query, db, b62, Options{
		Gaps: aln.Gaps{Open: 20, Extend: 1}, Threads: 1, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != core.KernelDiagonal {
		t.Fatalf("instrumented search planned %v, want diagonal", res.Kernel)
	}
	if res.Tally == nil || res.Tally.Total() == 0 {
		t.Fatal("instrumented search produced no operation tally")
	}
}
