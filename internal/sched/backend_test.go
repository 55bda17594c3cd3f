package sched

import (
	"testing"

	"swvec/internal/aln"
	"swvec/internal/core"
	"swvec/internal/metrics"
	"swvec/internal/seqio"
	"swvec/internal/submat"
)

// coreGlobalProfileHits reads the process-wide profile-cache counter.
func coreGlobalProfileHits() int64 { return metrics.Global.ProfileCacheHits.Load() }

// escalationMat is the matrix the escalation workloads run under: two
// matching residues saturate 8 bits, and a 400-residue self-hit scores
// 120*400 = 48000, past int16.
var escalationMat = submat.MatchMismatch(protAlpha, 120, -60)

// escalationDB builds a workload that exercises the full saturation
// ladder through the modeled streaming pipeline under escalationMat:
// the random sequences saturate the 8-bit stage and are rescued at 16
// bits, and the self-hit and its mutated homolog overflow int16 and
// escalate to the 32-bit pair kernel.
func escalationDB(t *testing.T, seed int64) ([]seqio.Sequence, []uint8) {
	g := seqio.NewGenerator(seed)
	db := g.Database(20)
	query := g.Protein("q", 400)
	db = append(db, g.Related(query, "homolog", 0.10, 0.02))
	db = append(db, query)
	return db, query.Encode(protAlpha)
}

// TestSearchBackendEquivalence is the end-to-end seam check: the same
// search must produce identical scores and TopHits order on the
// modeled machine, which climbs its saturation ladder to 32 bits, and
// on the native backend, which scores every lane exactly on the first
// pass and so never saturates or rescues, at both vector widths.
func TestSearchBackendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("long escalation workload")
	}
	db, query := escalationDB(t, 401)
	mat := escalationMat
	for _, width := range []int{256, 512} {
		mod, err := Search(query, db, mat, Options{
			Gaps: aln.DefaultGaps(), Threads: 4, Width: width, Backend: core.BackendModeled})
		if err != nil {
			t.Fatal(err)
		}
		if mod.Stats.Saturated8 == 0 {
			t.Fatal("setup failure: no 8-bit saturation")
		}
		if mod.Stats.Pairs32 == 0 {
			t.Fatal("setup failure: no 32-bit escalation")
		}
		nat, err := Search(query, db, mat, Options{
			Gaps: aln.DefaultGaps(), Threads: 4, Width: width, Backend: core.BackendNative})
		if err != nil {
			t.Fatal(err)
		}
		if len(mod.Hits) != len(nat.Hits) {
			t.Fatalf("width %d: hit counts differ", width)
		}
		for i := range mod.Hits {
			if mod.Hits[i].Score != nat.Hits[i].Score {
				t.Errorf("width %d seq %d: modeled %+v, native %+v",
					width, i, mod.Hits[i], nat.Hits[i])
			}
			if nat.Hits[i].Rescued {
				t.Errorf("width %d seq %d: native hit marked Rescued", width, i)
			}
		}
		modTop, natTop := mod.TopHits(len(db)), nat.TopHits(len(db))
		for i := range modTop {
			if modTop[i].SeqIndex != natTop[i].SeqIndex {
				t.Fatalf("width %d: TopHits rank %d: modeled seq %d, native seq %d",
					width, i, modTop[i].SeqIndex, natTop[i].SeqIndex)
			}
		}
		if nat.Stats.Saturated8 != 0 || nat.Rescued != 0 {
			t.Errorf("width %d: native search saturated (sat8=%d, rescued=%d)",
				width, nat.Stats.Saturated8, nat.Rescued)
		}
	}
}

// TestBackendResolution pins the Auto policy: native for plain
// searches, modeled whenever instruction tallies are requested.
func TestBackendResolution(t *testing.T) {
	cases := []struct {
		opt  Options
		want core.Backend
	}{
		{Options{}, core.BackendNative},
		{Options{Instrument: true}, core.BackendModeled},
		{Options{Backend: core.BackendModeled}, core.BackendModeled},
		{Options{Backend: core.BackendNative, Instrument: true}, core.BackendNative},
	}
	for i, c := range cases {
		if got := c.opt.backend(); got != c.want {
			t.Errorf("case %d: backend() = %v, want %v", i, got, c.want)
		}
	}
}

// TestSearchInstrumentedStaysModeled guards the figure pipeline: an
// instrumented search must keep producing non-empty tallies (the
// native kernels cannot count modeled instructions).
func TestSearchInstrumentedStaysModeled(t *testing.T) {
	g := seqio.NewGenerator(402)
	db := g.Database(40)
	query := g.Protein("q", 100).Encode(protAlpha)
	res, err := Search(query, db, b62, Options{Gaps: aln.DefaultGaps(), Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally == nil || res.Tally.Total() == 0 {
		t.Fatal("instrumented search produced an empty tally")
	}
}

// TestMultiSearchBackendEquivalence covers the scenario-2 path: the
// multi-query score matrix, including its per-pair 16-bit rescues,
// must be identical on both backends.
func TestMultiSearchBackendEquivalence(t *testing.T) {
	g := seqio.NewGenerator(403)
	db := g.Database(50)
	long := g.Protein("q-long", 650)
	db = append(db, g.Related(long, "homolog", 0.03, 0.01))
	queries := [][]uint8{
		g.Protein("q1", 90).Encode(protAlpha),
		long.Encode(protAlpha),
	}
	mod, err := MultiSearch(queries, db, b62, Options{
		Gaps: aln.DefaultGaps(), Threads: 4, Backend: core.BackendModeled})
	if err != nil {
		t.Fatal(err)
	}
	if mod.Rescued == 0 {
		t.Fatal("setup failure: no rescue triggered")
	}
	nat, err := MultiSearch(queries, db, b62, Options{
		Gaps: aln.DefaultGaps(), Threads: 4, Backend: core.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	for qi := range queries {
		for si := range db {
			if mod.Scores[qi][si] != nat.Scores[qi][si] {
				t.Errorf("query %d seq %d: modeled %d != native %d",
					qi, si, mod.Scores[qi][si], nat.Scores[qi][si])
			}
		}
	}
}

// TestSearchProfileCacheMetric checks the pipeline surfaces the
// scratch-level profile cache counter: the subroutine scenario's
// repeated pair alignments fold their hits into the global aggregate.
func TestSearchProfileCacheMetric(t *testing.T) {
	g := seqio.NewGenerator(404)
	db := g.Database(6)
	queries := [][]uint8{g.Protein("q", 80).Encode(protAlpha)}
	before := coreGlobalProfileHits()
	// One query against several sequences on one worker: every pair
	// after the first reuses the cached profile.
	if _, err := Subroutine(queries, db, b62, false, Options{Gaps: aln.DefaultGaps(), Threads: 1, Backend: core.BackendModeled}); err != nil {
		t.Fatal(err)
	}
	if after := coreGlobalProfileHits(); after <= before {
		t.Errorf("global profile_cache_hits did not increase (%d -> %d)", before, after)
	}
}
