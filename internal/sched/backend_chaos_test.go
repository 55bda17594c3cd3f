//go:build failpoint

package sched

import (
	"testing"

	"swvec/internal/core"
	"swvec/internal/failpoint"
	"swvec/internal/leakcheck"
)

// TestChaosNativeBackendRetries runs the native backend through the
// fault-injection harness: transient faults on its one stage, the
// batch stage, must be retried, and the final scores must match a
// healthy modeled run exactly — the resilience machinery is
// backend-agnostic. Native never saturates, so its rescue tiers never
// run and are not armed here.
func TestChaosNativeBackendRetries(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := escalationDB(t, 605)
	mat := escalationMat
	opt := modeledChaosOpt()
	ref, err := Search(query, db, mat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Saturated8 == 0 || ref.Stats.Pairs32 == 0 {
		t.Fatal("setup failure: escalation ladder not exercised")
	}
	if err := failpoint.Enable("sched/align8", "error(resource blip):transient:first=2"); err != nil {
		t.Fatal(err)
	}
	opt.Backend = core.BackendNative
	res, err := Search(query, db, mat, opt)
	if err != nil {
		t.Fatalf("native search under transient faults failed: %v", err)
	}
	if res.Stats.Retries == 0 {
		t.Error("injected transient faults caused no retries")
	}
	if len(res.Quarantined) != 0 {
		t.Errorf("%d sequences quarantined after transient-only faults", len(res.Quarantined))
	}
	for i := range ref.Hits {
		if res.Hits[i].Score != ref.Hits[i].Score {
			t.Errorf("seq %d: native-under-chaos score %d != healthy modeled %d",
				i, res.Hits[i].Score, ref.Hits[i].Score)
		}
	}
}
