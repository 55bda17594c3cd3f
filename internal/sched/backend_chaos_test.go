//go:build failpoint

package sched

import (
	"testing"

	"swvec/internal/core"
	"swvec/internal/failpoint"
	"swvec/internal/leakcheck"
)

// TestChaosNativeBackendRetries runs the native backend through the
// fault-injection harness: transient faults on the 8-bit and 16-bit
// stages must be retried and the final hits must match a healthy
// modeled run exactly — the resilience machinery is backend-agnostic.
func TestChaosNativeBackendRetries(t *testing.T) {
	leakcheck.Check(t)
	defer failpoint.DisableAll()
	db, query := escalationDB(t, 605)
	mat := escalationMat
	opt := chaosOpt()
	opt.Backend = core.BackendModeled
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
	if err := failpoint.Enable("sched/align16", "error(rescue blip):transient:first=1"); err != nil {
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
		if res.Hits[i] != ref.Hits[i] {
			t.Errorf("seq %d: native-under-chaos %+v != healthy modeled %+v",
				i, res.Hits[i], ref.Hits[i])
		}
	}
}
