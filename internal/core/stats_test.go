package core

import (
	"testing"

	"setsketch/internal/expr"
)

// TestEstimatorStatsAccumulate: the estimate path feeds the global
// estimator counters — one Estimates tick per witness run, one
// SingletonChecks tick per (copy, level) probe, hits bounded by checks.
// Counters are process-global, so the test asserts on deltas.
func TestEstimatorStatsAccumulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SecondLevel = 8
	const copies = 32
	fams := map[string]*Family{}
	for _, name := range []string{"A", "B"} {
		f, err := NewFamily(cfg, 7, copies)
		if err != nil {
			t.Fatal(err)
		}
		fams[name] = f
	}
	for e := uint64(0); e < 4000; e++ {
		fams["A"].Update(e, 1)
		if e%2 == 0 {
			fams["B"].Update(e, 1)
		}
	}
	node, err := expr.Parse("A & B")
	if err != nil {
		t.Fatal(err)
	}

	before := Stats.Snapshot()
	est, err := estimateNode(node, fams, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	after := Stats.Snapshot()

	delta := func(k string) uint64 { return after[k] - before[k] }
	if delta("estimator_estimates_total") != 1 {
		t.Errorf("estimates delta = %d, want 1", delta("estimator_estimates_total"))
	}
	wantChecks := uint64(copies * cfg.Buckets) // multi-level probes every (copy, level)
	if delta("estimator_singleton_checks_total") != wantChecks {
		t.Errorf("singleton checks delta = %d, want %d",
			delta("estimator_singleton_checks_total"), wantChecks)
	}
	if got := delta("estimator_singleton_hits_total"); got != uint64(est.Valid) {
		t.Errorf("singleton hits delta = %d, want Valid = %d", got, est.Valid)
	}
	if got := delta("estimator_witnesses_total"); got != uint64(est.Witnesses) {
		t.Errorf("witnesses delta = %d, want Witnesses = %d", got, est.Witnesses)
	}
	if delta("estimator_union_estimates_total") == 0 {
		t.Error("union estimator ran without counting itself")
	}
	if delta("estimator_union_level_scans_total") == 0 {
		t.Error("union level scan not counted")
	}
	if delta("estimator_no_observations_total") != 0 {
		t.Error("healthy estimate counted as no-observations")
	}

	// A single-level estimate probes one level per copy.
	before = Stats.Snapshot()
	if _, err := estimateNode(expr.MustParse("A & B"), fams, 0.3, false); err != nil {
		t.Fatal(err)
	}
	after = Stats.Snapshot()
	if delta("estimator_estimates_total") != 1 {
		t.Errorf("binary estimates delta = %d, want 1", delta("estimator_estimates_total"))
	}
	if delta("estimator_singleton_checks_total") != copies {
		t.Errorf("binary singleton checks delta = %d, want %d",
			delta("estimator_singleton_checks_total"), copies)
	}
}
