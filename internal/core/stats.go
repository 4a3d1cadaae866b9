package core

import "sync/atomic"

// EstimatorStats aggregates cheap atomic counters over every estimate
// computed in the process — the observable quality signals of the
// paper's witness scheme. The singleton hit rate (SingletonHits /
// SingletonChecks) is the yield of valid 0/1 observations per probed
// (copy, level) pair, and together with Witnesses it determines the
// confidence of every reported estimate: few valid observations mean a
// wide binomial error bar regardless of the sketch size.
//
// The counters are process-global so that the estimate path — which has
// no handle on any particular coordinator — stays free of plumbing; the
// cost is a handful of atomic adds per estimate call, not per bucket.
// Exporters (distributed.Coordinator.SetObservability, the sketchd
// admin endpoint) surface them as estimator_* series.
type EstimatorStats struct {
	// Estimates counts witness-estimator invocations (expression,
	// difference, and intersection estimates; unions count separately).
	Estimates atomic.Uint64
	// NoObservations counts estimates that failed with
	// ErrNoObservations: no copy yielded a valid witness observation.
	NoObservations atomic.Uint64
	// SingletonChecks counts (copy, level) union-bucket singleton
	// probes performed by witness estimators.
	SingletonChecks atomic.Uint64
	// SingletonHits counts probes that found a singleton union bucket,
	// i.e. valid 0/1 observations (the paper's r').
	SingletonHits atomic.Uint64
	// Witnesses counts valid observations that witnessed the estimated
	// expression (the paper's positive observations).
	Witnesses atomic.Uint64
	// UnionEstimates counts Fig. 5 / ML union-estimator invocations,
	// including the û sub-estimates inside witness estimators.
	UnionEstimates atomic.Uint64
	// UnionLevelScans counts first-level bucket indices scanned by the
	// Fig. 5 level scan (epoch/copy work feeding the union estimate).
	UnionLevelScans atomic.Uint64
	// ViewBuilds counts counter-family query views built in full: a
	// family's first read (fresh clones included), and every stale read
	// of a Truncate view.
	ViewBuilds atomic.Uint64
	// ViewPatches counts counter-family query views refreshed from the
	// cached one by recomputing only the buckets written since.
	ViewPatches atomic.Uint64
	// ViewBucketsRebuilt counts the (copy, bucket) pairs those builds
	// and patches recomputed: a full build adds r·Buckets, a patch its
	// dirty buckets. Each costs 2s counter reads.
	ViewBucketsRebuilt atomic.Uint64
}

// Stats is the process-wide estimator counter set.
var Stats EstimatorStats

// recordWitnessStats folds one witness-estimator run (checks singleton
// probes, est the resulting observation tallies) into Stats.
func recordWitnessStats(checks uint64, est Estimate) {
	Stats.Estimates.Add(1)
	Stats.SingletonChecks.Add(checks)
	Stats.SingletonHits.Add(uint64(est.Valid))
	Stats.Witnesses.Add(uint64(est.Witnesses))
	if est.Valid == 0 {
		Stats.NoObservations.Add(1)
	}
}

// Snapshot returns the counters as a name -> value map, keyed by the
// exported estimator_* series names.
func (s *EstimatorStats) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"estimator_estimates_total":            s.Estimates.Load(),
		"estimator_no_observations_total":      s.NoObservations.Load(),
		"estimator_singleton_checks_total":     s.SingletonChecks.Load(),
		"estimator_singleton_hits_total":       s.SingletonHits.Load(),
		"estimator_witnesses_total":            s.Witnesses.Load(),
		"estimator_union_estimates_total":      s.UnionEstimates.Load(),
		"estimator_union_level_scans_total":    s.UnionLevelScans.Load(),
		"estimator_view_builds_total":          s.ViewBuilds.Load(),
		"estimator_view_patches_total":         s.ViewPatches.Load(),
		"estimator_view_buckets_rebuilt_total": s.ViewBucketsRebuilt.Load(),
	}
}
