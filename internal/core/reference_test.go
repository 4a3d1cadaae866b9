package core

import (
	"errors"
	"fmt"
	"testing"

	"setsketch/internal/expr"
)

// The interpreted reference estimator: counter and bit scans, a
// per-witness flag map and recursive EvalBool, written independently
// of the packed views and the compiled program. The differential tests
// and FuzzEstimateMatchesReference pin the kernel bit-identical to it;
// only the float epilogues (unionFromCounts, unionMLFromCounts,
// finishWitnessEstimate) are shared.

// The §3.2 checks of paper Fig. 4 over counter sketches. The query
// kernel tests packed signatures instead; these serve the reference
// oracle and the check tests.

// SingletonBucket reports whether first-level bucket b contains exactly
// one distinct live element (paper Fig. 4, procedure SingletonBucket).
// It inspects only the s second-level counter pairs of the bucket. An
// empty bucket returns false. If the bucket holds ≥ 2 distinct
// elements, the check is fooled only when every one of the s
// pairwise-independent second-level hashes maps all of them to the same
// side — probability at most 2^−s (Lemma 3.1).
func (x *Sketch) SingletonBucket(b int) bool {
	if x.totals[b] == 0 {
		return false // bucket is empty
	}
	for j := 0; j < x.cfg.SecondLevel; j++ {
		if x.count(b, j, 0) > 0 && x.count(b, j, 1) > 0 {
			return false // at least two distinct elements split by g_j
		}
	}
	return true
}

// IdenticalSingletonBucket reports whether bucket b is a singleton in
// both x and y and both singletons are the same domain value (paper
// Fig. 4). The sketches must be aligned; comparing unaligned sketches
// is a programming error and returns false.
//
// Two different singleton values agree on all s second-level bit
// signatures with probability at most 2^−s.
func IdenticalSingletonBucket(x, y *Sketch, b int) bool {
	if !x.Aligned(y) {
		return false
	}
	if !x.SingletonBucket(b) || !y.SingletonBucket(b) {
		return false
	}
	for j := 0; j < x.cfg.SecondLevel; j++ {
		if (x.count(b, j, 0) > 0) != (y.count(b, j, 0) > 0) ||
			(x.count(b, j, 1) > 0) != (y.count(b, j, 1) > 0) {
			return false // signatures differ in at least one bit
		}
	}
	return true
}

// SingletonUnionBucket reports whether the set union of the elements of
// x and y mapping to bucket b is a singleton (paper Fig. 4): either one
// bucket is a singleton and the other empty, or both are identical
// singletons.
func SingletonUnionBucket(x, y *Sketch, b int) bool {
	if x.SingletonBucket(b) && y.totals[b] == 0 {
		return true
	}
	if y.SingletonBucket(b) && x.totals[b] == 0 {
		return true
	}
	return IdenticalSingletonBucket(x, y, b)
}

// SingletonUnionBucketN generalizes SingletonUnionBucket to any number
// of aligned sketches: it reports whether the union of all live
// elements mapping to bucket b across the sketches is a singleton.
//
// It exploits linearity: because aligned sketches share hash functions,
// the counters of the union multi-set ⊎_i A_i are the per-index sums of
// the individual counters, so the n-way check is SingletonBucket
// evaluated on summed counters — no merged sketch is materialized.
// This is the primitive behind the §4 set-expression estimator's
// "bucket j is a singleton bucket for ∪_i A_i" condition.
func SingletonUnionBucketN(sketches []*Sketch, b int) bool {
	if len(sketches) == 0 {
		return false
	}
	first := sketches[0]
	var total int64
	for _, x := range sketches {
		if !first.Aligned(x) {
			return false
		}
		total += x.totals[b]
	}
	if total == 0 {
		return false
	}
	for j := 0; j < first.cfg.SecondLevel; j++ {
		var c0, c1 int64
		for _, x := range sketches {
			c0 += x.count(b, j, 0)
			c1 += x.count(b, j, 1)
		}
		if c0 > 0 && c1 > 0 {
			return false
		}
	}
	return true
}

// refOracle is the reference's per-copy, per-bucket observations.
type refOracle interface {
	// occupied reports whether stream k's copy-i bucket b is non-empty.
	occupied(k, i, b int) bool
	// unionOccupied reports whether any stream's copy-i bucket b is
	// non-empty.
	unionOccupied(i, b int) bool
	// unionSingleton reports whether the union of all streams' copy-i
	// bucket-b contents is a single distinct element.
	unionSingleton(i, b int) bool
}

// rawCounterOracle scans counters directly: SingletonUnionBucketN over
// the summed cells.
type rawCounterOracle struct {
	fams    []*Family
	scratch []*Sketch
}

func (o *rawCounterOracle) occupied(k, i, b int) bool {
	return o.fams[k].copies[i].totals[b] != 0
}
func (o *rawCounterOracle) unionOccupied(i, b int) bool {
	for _, f := range o.fams {
		if f.copies[i].totals[b] != 0 {
			return true
		}
	}
	return false
}
func (o *rawCounterOracle) unionSingleton(i, b int) bool {
	for k, f := range o.fams {
		o.scratch[k] = f.copies[i]
	}
	return SingletonUnionBucketN(o.scratch, b)
}

// rawBitOracle reads bit sketches cell by cell.
type rawBitOracle struct{ fams []*BitFamily }

func (o *rawBitOracle) occupied(k, i, b int) bool {
	return !o.fams[k].copies[i].BucketEmpty(b)
}
func (o *rawBitOracle) unionOccupied(i, b int) bool {
	for _, f := range o.fams {
		if !f.copies[i].BucketEmpty(b) {
			return true
		}
	}
	return false
}
func (o *rawBitOracle) unionSingleton(i, b int) bool {
	if !o.unionOccupied(i, b) {
		return false
	}
	for j := 0; j < o.fams[0].cfg.SecondLevel; j++ {
		var or0, or1 bool
		for _, f := range o.fams {
			x := f.copies[i]
			or0 = or0 || x.bit(b, j, 0)
			or1 = or1 || x.bit(b, j, 1)
		}
		if or0 && or1 {
			return false // two distinct elements split by g_j
		}
	}
	return true
}

// referenceEstimate is the reference over counter families.
func referenceEstimate(e expr.Node, fams map[string]*Family, eps float64, multiLevel bool) (Estimate, error) {
	names, ordered, err := referenceBind(e, fams)
	if err != nil {
		return Estimate{}, err
	}
	o := &rawCounterOracle{fams: ordered, scratch: make([]*Sketch, len(ordered))}
	return estimateReference(e, names, ordered, o, eps, multiLevel)
}

// referenceEstimateBits is the reference over bit families.
func referenceEstimateBits(e expr.Node, fams map[string]*BitFamily, eps float64, multiLevel bool) (Estimate, error) {
	names, ordered, err := referenceBind(e, fams)
	if err != nil {
		return Estimate{}, err
	}
	return estimateReference(e, names, ordered, &rawBitOracle{fams: ordered}, eps, multiLevel)
}

// referenceBind resolves an expression's streams in sorted-name order
// and checks their alignment.
func referenceBind[F synopsis[F]](e expr.Node, fams map[string]F) ([]string, []F, error) {
	names := expr.Streams(e)
	ordered := make([]F, 0, len(names))
	for _, name := range names {
		f := fams[name]
		if f == nil {
			return nil, nil, &ErrMissingStream{Name: name}
		}
		if len(ordered) > 0 && !ordered[0].Aligned(f) {
			return nil, nil, ErrNotAligned
		}
		ordered = append(ordered, f)
	}
	return names, ordered, nil
}

// estimateReference is the §4 witness estimator read literally: the
// occupancy profile fills û (Fig. 5 at ε/3, or ML), then every
// (copy, level) in range with a singleton union bucket is one valid
// observation, a witness when B(E) holds on the per-stream flags.
func estimateReference[F synopsis[F]](e expr.Node, names []string, fams []F, o refOracle, eps float64, multiLevel bool) (Estimate, error) {
	if eps <= 0 || eps >= 1 {
		return Estimate{}, fmt.Errorf("core: relative accuracy ε = %v out of (0, 1)", eps)
	}
	cfg, r := fams[0].Config(), fams[0].Copies()
	for _, f := range fams[1:] {
		r = min(r, f.Copies())
	}
	if r < 1 {
		return Estimate{}, errors.New("core: family has no copies")
	}
	var counts [64]int
	for level := 0; level < cfg.Buckets; level++ {
		for i := 0; i < r; i++ {
			if o.unionOccupied(i, level) {
				counts[level]++
			}
		}
	}
	var u Estimate
	var err error
	if multiLevel {
		u, err = unionMLFromCounts(cfg, r, &counts)
	} else {
		u, err = unionFromCounts(cfg, r, &counts, eps/3)
	}
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{Copies: r, Union: u.Value}
	if u.Value == 0 {
		return est, nil
	}
	est.Level = chooseWitnessLevel(cfg, u.Value, Beta, eps)
	lo, hi := est.Level, est.Level
	if multiLevel {
		lo, hi = 0, cfg.Buckets-1
	}
	flags := make(map[string]bool, len(names))
	for i := 0; i < r; i++ {
		for level := lo; level <= hi; level++ {
			if !o.unionSingleton(i, level) {
				continue // noEstimate: union bucket is not a singleton
			}
			est.Valid++
			for k, name := range names {
				flags[name] = o.occupied(k, i, level)
			}
			if e.EvalBool(flags) {
				est.Witnesses++
			}
		}
	}
	err = finishWitnessEstimate(&est, u, uint64(r)*uint64(hi-lo+1))
	return est, err
}

// fig5Union is procedure SetUnionEstimator (Fig. 5) verbatim: a lazy
// level scan over the summed bucket totals.
func fig5Union(fams []*Family, eps float64) (Estimate, error) {
	r := fams[0].Copies()
	for _, f := range fams[1:] {
		r = min(r, f.Copies())
	}
	var counts [64]int
	for level := 0; level < fams[0].cfg.Buckets; level++ {
		for i := 0; i < r; i++ {
			for _, f := range fams {
				if f.copies[i].totals[level] != 0 {
					counts[level]++
					break
				}
			}
		}
		if float64(counts[level]) <= (1+eps)*float64(r)/8 {
			break // the deeper levels are never read
		}
	}
	return unionFromCounts(fams[0].cfg, r, &counts, eps)
}

// atomicDiff is procedure AtomicDiffEstimator (Fig. 6) for one sketch
// copy pair at the chosen level: (0, false) when the level's union
// bucket is not a singleton (the paper's noEstimate flag), otherwise
// (1, true) when the singleton witnesses A − B — a non-empty singleton
// for A and empty for B — and (0, true) when it does not.
func atomicDiff(xa, xb *Sketch, level int) (estimate int, valid bool) {
	if !SingletonUnionBucket(xa, xb, level) {
		return 0, false
	}
	if xa.SingletonBucket(level) && xb.totals[level] == 0 {
		return 1, true
	}
	return 0, true
}

// atomicIntersect is the AtomicIntersectEstimator variant (§3.5): the
// witness condition becomes "singleton in both A and B" (given a
// singleton union bucket, both are necessarily the same element).
func atomicIntersect(xa, xb *Sketch, level int) (estimate int, valid bool) {
	if !SingletonUnionBucket(xa, xb, level) {
		return 0, false
	}
	if xa.SingletonBucket(level) && xb.SingletonBucket(level) {
		return 1, true
	}
	return 0, true
}

func TestAtomicEstimatorsDirectly(t *testing.T) {
	cfg := estCfg
	a := mustSketch(t, cfg, 50)
	b := mustSketch(t, cfg, 50)
	a.Insert(7)
	lvl := bucketOf(a, 7)

	// Witness for A − B: singleton in A, empty in B.
	if obs, ok := atomicDiff(a, b, lvl); !ok || obs != 1 {
		t.Errorf("AtomicDiff = (%d, %v), want (1, true)", obs, ok)
	}
	if obs, ok := atomicIntersect(a, b, lvl); !ok || obs != 0 {
		t.Errorf("AtomicIntersect = (%d, %v), want (0, true)", obs, ok)
	}
	// Put the same element in B: now an intersection witness, not a
	// difference witness.
	b.Insert(7)
	if obs, ok := atomicDiff(a, b, lvl); !ok || obs != 0 {
		t.Errorf("AtomicDiff after shared insert = (%d, %v), want (0, true)", obs, ok)
	}
	if obs, ok := atomicIntersect(a, b, lvl); !ok || obs != 1 {
		t.Errorf("AtomicIntersect after shared insert = (%d, %v), want (1, true)", obs, ok)
	}
	// Empty union bucket: noEstimate.
	if _, ok := atomicDiff(a, b, lvl+1); ok {
		t.Error("AtomicDiff on empty bucket returned a valid observation")
	}
}

// fig6Estimate is procedure SetDifferenceEstimator (Fig. 6) — or
// SetIntersectionEstimator with atomicIntersect — verbatim: û from
// Fig. 5 at ε/3 (§3.4), one level, |A op B| ≈ (witnesses/valid)·û.
// It reports no StdError.
func fig6Estimate(a, b *Family, eps float64, atomic func(xa, xb *Sketch, level int) (int, bool)) (Estimate, error) {
	u, err := fig5Union([]*Family{a, b}, eps/3)
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{Copies: min(a.Copies(), b.Copies()), Union: u.Value}
	if u.Value == 0 {
		return est, nil
	}
	est.Level = chooseWitnessLevel(a.cfg, u.Value, Beta, eps)
	for i := 0; i < est.Copies; i++ {
		if obs, ok := atomic(a.copies[i], b.copies[i], est.Level); ok {
			est.Valid++
			est.Witnesses += obs
		}
	}
	if est.Valid == 0 {
		return est, ErrNoObservations
	}
	est.Value = float64(est.Witnesses) / float64(est.Valid) * u.Value
	return est, nil
}

// estimateNode compiles e and runs the kernel over counter families
// with the default worker pool.
func estimateNode(e expr.Node, fams map[string]*Family, eps float64, multiLevel bool) (Estimate, error) {
	q, err := CompileQuery(e)
	if err != nil {
		return Estimate{}, err
	}
	return q.Estimate(fams, eps, multiLevel, EstimateOptions{})
}

// estimateNodeBits is estimateNode over bit families.
func estimateNodeBits(e expr.Node, fams map[string]*BitFamily, eps float64, multiLevel bool) (Estimate, error) {
	q, err := CompileQuery(e)
	if err != nil {
		return Estimate{}, err
	}
	return q.EstimateBits(fams, eps, multiLevel, EstimateOptions{})
}
