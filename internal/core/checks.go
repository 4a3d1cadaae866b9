package core

// This file implements the elementary property checks of §3.2 (paper
// Fig. 4): SingletonBucket, IdenticalSingletonBucket, and
// SingletonUnionBucket, plus the n-way generalization that §4's
// set-expression estimator needs. Each check inspects only the s
// second-level counter pairs of one first-level bucket and is correct
// with probability ≥ 1 − 2^−s (Lemma 3.1).

// SingletonBucket reports whether first-level bucket b contains exactly
// one distinct live element (paper Fig. 4, procedure SingletonBucket).
// An empty bucket returns false. If the bucket holds ≥ 2 distinct
// elements, the check is fooled only when every one of the s
// pairwise-independent second-level hashes maps all of them to the same
// side — probability at most 2^−s.
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
