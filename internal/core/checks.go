package core

// This file implements SingletonBucket, the elementary property check
// of §3.2 (paper Fig. 4) over one counter sketch. It inspects only the
// s second-level counter pairs of one first-level bucket and is correct
// with probability ≥ 1 − 2^−s (Lemma 3.1). Estimates never call it: the
// query kernel tests packed cell signatures (queryview.go). The
// two-sketch checks of Fig. 4 and their n-way generalization live with
// the interpreted reference estimator in the tests.

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
