package core

import "setsketch/internal/hashing"

// The batch digest kernel. The per-element digest path walks all r
// copies' hash constants — r polynomial coefficient vectors plus r·s
// second-level (a, b) pairs, ~72 KB at the default shape — for every
// element, so an uncached batch re-streams the whole constant set from
// L2 once per element. The batch kernel inverts the loop nest: it
// iterates copy-major, hashing every element of the batch against one
// copy's constants before moving to the next, so each constant is
// loaded once per batch and the independent per-element Horner chains
// interleave to fill multiplier stalls (see hashing.HashReducedBatch).
// The apply side does the same for the counter arenas: replaying a
// batch copy-major touches each copy's counter slab once instead of
// striding the full r-copy arena once per element.
//
// Everything here is a pure loop-order transformation of the scalar
// path — digestWordsBatch computes exactly digestWord per element, and
// UpdateRangeBatchDigest applies exactly applyDigest per (element,
// copy) — so batch results are bit-identical to the per-element path
// (enforced by TestDigestBatchMatchesScalar and FuzzDigestEquivalence).

// digestWordsBatch computes digestWord for every reduced element in xs,
// writing dw[k] = x.digestWord(xs[k]). hs is caller-provided hash
// scratch; dw, xs, and hs must have equal length and may not alias.
func (x *Sketch) digestWordsBatch(dw, xs, hs []uint64) {
	x.h.HashReducedBatch(hs, xs)
	w := x.cfg.Buckets
	for k, h := range hs {
		dw[k] = uint64(hashing.LSB(h, w))
	}
	x.gbank.PackColumns(dw, xs, digestBucketBits)
}

// DigestBatch computes the digests of every element in elems in one
// copy-major pass, amortizing the hash-constant traffic across the
// batch. The returned digests view one shared slab but are individually
// capped and never mutated after construction, so they are safe to
// cache and to ship between goroutines exactly like Digest's result.
func (f *Family) DigestBatch(elems []uint64) []Digest {
	r := len(f.copies)
	slab := make([]uint64, len(elems)*r)
	ds := make([]Digest, len(elems))
	for k := range ds {
		ds[k] = Digest(slab[k*r : (k+1)*r : (k+1)*r])
	}
	f.DigestBatchInto(ds, elems)
	return ds
}

// DigestBatchInto computes elems' digests into ds, whose first
// len(elems) entries must each have length ≥ Copies(). It is the
// batch analogue of DigestInto for callers that manage digest storage
// themselves.
func (f *Family) DigestBatchInto(ds []Digest, elems []uint64) {
	n := len(elems)
	if n == 0 {
		return
	}
	// One scratch allocation per batch (three slices) against n·r hash
	// evaluations of real work; callers on the allocation-free paths
	// (estimate, frame decode) never reach here.
	scratch := make([]uint64, 3*n)
	xs, dw, hs := scratch[:n], scratch[n:2*n], scratch[2*n:]
	for k, e := range elems {
		xs[k] = hashing.Reduce61(e)
	}
	for i, x := range f.copies {
		x.digestWordsBatch(dw, xs, hs)
		for k := 0; k < n; k++ {
			ds[k][i] = dw[k]
		}
	}
}

// UpdateBatchDigest applies update k with delta deltas[k] and
// precomputed digest ds[k] to every copy, for all k, iterating
// copy-major so each copy's counter slab streams through cache once per
// batch. Equivalent to calling UpdateDigest(ds[k], deltas[k]) for every
// k in order; ds and deltas must have equal length.
func (f *Family) UpdateBatchDigest(ds []Digest, deltas []int64) {
	f.UpdateRangeBatchDigest(0, len(f.copies), ds, deltas)
}

// UpdateRangeBatchDigest is UpdateBatchDigest restricted to copies
// lo..hi-1. Because the r copies are independent sketches, disjoint
// copy ranges touch disjoint counter storage — this is the lock-free
// entry point the ingest workers use to shard one family across
// goroutines, each owning its own [lo, hi) slice of the copies.
func (f *Family) UpdateRangeBatchDigest(lo, hi int, ds []Digest, deltas []int64) {
	for i := lo; i < hi; i++ {
		x := f.copies[i]
		for k, d := range ds {
			x.applyDigest(d[i], deltas[k])
		}
	}
	f.bumpVersion()
}
