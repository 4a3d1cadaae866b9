package ingest

import (
	"setsketch/internal/core"
	"setsketch/internal/hashing"
	"setsketch/internal/obs"
)

// The digest-based update kernel. Sketch hashes are a pure function of
// (stored coins, element), so the full per-element hash bill — r
// first-level polynomial evaluations plus r·s second-level bits — can
// be computed once, packed into one word per copy (core.Digest), cached
// across the stream, and replayed as plain counter additions: the
// bucket total plus one side-1 counter per set second-level bit. On the
// skewed streams the paper evaluates (§5, Zipfian multiplicities), the
// handful of heavy hitters dominating the update volume hit the cache
// almost always, so the amortized per-update cost drops from
// ~r·(t−1+s) field multiplications to about r·(s/2+1) plain adds.
//
// The cache is direct-mapped over a power-of-two slot array, keyed by a
// seed-derived mix of the element so adversarial element sets cannot be
// aimed at one slot. It carries no lock of its own: the ingest engine
// touches it only on the producer side under the engine mutex, and the
// distributed coordinator shares one across sessions under its dmu.
// Install copies the digest into an r-word allocation the cache owns,
// so the cache retains exactly slots × r words and never the caller's
// memory (a view into a DigestBatch slab would keep the whole batch
// slab alive for as long as one of its entries survived). Entries are
// immutable once installed: an eviction only drops the reference and
// abandons the old copy to the garbage collector, so digests already
// riding in queued work items stay valid without locking.

// DigestCache maps elements to their packed family digests. It is
// exported for the distributed coordinator's raw-update path, which
// fronts its per-session digest scratch with one shared cache;
// synchronization is the caller's job.
type DigestCache struct {
	mask  uint64
	mix   uint64 // seed-derived slot-hash key
	elems []uint64
	digs  []core.Digest // nil = empty slot; len(dig) = family copies

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// NewDigestCache builds a cache with at least size slots (rounded up to
// a power of two so slot selection is a mask), keyed by the family
// seed. The three counters record lookups served, lookups missed, and
// slots overwritten; they must be non-nil (obs instruments work
// uncollected when no registry is attached).
func NewDigestCache(size int, seed uint64, hits, misses, evictions *obs.Counter) *DigestCache {
	n := 1
	for n < size {
		n <<= 1
	}
	return &DigestCache{
		mask:      uint64(n - 1),
		mix:       hashing.DeriveSeed(seed, 0xd16e57),
		elems:     make([]uint64, n),
		digs:      make([]core.Digest, n),
		hits:      hits,
		misses:    misses,
		evictions: evictions,
	}
}

// slot picks the element's home slot with a splitmix64-style finalizer
// over the seed-keyed element.
func (c *DigestCache) slot(e uint64) uint64 {
	z := e ^ c.mix
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & c.mask
}

// Lookup returns e's cached digest, if present. The returned digest is
// immutable; callers may hand it to other goroutines as-is.
func (c *DigestCache) Lookup(e uint64) (core.Digest, bool) {
	s := c.slot(e)
	if d := c.digs[s]; d != nil && c.elems[s] == e {
		c.hits.Inc()
		return d, true
	}
	c.misses.Inc()
	return nil, false
}

// Contains reports whether e's digest is currently cached, without
// touching the hit/miss counters — a diagnostics and test helper for
// reasoning about direct-mapped collisions.
func (c *DigestCache) Contains(e uint64) bool {
	s := c.slot(e)
	return c.digs[s] != nil && c.elems[s] == e
}

// Install stores a copy of e's digest in e's slot, evicting whatever
// lived there. The cache keeps no reference to d, so the caller may
// reuse its storage at once.
func (c *DigestCache) Install(e uint64, d core.Digest) {
	s := c.slot(e)
	if c.digs[s] != nil {
		c.evictions.Inc()
	}
	own := make(core.Digest, len(d))
	copy(own, d)
	c.elems[s] = e
	c.digs[s] = own
}

// digestGroup is one family's worth of coalesced, digest-resolved
// updates, shaped for the workers' copy-major batch replay
// (core.Family.UpdateRangeBatchDigest).
type digestGroup struct {
	fam    *core.Family
	digs   []core.Digest
	deltas []int64
}

// coalKey identifies an update target within one batch.
type coalKey struct {
	fam  *core.Family
	elem uint64
}

// coalesceLocked folds a batch down to one net update per (stream,
// element), drops entries whose deltas cancel exactly (linearity: a
// net-zero update is a no-op on every counter), resolves each survivor
// to its digest, and groups the survivors per family for copy-major
// replay. Cache misses are resolved together through one
// core.Family.DigestBatch call — digests are a property of the coins,
// not of one stream's counters, so a single batched pass covers misses
// from every family in the batch and pays the hash-constant memory
// traffic once instead of once per element.
// caller holds: mu
func (e *Engine) coalesceLocked(batch []entry) []digestGroup {
	idx := make(map[coalKey]int, len(batch))
	keys := make([]coalKey, 0, len(batch))
	deltas := make([]int64, 0, len(batch))
	for _, en := range batch {
		k := coalKey{en.fam, en.elem}
		if i, ok := idx[k]; ok {
			deltas[i] += en.delta
			continue
		}
		idx[k] = len(keys)
		keys = append(keys, k)
		deltas = append(deltas, en.delta)
	}
	digs := make([]core.Digest, len(keys))
	var missElems []uint64
	var missIdx []int
	kept := 0
	for i := range keys {
		if deltas[i] == 0 {
			continue
		}
		kept++
		if d, ok := e.cache.Lookup(keys[i].elem); ok {
			digs[i] = d
			continue
		}
		missElems = append(missElems, keys[i].elem)
		missIdx = append(missIdx, i)
	}
	if len(missElems) > 0 {
		md := keys[missIdx[0]].fam.DigestBatch(missElems)
		for j, i := range missIdx {
			digs[i] = md[j]
			e.cache.Install(keys[i].elem, md[j])
		}
	}
	e.met.coalesced.Add(uint64(len(batch) - kept))
	var groups []digestGroup
	gidx := make(map[*core.Family]int, 4)
	for i := range keys {
		if deltas[i] == 0 {
			continue
		}
		gi, ok := gidx[keys[i].fam]
		if !ok {
			gi = len(groups)
			gidx[keys[i].fam] = gi
			groups = append(groups, digestGroup{fam: keys[i].fam})
		}
		groups[gi].digs = append(groups[gi].digs, digs[i])
		groups[gi].deltas = append(groups[gi].deltas, deltas[i])
	}
	return groups
}
