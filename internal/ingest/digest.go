package ingest

import (
	"sync"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/hashing"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
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
// Every raw update batch reaches the counters through a Coalescer: the
// ingest engine's producer, each coordinator session, and WAL recovery
// all fold their batches with it and replay its digest entries.
//
// The cache is direct-mapped over a power-of-two slot array, keyed by a
// seed-derived mix of the element so adversarial element sets cannot be
// aimed at one slot. It is shared by every Coalescer built over it (the
// coordinator's sessions and its recovery), so its own mutex guards the
// slots; a Coalescer takes it twice per batch, once for the lookups and
// once for the installs. An install copies the digest into an r-word
// allocation the cache owns, so the cache retains exactly slots × r
// words and never the caller's memory (a view into a miss slab would
// keep the whole slab alive for as long as one of its entries
// survived). Entries are immutable once installed: an eviction only
// drops the reference and abandons the old copy to the garbage
// collector, so digests already riding in queued work items stay valid
// without locking.

// DigestCache maps elements to their packed family digests. It is safe
// for concurrent use.
type DigestCache struct {
	mask uint64
	mix  uint64 // seed-derived slot-hash key

	mu sync.Mutex
	// guarded by: mu
	elems []uint64
	// digs holds one digest per slot; nil = empty slot.
	// guarded by: mu
	digs []core.Digest

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

// Contains reports whether e's digest is currently cached, without
// touching the hit/miss counters — a diagnostics and test helper for
// reasoning about direct-mapped collisions.
func (c *DigestCache) Contains(e uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.slot(e)
	return c.digs[s] != nil && c.elems[s] == e
}

// lookup sets the digest of every entry the cache holds and appends
// the indexes of the others to miss. The digests set are the cache's
// immutable copies; callers may hand them to other goroutines as-is.
func (c *DigestCache) lookup(entries []wal.DigestUpdate, miss []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	hits := 0
	for i := range entries {
		s := c.slot(entries[i].Elem)
		if d := c.digs[s]; d != nil && c.elems[s] == entries[i].Elem {
			entries[i].Digest = d
			hits++
			continue
		}
		miss = append(miss, i)
	}
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(len(entries) - hits))
	return miss
}

// install stores a copy of the digest of entries[i] for every i in idx
// in the element's slot, evicting whatever lived there. The cache keeps
// no reference to the entries' digests, so the caller may reuse their
// storage at once.
func (c *DigestCache) install(entries []wal.DigestUpdate, idx []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, i := range idx {
		e, d := entries[i].Elem, entries[i].Digest
		s := c.slot(e)
		if c.digs[s] != nil {
			c.evictions.Inc()
		}
		own := make(core.Digest, len(d))
		copy(own, d)
		c.elems[s] = e
		c.digs[s] = own
	}
}

// Coalescer folds raw update batches into one net delta per (stream,
// element) and resolves each kept entry's digest: from the optional
// DigestCache, batch-hashing only the misses into a slab it reuses.
// Counters are int64 sums, so applying the entries is exactly
// equivalent to applying the folded updates in order.
//
// It keeps an entry if some folded batch left it a nonzero net delta.
// Folding one batch, that drops exact cancellations — a net-zero update
// is a no-op on every counter. Folding several (WAL recovery folds
// consecutive records), it also keeps entries a later batch cancelled:
// applying the earlier batch created the stream's family (and view
// group), so replay must create it too.
//
// A Coalescer is not safe for concurrent use; its DigestCache may be
// shared.
type Coalescer struct {
	cfg    core.Config
	seed   uint64
	copies int
	cache  *DigestCache // nil: every kept entry is hashed
	fam    *core.Family // digest-evaluation scratch, built on the first miss

	// One folded entry and one mark per held key, in first-touch order.
	idx    map[coalKey]int
	folded []wal.DigestUpdate
	marks  []coalMark
	batch  uint64 // batches folded so far

	miss  []int         // Resolve's miss entry indexes
	elems []uint64      // their elements
	digs  []core.Digest // r-word views into the miss slab
}

// coalKey identifies an update target.
type coalKey struct {
	stream string
	elem   uint64
}

// coalMark records which batches left an entry a nonzero net delta.
type coalMark struct {
	batch uint64 // last batch that touched the entry
	net   int64  // the entry's net delta within that batch
	live  bool   // an earlier batch left a nonzero net delta
}

// NewCoalescer returns an empty coalescer hashing with the stored coins
// (cfg, seed, copies), which the caller has validated, and resolving
// through cache when it is non-nil.
func NewCoalescer(cfg core.Config, seed uint64, copies int, cache *DigestCache) *Coalescer {
	return &Coalescer{cfg: cfg, seed: seed, copies: copies, cache: cache, idx: make(map[coalKey]int)}
}

// Add folds one update batch into the held entries.
func (c *Coalescer) Add(ups []datagen.Update) {
	c.batch++
	for _, u := range ups {
		k := coalKey{u.Stream, u.Elem}
		i, ok := c.idx[k]
		if !ok {
			i = len(c.folded)
			c.idx[k] = i
			c.folded = append(c.folded, wal.DigestUpdate{Stream: u.Stream, Elem: u.Elem})
			c.marks = append(c.marks, coalMark{batch: c.batch})
		}
		m := &c.marks[i]
		if m.batch != c.batch {
			m.live = m.live || m.net != 0
			m.batch, m.net = c.batch, 0
		}
		m.net += u.Delta
		c.folded[i].Delta += u.Delta
	}
}

// Len returns how many (stream, element) keys the coalescer holds.
func (c *Coalescer) Len() int { return len(c.folded) }

// Take returns the kept entries, in first-touch order and without
// digests, and empties the coalescer. The entries alias its buffers
// and stay valid until the next Add.
func (c *Coalescer) Take() []wal.DigestUpdate {
	kept := c.folded[:0]
	for i, en := range c.folded {
		if m := c.marks[i]; m.live || m.net != 0 {
			kept = append(kept, en)
		}
	}
	clear(c.idx)
	c.folded, c.marks = c.folded[:0], c.marks[:0]
	return kept
}

// Resolve sets every entry's digest and returns how many it hashed.
// Cache hits are the cache's immutable copies. Misses are hashed
// together in one copy-major pass (core.Family.DigestBatchInto) into
// the coalescer's miss slab, which the next Resolve overwrites unless
// Detach ran in between, and are then installed in the cache.
func (c *Coalescer) Resolve(entries []wal.DigestUpdate) int {
	c.miss = c.miss[:0]
	if c.cache != nil {
		c.miss = c.cache.lookup(entries, c.miss)
	} else {
		for i := range entries {
			c.miss = append(c.miss, i)
		}
	}
	if len(c.miss) == 0 {
		return 0
	}
	c.elems = c.elems[:0]
	for _, i := range c.miss {
		c.elems = append(c.elems, entries[i].Elem)
	}
	if c.fam == nil {
		c.fam, _ = core.NewFamily(c.cfg, c.seed, c.copies) // coins validated by the caller
	}
	ds := c.missDigests(len(c.miss))
	c.fam.DigestBatchInto(ds, c.elems)
	for j, i := range c.miss {
		entries[i].Digest = ds[j]
	}
	if c.cache != nil {
		c.cache.install(entries, c.miss)
	}
	return len(c.miss)
}

// Detach hands the miss slab of the last Resolve to the caller: its
// digests stay valid for good, and the next Resolve hashes into a new
// slab. The ingest engine detaches every batch, because its workers
// replay the digests after the producer has moved on.
func (c *Coalescer) Detach() { c.digs = nil }

// missDigests returns n r-word digest buffers backed by the miss slab,
// growing it when a batch has more misses than any before.
func (c *Coalescer) missDigests(n int) []core.Digest {
	if len(c.digs) < n {
		r := c.copies
		slab := make([]uint64, n*r)
		c.digs = make([]core.Digest, n)
		for k := range c.digs {
			c.digs[k] = core.Digest(slab[k*r : (k+1)*r : (k+1)*r])
		}
	}
	return c.digs[:n]
}
