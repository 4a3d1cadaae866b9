package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"setsketch/internal/hashing"
)

// Family is the r-fold replicated synopsis the estimators consume: r
// independent 2-level hash sketches of one update stream, with copy i's
// hash functions derived deterministically from (master seed, i).
//
// Families for different streams built from the same master seed and
// configuration are aligned copy-by-copy — the "stored coins" of the
// distributed-streams model: every site derives the identical hash
// functions from the shared seed, so synopses shipped to a coordinator
// merge and compare exactly.
//
// All r copies' counters live in two family-owned contiguous slices;
// the copies are views into them (copy i's totals occupy
// totals[i·strideTotals, i·strideTotals+Buckets), likewise counts).
// The flat layout turns Merge, Reset, and Equal into single linear
// passes and keeps the update path walking one cache-friendly arena
// instead of r separately allocated counter arrays. Per-copy strides
// are rounded up to a whole cache line (see padStride) so that copies
// never share a line: the ingest workers mutate disjoint copy ranges
// of one family concurrently, and an unpadded 61-bucket totals array
// would put the seam between two workers' shards mid-line, making
// every update at the boundary a coherence miss. The padding lanes are
// always zero and are invisible to the serialized form: WriteTo still
// walks copy-by-copy, so the wire bytes are identical to the unpadded
// layout's.
type Family struct {
	cfg    Config
	seed   uint64
	copies []*Sketch
	totals []int64 // len r·strideTotals; copy i at [i·st, i·st+Buckets)
	counts []int64 // len r·strideCounts; copy i at [i·sc, i·sc+Buckets·s), side 1 only

	// version counts counter mutations (Update/Merge/Reset …); the
	// cached query view is current while its version matches (see
	// queryview.go). It is a shared pointer because Truncate views alias
	// the same counter storage: a mutation through any view must move
	// all of them. Atomic because ingest workers call
	// UpdateRangeBatchDigest concurrently on disjoint copy shards.
	version *atomic.Uint64
	// dirty backs the per-copy dirty-bucket masks the copies' sketches
	// point into (see queryview.go), copy i's word at
	// dirty[i·arenaAlign]: one cache line per copy, so ingest workers on
	// adjacent shards never share a line. Nil for Truncate views, whose
	// writes mark the parent's masks through the shared sketches and
	// which always build their view in full.
	dirty  []uint64
	viewMu sync.Mutex
	view   *familyView
}

// NewFamily builds a family of r empty sketches from a master seed.
func NewFamily(cfg Config, seed uint64, r int) (*Family, error) {
	if r < 1 {
		return nil, fmt.Errorf("core: family needs at least 1 copy, got %d", r)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Family{
		cfg:     cfg,
		seed:    seed,
		copies:  make([]*Sketch, r),
		totals:  make([]int64, r*cfg.strideTotals()),
		counts:  make([]int64, r*cfg.strideCounts()),
		version: new(atomic.Uint64),
		dirty:   make([]uint64, r*arenaAlign),
	}
	for i := range f.copies {
		f.copies[i] = newSketchView(cfg, hashing.DeriveSeed(seed, uint64(i)),
			f.copyTotals(i), f.copyCounts(i), &f.dirty[i*arenaAlign])
	}
	return f, nil
}

// arenaAlign is the arena alignment unit in int64s: 8 counters = 64
// bytes, one cache line on every target this repo benches on.
const arenaAlign = 8

// padStride rounds a per-copy counter count up to a whole cache line so
// consecutive copies in the flat arenas never share a line. The padding
// lanes are never written (copy views are length-capped) and so stay
// zero for the family's lifetime — which is what lets Merge, Reset, and
// Equal keep running over the full padded arenas.
func padStride(n int) int { return (n + arenaAlign - 1) &^ (arenaAlign - 1) }

// strideTotals is the padded per-copy stride of the totals arena.
func (c Config) strideTotals() int { return padStride(c.Buckets) }

// strideCounts is the padded per-copy stride of the counts arena.
func (c Config) strideCounts() int { return padStride(c.counters()) }

// copyTotals returns copy i's slice of the flat totals arena, capped so
// an erroneous append cannot bleed into the padding or the next copy's
// counters.
func (f *Family) copyTotals(i int) []int64 {
	st, nb := f.cfg.strideTotals(), f.cfg.Buckets
	return f.totals[i*st : i*st+nb : i*st+nb]
}

// copyCounts returns copy i's slice of the flat counts arena.
func (f *Family) copyCounts(i int) []int64 {
	sc, nc := f.cfg.strideCounts(), f.cfg.counters()
	return f.counts[i*sc : i*sc+nc : i*sc+nc]
}

// Config returns the family's sketch configuration.
func (f *Family) Config() Config { return f.cfg }

// Seed returns the master seed the family's coins were derived from.
func (f *Family) Seed() uint64 { return f.seed }

// Copies returns the number of independent sketch copies r.
func (f *Family) Copies() int { return len(f.copies) }

// Copy returns the i-th sketch copy, for reading. Writes through it
// bypass the family's version counter, and Sketch.Merge and
// Sketch.Reset bypass its dirty-bucket mask too, so the family's cached
// query view would go stale: mutate through the Family methods.
func (f *Family) Copy(i int) *Sketch { return f.copies[i] }

// Update applies the stream update ⟨e, ±v⟩ to every copy. The element
// is reduced into the hash field once, not once per copy.
func (f *Family) Update(e uint64, v int64) {
	er := hashing.Reduce61(e)
	for _, x := range f.copies {
		x.applyDigest(x.digestWord(er), v)
	}
	f.bumpVersion()
}

// Digest is the packed replay form of one element's hash evaluations
// across a whole family: word i holds copy i's first-level bucket and
// second-level bit vector (see digestWord). Digests are pure functions
// of (seed, configuration, element) — the stored coins — so they are
// valid for every family aligned with the one that built them, can be
// cached across a stream, and can be shipped between goroutines freely
// (they are never mutated after construction).
type Digest []uint64

// Digest evaluates all r first-level hashes and r·s second-level bits
// for e — the entire per-element hash bill — and packs them. Applying
// the result via UpdateDigest costs one addition per copy plus one per
// set second-level bit, with zero field arithmetic.
func (f *Family) Digest(e uint64) Digest {
	d := make(Digest, len(f.copies))
	f.DigestInto(d, e)
	return d
}

// DigestInto computes e's digest into d, which must have length ≥
// Copies(). It lets callers that manage their own digest storage (the
// ingest cache) avoid a per-element allocation.
func (f *Family) DigestInto(d Digest, e uint64) {
	er := hashing.Reduce61(e)
	for i, x := range f.copies {
		d[i] = x.digestWord(er)
	}
}

// UpdateDigest applies the stream update ⟨e, ±v⟩ to every copy given
// e's precomputed digest: counter additions only, no hashing.
// Equivalent to Update(e, v) when d = f.Digest(e) (or the digest of any
// aligned family).
func (f *Family) UpdateDigest(d Digest, v int64) {
	for i, x := range f.copies {
		x.applyDigest(d[i], v)
	}
	f.bumpVersion()
}

// MergeRange adds copies lo..hi-1 of g into the same copies of f. Like
// UpdateRangeBatchDigest it touches only the [lo, hi) copy shard, so
// disjoint ranges of the same family can be merged concurrently;
// counter addition makes it commute with concurrent
// UpdateRangeBatchDigest calls on the same shard only if those are
// serialized per shard (one owner per range). The families must be
// aligned with equal copy counts.
func (f *Family) MergeRange(lo, hi int, g *Family) error {
	if !f.Aligned(g) {
		return ErrNotAligned
	}
	if len(f.copies) != len(g.copies) {
		return fmt.Errorf("core: merging families with %d and %d copies", len(f.copies), len(g.copies))
	}
	// Padded strides: the ranged-over slices include the padding lanes,
	// which are zero on both sides, so adding them is a no-op.
	st, sc := f.cfg.strideTotals(), f.cfg.strideCounts()
	for i, t := range g.totals[lo*st : hi*st] {
		f.totals[lo*st+i] += t
	}
	for i, c := range g.counts[lo*sc : hi*sc] {
		f.counts[lo*sc+i] += c
	}
	f.markAll(lo, hi)
	f.bumpVersion()
	return nil
}

// markAll marks every bucket of copies lo..hi-1 dirty, for the writers
// that add whole arenas instead of going through the per-update path.
// It writes through the sketches so that a write via a Truncate view
// marks the parent's masks.
func (f *Family) markAll(lo, hi int) {
	all := uint64(1)<<uint(f.cfg.Buckets) - 1
	for _, x := range f.copies[lo:hi] {
		*x.dirty = all
	}
}

// Insert is Update(e, +1).
func (f *Family) Insert(e uint64) { f.Update(e, 1) }

// Delete is Update(e, −1).
func (f *Family) Delete(e uint64) { f.Update(e, -1) }

// Aligned reports whether g was built with the same master seed and
// configuration (and hence the same per-copy hash functions) as f.
// Only the copy-count prefix min(f.Copies(), g.Copies()) is usable by
// estimators that take both.
func (f *Family) Aligned(g *Family) bool {
	return f.cfg == g.cfg && f.seed == g.seed
}

// Merge adds g's counters into f copy-by-copy, making f the synopsis of
// the combined update stream. With the flat layout this is two linear
// slice additions regardless of r. The families must be aligned and
// have the same number of copies.
func (f *Family) Merge(g *Family) error {
	if !f.Aligned(g) {
		return ErrNotAligned
	}
	if len(f.copies) != len(g.copies) {
		return fmt.Errorf("core: merging families with %d and %d copies", len(f.copies), len(g.copies))
	}
	for i, t := range g.totals {
		f.totals[i] += t
	}
	for i, c := range g.counts {
		f.counts[i] += c
	}
	f.markAll(0, len(f.copies))
	f.bumpVersion()
	return nil
}

// Clone returns a deep copy of the family. The copies share the
// original's immutable hash functions; only counter storage is
// duplicated.
func (f *Family) Clone() *Family {
	g := &Family{
		cfg:     f.cfg,
		seed:    f.seed,
		copies:  make([]*Sketch, len(f.copies)),
		totals:  make([]int64, len(f.totals)),
		counts:  make([]int64, len(f.counts)),
		version: new(atomic.Uint64),
		dirty:   make([]uint64, len(f.copies)*arenaAlign),
	}
	copy(g.totals, f.totals)
	copy(g.counts, f.counts)
	for i, x := range f.copies {
		g.copies[i] = x.viewWith(g.copyTotals(i), g.copyCounts(i), &g.dirty[i*arenaAlign])
	}
	return g
}

// Reset zeroes every copy's counters.
func (f *Family) Reset() {
	for i := range f.totals {
		f.totals[i] = 0
	}
	for i := range f.counts {
		f.counts[i] = 0
	}
	f.markAll(0, len(f.copies))
	f.bumpVersion()
}

// Truncate returns a view of the family restricted to its first r
// copies, sharing counter storage with f. Estimating from a prefix of
// a larger family is how the experiment harness sweeps the
// accuracy-vs-space trade-off without rebuilding synopses.
func (f *Family) Truncate(r int) (*Family, error) {
	if r < 1 || r > len(f.copies) {
		return nil, fmt.Errorf("core: truncating %d-copy family to %d copies", len(f.copies), r)
	}
	return &Family{
		cfg:    f.cfg,
		seed:   f.seed,
		copies: f.copies[:r],
		totals: f.totals[:r*f.cfg.strideTotals()],
		counts: f.counts[:r*f.cfg.strideCounts()],
		// Share the parent's version counter: the view aliases the
		// parent's counter storage, so mutations through either must
		// invalidate both caches. The view cache itself is per-view
		// (different r ⇒ different bitmap shapes), and with no mask of
		// its own (dirty is nil) the truncated family never clears the
		// parent's masks: it rebuilds its view in full.
		version: f.version,
	}, nil
}

// Equal reports whether both families are aligned and every pair of
// corresponding copies holds identical counters.
func (f *Family) Equal(g *Family) bool {
	if !f.Aligned(g) || len(f.copies) != len(g.copies) {
		return false
	}
	for i, t := range f.totals {
		if t != g.totals[i] {
			return false
		}
	}
	for i, c := range f.counts {
		if c != g.counts[i] {
			return false
		}
	}
	return true
}

// Validate checks the internal invariants of every copy.
func (f *Family) Validate() error {
	for i, x := range f.copies {
		if err := x.Validate(); err != nil {
			return fmt.Errorf("copy %d: %w", i, err)
		}
	}
	return nil
}

// MemoryBytes reports the total counter footprint across all copies,
// r·Buckets·(s+1) int64s — the quantity the paper's space theorems
// bound, excluding the arena alignment padding (which is an
// implementation artifact, not synopsis state) and the O(t log M)
// hash-seed storage.
func (f *Family) MemoryBytes() int {
	return 8 * len(f.copies) * (f.cfg.Buckets + f.cfg.counters())
}
