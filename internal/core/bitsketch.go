package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"setsketch/internal/hashing"
)

// BitSketch is the insert-only variant of the 2-level hash sketch that
// the paper's own experimental study uses (§5.2: "since we are only
// considering insert-only streams, this estimate assumes simple bits
// (instead of counters) at each cell"). Every Θ(log M) × s × 2 cell is
// one bit; the counter sketch stores s+1 int64s per bucket (the total
// and one side of each pair), so the bits are 32·(s+1)/s smaller, ≈33×
// at s = 32 — at the cost of deletions: bits saturate, so only
// insertion streams are supported (Delete returns ErrBitDeletion).
//
// A BitSketch built with the same (Config, seed) as a counter Sketch
// places every element identically, and on an insert-only stream the
// two have identical occupancy patterns — so every estimator returns
// the *same* value from either representation (tested in
// bitsketch_test.go).
type BitSketch struct {
	cfg  Config
	seed uint64
	h    *hashing.Poly
	g    []*hashing.PairBit
	// bits holds the packed cell bits; cell (b, j, v) is bit
	// (b·s + j)·2 + v of the array.
	bits []uint64
}

// ErrBitDeletion is returned by BitSketch.Delete: bit cells saturate
// and cannot express deletions — the limitation that motivates the
// counter-based sketch.
var ErrBitDeletion = errors.New("core: bit sketches are insert-only; use counter sketches for update streams with deletions")

// NewBitSketch builds an empty insert-only sketch; see NewSketch for
// the seed/alignment contract.
func NewBitSketch(cfg Config, seed uint64) (*BitSketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := make([]*hashing.PairBit, cfg.SecondLevel)
	for j := range g {
		g[j] = hashing.NewPairBit(hashing.DeriveSeed(seed, 1, uint64(j)))
	}
	cells := cfg.Buckets * cfg.SecondLevel * 2
	return &BitSketch{
		cfg:  cfg,
		seed: seed,
		h:    hashing.NewPoly(hashing.DeriveSeed(seed, 0), cfg.FirstWise),
		g:    g,
		bits: make([]uint64, (cells+63)/64),
	}, nil
}

// Config returns the sketch's configuration.
func (x *BitSketch) Config() Config { return x.cfg }

// Seed returns the seed the sketch's hash functions derive from.
func (x *BitSketch) Seed() uint64 { return x.seed }

// cell returns the packed bit index of cell (b, j, v).
func (x *BitSketch) cell(b, j, v int) int {
	return (b*x.cfg.SecondLevel+j)*2 + v
}

// bit reads cell (b, j, v).
func (x *BitSketch) bit(b, j, v int) bool {
	c := x.cell(b, j, v)
	return x.bits[c/64]&(1<<uint(c%64)) != 0
}

// Insert records one occurrence of e (multiplicities are irrelevant —
// bits saturate, which is fine for distinct counting).
func (x *BitSketch) Insert(e uint64) {
	b := hashing.LSB(x.h.Hash(e), x.cfg.Buckets)
	er := hashing.Reduce61(e)
	base := b * x.cfg.SecondLevel * 2
	for j, g := range x.g {
		c := base + 2*j + g.BitReduced(er)
		x.bits[c/64] |= 1 << uint(c%64)
	}
}

// Delete always fails; see ErrBitDeletion.
func (x *BitSketch) Delete(uint64) error { return ErrBitDeletion }

// BucketEmpty reports whether bucket b has seen no element. Every
// element sets exactly one of the two g_1 cells, so emptiness is the
// conjunction of both being clear.
func (x *BitSketch) BucketEmpty(b int) bool {
	return !x.bit(b, 0, 0) && !x.bit(b, 0, 1)
}

// SingletonBucket reports whether bucket b holds exactly one distinct
// element, with the Lemma 3.1 guarantee (error probability 2^−s for
// buckets holding ≥ 2 distinct values).
func (x *BitSketch) SingletonBucket(b int) bool {
	if x.BucketEmpty(b) {
		return false
	}
	for j := 0; j < x.cfg.SecondLevel; j++ {
		if x.bit(b, j, 0) && x.bit(b, j, 1) {
			return false
		}
	}
	return true
}

// Aligned reports whether two bit sketches share hash functions.
func (x *BitSketch) Aligned(y *BitSketch) bool {
	return x.cfg == y.cfg && x.seed == y.seed
}

// Merge ORs y into x, producing the sketch of the union of the two
// insert streams (bits saturate, so OR is exactly set union).
func (x *BitSketch) Merge(y *BitSketch) error {
	if !x.Aligned(y) {
		return ErrNotAligned
	}
	for i, w := range y.bits {
		x.bits[i] |= w
	}
	return nil
}

// Clone returns a deep copy.
func (x *BitSketch) Clone() *BitSketch {
	c := &BitSketch{cfg: x.cfg, seed: x.seed, h: x.h, g: x.g, bits: make([]uint64, len(x.bits))}
	copy(c.bits, x.bits)
	return c
}

// Reset clears all bits.
func (x *BitSketch) Reset() {
	for i := range x.bits {
		x.bits[i] = 0
	}
}

// Equal reports alignment plus identical bit contents.
func (x *BitSketch) Equal(y *BitSketch) bool {
	if !x.Aligned(y) {
		return false
	}
	for i := range x.bits {
		if x.bits[i] != y.bits[i] {
			return false
		}
	}
	return true
}

// MemoryBytes reports the packed bit-array footprint — the quantity
// behind the paper's "number of sketches × 32 bytes" space accounting.
func (x *BitSketch) MemoryBytes() int { return len(x.bits) * 8 }

// MatchesCounters reports whether a counter sketch built with the same
// coins over the same insert-only stream has the same occupancy
// pattern (cell non-zero ⇔ bit set) — the bridge invariant between
// the two representations.
func (x *BitSketch) MatchesCounters(y *Sketch) bool {
	if x.cfg != y.cfg || x.seed != y.seed {
		return false
	}
	for b := 0; b < x.cfg.Buckets; b++ {
		for j := 0; j < x.cfg.SecondLevel; j++ {
			for v := 0; v < 2; v++ {
				if x.bit(b, j, v) != (y.count(b, j, v) > 0) {
					return false
				}
			}
		}
	}
	return true
}

// BitFamily is the r-fold replicated bit synopsis, mirroring Family.
type BitFamily struct {
	cfg    Config
	seed   uint64
	copies []*BitSketch

	// Query-view invalidation, mirroring Family: mutate only through
	// BitFamily-level methods (Insert/Merge), not Copy(i).Insert, or the
	// cached view goes stale. Truncate views share the version pointer.
	version *atomic.Uint64
	viewMu  sync.Mutex
	view    *familyView
}

// NewBitFamily builds a family of r empty bit sketches from a master
// seed; copy i's coins match copy i of a counter Family built from the
// same (cfg, seed).
func NewBitFamily(cfg Config, seed uint64, r int) (*BitFamily, error) {
	if r < 1 {
		return nil, fmt.Errorf("core: bit family needs at least 1 copy, got %d", r)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	copies := make([]*BitSketch, r)
	for i := range copies {
		sk, err := NewBitSketch(cfg, hashing.DeriveSeed(seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		copies[i] = sk
	}
	return &BitFamily{cfg: cfg, seed: seed, copies: copies, version: new(atomic.Uint64)}, nil
}

// Config returns the family's configuration.
func (f *BitFamily) Config() Config { return f.cfg }

// Seed returns the family's master seed.
func (f *BitFamily) Seed() uint64 { return f.seed }

// Copies returns the copy count r.
func (f *BitFamily) Copies() int { return len(f.copies) }

// Copy returns the i-th sketch.
func (f *BitFamily) Copy(i int) *BitSketch { return f.copies[i] }

// Insert records one occurrence of e in every copy.
func (f *BitFamily) Insert(e uint64) {
	for _, x := range f.copies {
		x.Insert(e)
	}
	f.bumpVersion()
}

// Aligned reports shared coins.
func (f *BitFamily) Aligned(g *BitFamily) bool {
	return f.cfg == g.cfg && f.seed == g.seed
}

// Merge ORs g into f copy-by-copy.
func (f *BitFamily) Merge(g *BitFamily) error {
	if !f.Aligned(g) {
		return ErrNotAligned
	}
	if len(f.copies) != len(g.copies) {
		return fmt.Errorf("core: merging bit families with %d and %d copies", len(f.copies), len(g.copies))
	}
	for i := range f.copies {
		if err := f.copies[i].Merge(g.copies[i]); err != nil {
			return err
		}
	}
	f.bumpVersion()
	return nil
}

// Truncate returns a prefix view sharing storage with f.
func (f *BitFamily) Truncate(r int) (*BitFamily, error) {
	if r < 1 || r > len(f.copies) {
		return nil, fmt.Errorf("core: truncating %d-copy bit family to %d copies", len(f.copies), r)
	}
	return &BitFamily{cfg: f.cfg, seed: f.seed, copies: f.copies[:r], version: f.version}, nil
}

// ToCounters converts the bit family into a counter family with the
// same coins and the same occupancy: a cell is non-zero exactly when
// its bit is set. Per bucket, the total is 0 when no cell is set, 2
// when some pair has both cells set, and 1 otherwise; a pair's side-1
// counter is 0 when only side 0 is set, 1 when both are, and the
// total when only side 1 is. Emptiness, singleton checks, and
// therefore every estimate are preserved exactly. Every counter is
// non-negative, so merging the result with genuine counter families
// of the same coins (or with other converted families) ORs the
// occupancy: magnitudes stop tracking multiplicities, but no estimator
// reads magnitudes, only signs.
//
// Bits cannot recover how many items a cell absorbed, so the result is
// an occupancy summary, which is all estimation needs. (A pair with
// neither cell set in an occupied bucket, which no insert stream
// produces, converts as side 0 set.)
func (f *BitFamily) ToCounters() *Family {
	fam, err := NewFamily(f.cfg, f.seed, len(f.copies))
	if err != nil {
		// The bit family was built from the same validated config.
		panic(fmt.Sprintf("core: converting validated bit family: %v", err))
	}
	s := f.cfg.SecondLevel
	for i, x := range f.copies {
		sk := fam.copies[i]
		for b := 0; b < f.cfg.Buckets; b++ {
			var occupied, collided bool
			for j := 0; j < s; j++ {
				b0, b1 := x.bit(b, j, 0), x.bit(b, j, 1)
				occupied = occupied || b0 || b1
				collided = collided || b0 && b1
			}
			var t int64
			switch {
			case collided:
				t = 2
			case occupied:
				t = 1
			}
			sk.totals[b] = t
			for j := 0; j < s; j++ {
				switch b0, b1 := x.bit(b, j, 0), x.bit(b, j, 1); {
				case b0 && b1:
					sk.counts[b*s+j] = 1
				case b1:
					sk.counts[b*s+j] = t
				}
			}
		}
	}
	return fam
}

// MemoryBytes reports the total packed footprint.
func (f *BitFamily) MemoryBytes() int {
	var n int
	for _, x := range f.copies {
		n += x.MemoryBytes()
	}
	return n
}
