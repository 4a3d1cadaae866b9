// Package core implements the paper's primary contribution: the 2-level
// hash sketch synopsis for continuous update streams and the (ε, δ)
// estimators for set union, set difference, set intersection, and general
// set-expression cardinalities built on it (Ganguly, Garofalakis,
// Rastogi; SIGMOD 2003).
//
// A 2-level hash sketch for a streaming multi-set A is conceptually a
// three-dimensional counter array X_A of size Θ(log M) × s × 2 (paper
// Fig. 3). The first level places each element e in bucket LSB(h(e))
// for a t-wise independent hash h, so bucket l receives a 2^−(l+1)
// fraction of the distinct elements. The second level splits each
// bucket's elements by s pairwise-independent binary hashes g_1 … g_s,
// enabling high-confidence singleton tests (§3.2). Counters rather than
// bits make the synopsis linear: an update ⟨e, ±v⟩ adds ±v to the s+1
// affected counters, so deletions exactly cancel insertions ("the sketch
// obtained at the end of an update stream is identical to a sketch that
// never sees the deleted items", §3.1) and sketches of sub-streams merge
// by counter addition — the property that powers both the distributed
// stored-coins model and the n-way singleton-union checks of §4.
//
//sketchvet:bitexact
package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"setsketch/internal/hashing"
)

// Config carries the shape parameters of a 2-level hash sketch.
type Config struct {
	// Buckets is the number of first-level buckets (Θ(log M) in the
	// paper; the default is the hash-field width, 61, which covers
	// domains up to M² for M = 2^30 just as the paper's h: [M] → [M^k]
	// with k = 2 does).
	Buckets int

	// SecondLevel is s, the number of second-level binary hash
	// functions. Each elementary property check errs with probability
	// at most 2^−s (Lemma 3.1). The paper's experiments fix s = 32.
	SecondLevel int

	// FirstWise is the independence degree t of the first-level hash
	// family. §3.6 shows t = Θ(log 1/ε) suffices; the default of 8
	// covers ε down to well below 1%, and the cap of maxFirstWise is
	// far beyond any useful ε.
	FirstWise int
}

// maxFirstWise caps Config.FirstWise. Each copy stores t polynomial
// coefficients, so without a cap a decoded header could make a few
// bytes of payload build gigabytes of hash functions.
const maxFirstWise = 64

// maxSecondLevel caps Config.SecondLevel so that one copy's whole hash
// outcome — the bucket index and all s second-level bits — packs into
// one digest word (see digestWord). At s = 58 a singleton check already
// errs with probability 2^−58; the paper fixes s = 32.
const maxSecondLevel = 64 - digestBucketBits

// DefaultConfig returns the configuration used throughout the paper's
// experimental study (§5): s = 32 second-level functions, 8-wise
// independent first-level hashing, and the full 61-bucket first level.
func DefaultConfig() Config {
	return Config{Buckets: hashing.FieldBits, SecondLevel: 32, FirstWise: 8}
}

// Validate checks the configuration and returns a descriptive error if
// any parameter is out of range.
func (c Config) Validate() error {
	if c.Buckets < 1 || c.Buckets > hashing.FieldBits {
		return fmt.Errorf("core: Buckets = %d out of range [1, %d]", c.Buckets, hashing.FieldBits)
	}
	if c.SecondLevel < 1 {
		return fmt.Errorf("core: SecondLevel = %d, need at least 1", c.SecondLevel)
	}
	if c.SecondLevel > maxSecondLevel {
		return fmt.Errorf("core: SecondLevel = %d exceeds %d (an element's hash outcome must pack into one 64-bit digest word per copy)", c.SecondLevel, maxSecondLevel)
	}
	if c.FirstWise < 2 {
		return fmt.Errorf("core: FirstWise = %d, need at least pairwise (2)", c.FirstWise)
	}
	if c.FirstWise > maxFirstWise {
		return fmt.Errorf("core: FirstWise = %d exceeds %d", c.FirstWise, maxFirstWise)
	}
	return nil
}

// counters returns the number of stored second-level counters in one
// sketch: one per pair (side 1; side 0 is derived, see Sketch.counts).
func (c Config) counters() int { return c.Buckets * c.SecondLevel }

// Sketch is a single 2-level hash sketch instance: one first-level hash
// function, s second-level binary hash functions, and the counter
// array. Sketches built from the same (seed, Config) pair use identical
// hash functions and can be merged and compared bucket-by-bucket.
//
// Sketch methods are not safe for concurrent mutation; wrap updates in
// external synchronization or shard streams across goroutines.
type Sketch struct {
	cfg  Config
	seed uint64
	h    *hashing.Poly
	g    []*hashing.PairBit
	// gbank is g flattened into contiguous coefficient arrays for the
	// batch digest kernel. Same functions, same bits.
	gbank *hashing.PairBitBank

	// totals[b] is the sum of net frequencies of all elements in
	// first-level bucket b — the single O(log N) counter per bucket
	// that the set-union estimator needs (§3.3), and an O(1) emptiness
	// test.
	totals []int64

	// counts holds side 1 of every second-level pair of the paper's
	// Θ(log M) × s × 2 array: X[b][j][1] lives at index b·s + j. An
	// update adds its v to the total and to exactly one side of every
	// pair, so X[b][j][0] + X[b][j][1] = totals[b] always holds, and
	// side 0 is derived as totals[b] − counts[b·s + j] instead of
	// stored (see count). The identity is exact in wrapping int64
	// arithmetic, so it survives illegal deletions too.
	counts []int64

	// dirty is the copy's dirty-bucket mask: bit b is set when bucket
	// b's counters changed since the owning family last refreshed its
	// query view (see queryview.go). It points into the family's mask
	// storage; a standalone sketch owns a private word nobody reads.
	dirty *uint64
}

// NewSketch builds an empty sketch whose hash functions are derived
// deterministically from seed. Two sketches with equal (cfg, seed) are
// aligned: they place every element identically.
func NewSketch(cfg Config, seed uint64) (*Sketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newSketchView(cfg, seed, make([]int64, cfg.Buckets), make([]int64, cfg.counters()), new(uint64)), nil
}

// newSketchView builds a sketch whose counters and dirty-bucket mask
// live in caller-provided storage. Family uses it to lay all r copies'
// counters out in two contiguous family-owned slices; cfg must already
// be validated.
func newSketchView(cfg Config, seed uint64, totals, counts []int64, dirty *uint64) *Sketch {
	g := make([]*hashing.PairBit, cfg.SecondLevel)
	for j := range g {
		g[j] = hashing.NewPairBit(hashing.DeriveSeed(seed, 1, uint64(j)))
	}
	return &Sketch{
		cfg:    cfg,
		seed:   seed,
		h:      hashing.NewPoly(hashing.DeriveSeed(seed, 0), cfg.FirstWise),
		g:      g,
		gbank:  hashing.NewPairBitBank(g),
		totals: totals,
		counts: counts,
		dirty:  dirty,
	}
}

// viewWith returns a sketch sharing x's immutable hash functions but
// reading and writing the given counter and mask storage. Cloning a
// family re-uses the already-derived coins this way instead of
// re-running the seed derivation r·(s+1) times.
func (x *Sketch) viewWith(totals, counts []int64, dirty *uint64) *Sketch {
	return &Sketch{cfg: x.cfg, seed: x.seed, h: x.h, g: x.g, gbank: x.gbank,
		totals: totals, counts: counts, dirty: dirty}
}

// Config returns the sketch's configuration.
func (x *Sketch) Config() Config { return x.cfg }

// Seed returns the seed the sketch's hash functions were derived from.
func (x *Sketch) Seed() uint64 { return x.seed }

// Update applies the stream update ⟨e, ±v⟩: it adds v to the total
// counter of bucket LSB(h(e)) and to the matching second-level counter
// under every g_j (§3.1). Only side-1 counters are stored, so the cost
// is one total addition, one addition per g_j(e) = 1 (s/2 on average),
// and s+1 hash evaluations per stream item. It packs the hash outcome
// into a digest word and replays it, like every other update path.
func (x *Sketch) Update(e uint64, v int64) {
	x.applyDigest(x.digestWord(hashing.Reduce61(e)), v)
}

// Digest packing: one uint64 per copy carries everything the update
// path needs to know about an element — the first-level bucket in the
// low digestBucketBits bits (buckets range over [0, 61), so 6 bits
// suffice) and the s second-level bits above them. Replaying a packed
// word is one total addition plus one per set second-level bit, with
// zero field arithmetic, which is what makes digests worth caching:
// the hashes are a pure function of (seed, element), so the expensive
// part is paid once per distinct element rather than once per stream
// item.
const (
	digestBucketBits = 6
	digestBucketMask = 1<<digestBucketBits - 1
)

// digestWord evaluates all of the sketch's hash functions at the
// reduced element er and packs the outcome: bucket | secondLevelBits<<6.
func (x *Sketch) digestWord(er uint64) uint64 {
	b := hashing.LSB(x.h.HashReduced(er), x.cfg.Buckets)
	return uint64(b) | hashing.PackBits(x.g, er)<<digestBucketBits
}

// applyDigest replays a packed digest word: the total plus the side-1
// counter of every set second-level bit, about s/2 additions. It is the
// one counter-apply loop: hashing updates go through it too. The bits
// are masked to s so a malformed word cannot reach past the bucket. (A
// branch-free add over all s lanes, c[j] += v & −bit, measured slower
// than this set-bit walk.)
func (x *Sketch) applyDigest(w uint64, v int64) {
	b := int(w & digestBucketMask)
	*x.dirty |= 1 << uint(b)
	x.totals[b] += v
	s := x.cfg.SecondLevel
	c := x.counts[b*s : b*s+s]
	for bs := w >> digestBucketBits & (1<<uint(s) - 1); bs != 0; bs &= bs - 1 {
		c[bits.TrailingZeros64(bs)] += v
	}
}

// Insert is Update(e, +1).
func (x *Sketch) Insert(e uint64) { x.Update(e, 1) }

// Delete is Update(e, −1).
func (x *Sketch) Delete(e uint64) { x.Update(e, -1) }

// count returns counter (b, j, bit), deriving side 0 from the bucket
// total.
func (x *Sketch) count(b, j, bit int) int64 {
	c1 := x.counts[b*x.cfg.SecondLevel+j]
	if bit == 1 {
		return c1
	}
	return x.totals[b] - c1
}

// BucketTotal returns the total live count of first-level bucket b.
func (x *Sketch) BucketTotal(b int) int64 { return x.totals[b] }

// BucketEmpty reports whether first-level bucket b holds no live
// elements. Because legal update streams keep every element's net
// frequency non-negative, the bucket total is zero exactly when the
// bucket is empty — no probabilistic argument is needed.
func (x *Sketch) BucketEmpty(b int) bool { return x.totals[b] == 0 }

// Aligned reports whether two sketches were built with the same hash
// functions (same seed and configuration) and can therefore be merged
// or compared bucket-by-bucket.
func (x *Sketch) Aligned(y *Sketch) bool {
	return x.cfg == y.cfg && x.seed == y.seed
}

// ErrNotAligned is returned when sketches built with different hash
// functions or shapes are merged or compared.
var ErrNotAligned = errors.New("core: sketches are not aligned (different seed or configuration)")

// Merge adds y's counters into x, so that x becomes the sketch of the
// combined update stream (multi-set sum). This is exact, not
// approximate: linearity of the counters means merging distributed
// sub-streams is indistinguishable from having observed one stream.
func (x *Sketch) Merge(y *Sketch) error {
	if !x.Aligned(y) {
		return ErrNotAligned
	}
	for i, t := range y.totals {
		x.totals[i] += t
	}
	for i, c := range y.counts {
		x.counts[i] += c
	}
	return nil
}

// Clone returns a deep copy of the sketch.
func (x *Sketch) Clone() *Sketch {
	c := &Sketch{cfg: x.cfg, seed: x.seed, h: x.h, g: x.g,
		totals: make([]int64, len(x.totals)),
		counts: make([]int64, len(x.counts)),
		dirty:  new(uint64),
	}
	copy(c.totals, x.totals)
	copy(c.counts, x.counts)
	return c
}

// Reset zeroes all counters, returning the sketch to its initial state
// while keeping its hash functions.
func (x *Sketch) Reset() {
	for i := range x.totals {
		x.totals[i] = 0
	}
	for i := range x.counts {
		x.counts[i] = 0
	}
}

// Equal reports whether two sketches are aligned and hold identical
// counters. It is the observable identity behind deletion-invariance:
// a stream and its deletion-free equivalent produce Equal sketches.
func (x *Sketch) Equal(y *Sketch) bool {
	if !x.Aligned(y) {
		return false
	}
	for i := range x.totals {
		if x.totals[i] != y.totals[i] {
			return false
		}
	}
	for i := range x.counts {
		if x.counts[i] != y.counts[i] {
			return false
		}
	}
	return true
}

// Validate checks the invariant that holds for every legal update
// stream: all counters, both sides of every pair, non-negative. A
// violation indicates illegal deletions (net frequency driven
// negative). Every pair sums to its bucket total by construction.
func (x *Sketch) Validate() error {
	for b := 0; b < x.cfg.Buckets; b++ {
		if x.totals[b] < 0 {
			return fmt.Errorf("core: bucket %d total %d is negative (illegal deletions)", b, x.totals[b])
		}
		for j := 0; j < x.cfg.SecondLevel; j++ {
			c0, c1 := x.count(b, j, 0), x.count(b, j, 1)
			if c0 < 0 || c1 < 0 {
				return fmt.Errorf("core: counter (%d, %d) negative: (%d, %d)", b, j, c0, c1)
			}
		}
	}
	return nil
}

// MemoryBytes reports the counter-array footprint of the sketch in
// bytes (the quantity the paper's space theorems bound, excluding the
// O(t log M) hash-seed storage).
func (x *Sketch) MemoryBytes() int {
	return 8 * (len(x.totals) + len(x.counts))
}

// FirstLevelDistribution returns, for diagnostics, the fraction of the
// total live count in each first-level bucket.
func (x *Sketch) FirstLevelDistribution() []float64 {
	var sum int64
	for _, t := range x.totals {
		sum += t
	}
	out := make([]float64, len(x.totals))
	if sum == 0 {
		return out
	}
	for i, t := range x.totals {
		out[i] = float64(t) / float64(sum)
	}
	return out
}

// chooseWitnessLevel computes the first-level bucket index used by the
// witness-based estimators: j = ⌈log₂(β·û/(1−ε))⌉ (Fig. 6 step 1),
// clamped into the valid bucket range.
func chooseWitnessLevel(cfg Config, unionEstimate, beta, eps float64) int {
	if unionEstimate < 1 {
		return 0
	}
	j := int(math.Ceil(math.Log2(beta * unionEstimate / (1 - eps))))
	if j < 0 {
		j = 0
	}
	if j > cfg.Buckets-1 {
		j = cfg.Buckets - 1
	}
	return j
}
