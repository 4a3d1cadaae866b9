package datagen

import (
	"fmt"
	"math"
	"sort"

	"setsketch/internal/hashing"
)

// Continuous load generation: the one workload definition shared by the
// benchmarks. The repository benchmark (bench/) and cmd/streamgen
// -updates both draw from a LoadGen, so "Zipf(1.0) over 2^14 elements
// with 10% deletions" means exactly the same update stream everywhere a
// number is reported.

// zipfSampler draws elements i.i.d. from a Zipf(theta) frequency law
// over a fixed support, by inverse-CDF search over precomputed
// cumulative weights. It is the sampling core behind ZipfStream and
// LoadGen.
type zipfSampler struct {
	elems []uint64
	cum   []float64
	total float64
}

func newZipfSampler(d Domain, support int, theta float64, rng *hashing.RNG) (*zipfSampler, error) {
	if support < 1 {
		return nil, fmt.Errorf("datagen: Zipf support %d < 1", support)
	}
	if theta < 0 {
		return nil, fmt.Errorf("datagen: Zipf skew %g < 0", theta)
	}
	elems, err := Elements(d, support, rng)
	if err != nil {
		return nil, err
	}
	z := &zipfSampler{elems: elems, cum: make([]float64, support)}
	for i := range z.cum {
		z.total += 1 / math.Pow(float64(i+1), theta)
		z.cum[i] = z.total
	}
	return z, nil
}

// draw samples one element; rank i (0-based) is drawn with probability
// proportional to 1/(i+1)^theta.
func (z *zipfSampler) draw(rng *hashing.RNG) uint64 {
	j := sort.SearchFloat64s(z.cum, rng.Float64()*z.total)
	if j >= len(z.elems) {
		j = len(z.elems) - 1
	}
	return z.elems[j]
}

// LoadSpec configures a continuous synthetic load.
type LoadSpec struct {
	// Streams are the stream names insertions rotate through. Must be
	// non-empty.
	Streams []string
	// Domain shapes the element values (DomainUniform is the paper's
	// setting).
	Domain Domain
	// Support is the number of distinct elements insertions draw from.
	Support int
	// Theta is the Zipf skew over the support; 0 is uniform, 1.0 the
	// classic web/caching skew.
	Theta float64
	// Deletes in [0, 1] is the fraction of updates that are deletions.
	// Deletions always target an element with positive net frequency
	// (the paper's §2.1 strict-update model: no prefix of the stream
	// drives any frequency negative), so when nothing is live an
	// insertion is emitted instead.
	Deletes float64
}

// liveKey identifies a (stream, element) pair with positive net
// frequency.
type liveKey struct {
	stream string
	elem   uint64
}

// LoadGen emits an endless update stream matching a LoadSpec. The
// sequence is a deterministic function of the spec and the RNG seed.
// It tracks net frequencies so deletions are always legal; state is
// bounded by |Streams| × Support.
type LoadGen struct {
	spec LoadSpec
	rng  *hashing.RNG
	zipf *zipfSampler
	n    uint64 // updates emitted, drives stream rotation

	net  map[liveKey]int64 // positive net frequencies
	pos  map[liveKey]int   // index of each live key in keys
	keys []liveKey         // live keys, for O(1) uniform choice
}

// NewLoadGen validates spec and builds a generator drawing randomness
// from rng (which also lays out the element support).
func NewLoadGen(spec LoadSpec, rng *hashing.RNG) (*LoadGen, error) {
	if len(spec.Streams) == 0 {
		return nil, fmt.Errorf("datagen: load spec has no streams")
	}
	for _, s := range spec.Streams {
		if s == "" {
			return nil, fmt.Errorf("datagen: empty stream name in load spec")
		}
	}
	if spec.Deletes < 0 || spec.Deletes > 1 {
		return nil, fmt.Errorf("datagen: delete ratio %g outside [0, 1]", spec.Deletes)
	}
	z, err := newZipfSampler(spec.Domain, spec.Support, spec.Theta, rng)
	if err != nil {
		return nil, err
	}
	return &LoadGen{
		spec: spec,
		rng:  rng,
		zipf: z,
		net:  make(map[liveKey]int64),
		pos:  make(map[liveKey]int),
	}, nil
}

// Next emits the next update of the stream.
func (g *LoadGen) Next() Update {
	g.n++
	if g.spec.Deletes > 0 && len(g.keys) > 0 && g.rng.Float64() < g.spec.Deletes {
		k := g.keys[g.rng.Intn(len(g.keys))]
		g.net[k]--
		if g.net[k] == 0 {
			g.dropLive(k)
		}
		return Update{Stream: k.stream, Elem: k.elem, Delta: -1}
	}
	k := liveKey{
		stream: g.spec.Streams[g.n%uint64(len(g.spec.Streams))],
		elem:   g.zipf.draw(g.rng),
	}
	if g.net[k] == 0 {
		g.pos[k] = len(g.keys)
		g.keys = append(g.keys, k)
	}
	g.net[k]++
	return Update{Stream: k.stream, Elem: k.elem, Delta: 1}
}

// dropLive removes k from the live-key slice by swapping the last key
// into its slot.
func (g *LoadGen) dropLive(k liveKey) {
	i := g.pos[k]
	last := len(g.keys) - 1
	g.keys[i] = g.keys[last]
	g.pos[g.keys[i]] = i
	g.keys = g.keys[:last]
	delete(g.pos, k)
	delete(g.net, k)
}

// Fill overwrites ups with the next len(ups) updates — the batch form
// for hot loops that reuse one slice.
func (g *LoadGen) Fill(ups []Update) {
	for i := range ups {
		ups[i] = g.Next()
	}
}

// Updates returns the next n updates as a fresh slice.
func (g *LoadGen) Updates(n int) []Update {
	ups := make([]Update, n)
	g.Fill(ups)
	return ups
}

// Live reports the number of (stream, element) pairs with positive net
// frequency — the exact distinct count of the stream so far, for
// accuracy checks against estimates.
func (g *LoadGen) Live() int { return len(g.keys) }
