package cq

import (
	"time"

	"setsketch/internal/core"
)

// Ring is the windowed sketch state of one (view, group) pair: a ring
// of per-bucket family sets, each bucket covering one slide interval.
// The window estimate merges every live bucket; advancing the window
// drops the bucket that fell out of it — and by linearity that drop is
// exact, because a merged family is precisely the counter sum of its
// buckets. There is no decayed residue, no approximation: the merged
// window family is bit-identical to a family built from only the
// in-window updates (tested differentially in window_test.go).
//
// Ring does no locking: the Engine's embedder serializes mutations and
// keeps reads (Merged, LiveBuckets) from racing them.
type Ring struct {
	slide  time.Duration
	newFam func() (*core.Family, error)

	// buckets[i] is nil or the family set of one slide interval; head
	// indexes the current interval [start, start+slide).
	buckets []map[string]*core.Family
	head    int
	start   time.Time
}

// NewRing creates the state for one group of a windowed view:
// spec.Buckets() slots of spec.Slide width, the current bucket starting
// at now (aligned down to a slide boundary so bucket edges are stable
// across groups). newFam mints empty aligned families on demand.
func NewRing(spec ViewSpec, now time.Time, newFam func() (*core.Family, error)) *Ring {
	return &Ring{
		slide:   spec.Slide,
		newFam:  newFam,
		buckets: make([]map[string]*core.Family, spec.Buckets()),
		start:   now.Truncate(spec.Slide),
	}
}

// RotateTo advances the ring so its current bucket covers now,
// clearing each slot that wraps around (its contents fell out of the
// window). It returns how many slots advanced and how many non-empty
// buckets were evicted; evictions > 0 means the window's merged
// contents changed.
func (r *Ring) RotateTo(now time.Time) (rotations, evictions int) {
	steps := int64(now.Sub(r.start) / r.slide)
	if steps <= 0 {
		return 0, 0
	}
	n := int64(len(r.buckets))
	if steps >= n {
		// The whole window aged out (idle view, or a clock jump): every
		// bucket is evicted and the ring restarts at now's boundary.
		for i, b := range r.buckets {
			if len(b) > 0 {
				evictions++
			}
			r.buckets[i] = nil
		}
		r.head = 0
		r.start = now.Truncate(r.slide)
		return len(r.buckets), evictions
	}
	for i := int64(0); i < steps; i++ {
		r.start = r.start.Add(r.slide)
		r.head = (r.head + 1) % len(r.buckets)
		if len(r.buckets[r.head]) > 0 {
			evictions++
		}
		r.buckets[r.head] = nil
	}
	return int(steps), evictions
}

// family returns the current bucket's family for a stream, creating
// bucket and family on first touch.
func (r *Ring) family(stream string) (*core.Family, error) {
	b := r.buckets[r.head]
	if b == nil {
		b = make(map[string]*core.Family)
		r.buckets[r.head] = b
	}
	f, ok := b[stream]
	if !ok {
		var err error
		if f, err = r.newFam(); err != nil {
			return nil, err
		}
		b[stream] = f
	}
	return f, nil
}

// ObserveDigest applies one precomputed digest update to the current
// bucket — digests depend only on the stored coins, so a digest
// computed for the coordinator's stream family applies unchanged to
// any aligned bucket family.
func (r *Ring) ObserveDigest(stream string, d core.Digest, delta int64) error {
	f, err := r.family(stream)
	if err != nil {
		return err
	}
	f.UpdateDigest(d, delta)
	return nil
}

// MergeDelta merges a site-sketched synopsis delta into the current
// bucket (window position = coordinator arrival time).
func (r *Ring) MergeDelta(stream string, fam *core.Family) error {
	f, err := r.family(stream)
	if err != nil {
		return err
	}
	return f.Merge(fam)
}

// Merged returns the window's family set: every live bucket merged,
// per stream, into clones, leaving bucket state untouched, so Merged
// is read-only on the ring.
func (r *Ring) Merged() (map[string]*core.Family, error) {
	out := make(map[string]*core.Family)
	for _, b := range r.buckets {
		for name, f := range b {
			if cur, ok := out[name]; ok {
				if err := cur.Merge(f); err != nil {
					return nil, err
				}
			} else {
				out[name] = f.Clone()
			}
		}
	}
	return out, nil
}

// LiveBuckets counts buckets currently holding state.
func (r *Ring) LiveBuckets() int {
	n := 0
	for _, b := range r.buckets {
		if len(b) > 0 {
			n++
		}
	}
	return n
}
