package core

import "math/bits"

// familyView is the query kernel's packed occupancy summary of one
// family: everything the witness scan reads, cached behind the family's
// version counter and shared read-only by all estimate calls until the
// next mutation.
//
//   - occ[i] bit b       — copy i's first-level bucket b is non-empty.
//     One word per copy suffices because Config.Validate caps Buckets
//     at hashing.FieldBits = 61.
//   - sig[(i·Buckets+b)·wps + w] — word w of copy i / bucket b's cell
//     signature: bit 2j+v is "second-level cell (g_j, side v) hit",
//     side 0 read as total − side 1 (the stored counter).
//     A bucket is a singleton iff it is occupied and no g_j pair has
//     both sides hit: or&(or>>1)&pairMask == 0 (pairs never straddle a
//     word because the even side always sits at an even bit offset).
//
// Both are per-bucket functions of the counters, and an update touches
// one bucket per copy (§3.1), so a counter family keeps its view by
// delta: every write marks its bucket in the copy's dirty-bucket mask
// (Family.dirty), and the first read after the version moves copies the
// cached view, recomputes the marked buckets only, publishes the copy
// and clears the masks. A full build is the same refresh over a zero
// view with every bucket marked; it runs on the first read, and on
// every stale read of a Truncate view, which has no mask of its own.
// (Patching occ/sig eagerly whenever a counter crosses zero was
// measured and rejected: logging the flips doubled the per-update
// replay cost, 4.3 → 8.6 µs on a 2-vCPU host, where the mask OR is
// within noise.)
//
// A view is immutable once published — refreshes work on a copy — so
// concurrent estimates may share it freely. Callers keep the family's
// lock contract: writers exclusive, estimates under shared locks.
type familyView struct {
	version uint64   // family version the view was built at
	occ     []uint64 // len r
	sig     []uint64 // len r·Buckets·wps
	wps     int      // signature words per bucket: ceil(2s / 64)
}

// pairMask selects the even (side-0) bit of every second-level pair.
const pairMask = 0x5555555555555555

// sigWords returns the signature words per bucket for a configuration.
func sigWords(cfg Config) int { return (2*cfg.SecondLevel + 63) / 64 }

// sigCollision evaluates the packed singleton test over an OR-combined
// signature word: some pair has both sides hit ⇔ not a singleton.
func sigCollision(or uint64) bool { return or&(or>>1)&pairMask != 0 }

// Version returns the family's mutation counter. It starts at 0 and
// increases on every family-level mutation (Update, digest
// updates, Merge, MergeRange, Reset); Truncate views share the
// parent's counter. Watchers use it to skip re-evaluation rounds when
// nothing they reference has changed.
func (f *Family) Version() uint64 {
	if f.version == nil {
		return 0
	}
	return f.version.Load()
}

func (f *Family) bumpVersion() {
	if f.version != nil {
		f.version.Add(1)
	}
}

// Version mirrors Family.Version for bit families.
func (f *BitFamily) Version() uint64 {
	if f.version == nil {
		return 0
	}
	return f.version.Load()
}

func (f *BitFamily) bumpVersion() {
	if f.version != nil {
		f.version.Add(1)
	}
}

// queryView returns the current packed view of the family, refreshing
// it if the version counter moved since the cached one. Safe for
// concurrent callers (estimates run under read locks in the processor
// and coordinator); a nil version pointer (zero-value Family) disables
// caching and rebuilds every call.
func (f *Family) queryView() *familyView {
	f.viewMu.Lock()
	defer f.viewMu.Unlock()
	ver := f.Version()
	if f.view != nil && f.version != nil && f.view.version == ver {
		return f.view
	}
	v := f.refreshView(ver)
	if f.version != nil {
		f.view = v
	}
	return v
}

// refreshView builds the view at version ver: the cached view with the
// dirty buckets recomputed when the family owns its masks and has a
// cached view, every bucket recomputed otherwise.
func (f *Family) refreshView(ver uint64) *familyView {
	nb, s := f.cfg.Buckets, f.cfg.SecondLevel
	wps := sigWords(f.cfg)
	v := &familyView{
		version: ver,
		occ:     make([]uint64, len(f.copies)),
		sig:     make([]uint64, len(f.copies)*nb*wps),
		wps:     wps,
	}
	patch := f.dirty != nil && f.view != nil
	if patch {
		copy(v.occ, f.view.occ)
		copy(v.sig, f.view.sig)
		Stats.ViewPatches.Add(1)
	} else {
		Stats.ViewBuilds.Add(1)
	}
	all := uint64(1)<<uint(nb) - 1
	rebuilt := 0
	for i, x := range f.copies {
		dirty := all
		if patch {
			dirty = *x.dirty
		}
		if f.dirty != nil {
			*x.dirty = 0
		}
		rebuilt += bits.OnesCount64(dirty)
		occ := v.occ[i]
		sig := v.sig[i*nb*wps : (i+1)*nb*wps]
		for ; dirty != 0; dirty &= dirty - 1 {
			b := bits.TrailingZeros64(dirty)
			t := x.totals[b]
			occ &^= 1 << uint(b)
			if t != 0 {
				occ |= 1 << uint(b)
			}
			w := sig[b*wps : (b+1)*wps]
			clear(w)
			// Pair j is bits 2j (side 0, derived) and 2j+1 of word j/32.
			for j, c1 := range x.counts[b*s : (b+1)*s] {
				var cell uint64
				if t-c1 != 0 {
					cell = 1
				}
				if c1 != 0 {
					cell |= 2
				}
				w[j/32] |= cell << uint(2*j%64)
			}
		}
		v.occ[i] = occ
	}
	Stats.ViewBucketsRebuilt.Add(uint64(rebuilt))
	return v
}

// queryView mirrors Family.queryView for bit families. The signature
// words are the sketch's own packed cells re-laid per bucket; bucket
// occupancy comes from the g_1 pair exactly as BucketEmpty reads it.
func (f *BitFamily) queryView() *familyView {
	f.viewMu.Lock()
	defer f.viewMu.Unlock()
	ver := f.Version()
	if f.view != nil && f.version != nil && f.view.version == ver {
		return f.view
	}
	v := buildBitView(f, ver)
	if f.version != nil {
		f.view = v
	}
	return v
}

func buildBitView(f *BitFamily, ver uint64) *familyView {
	nb, s := f.cfg.Buckets, f.cfg.SecondLevel
	wps := sigWords(f.cfg)
	v := &familyView{
		version: ver,
		occ:     make([]uint64, len(f.copies)),
		sig:     make([]uint64, len(f.copies)*nb*wps),
		wps:     wps,
	}
	for i, x := range f.copies {
		var occ uint64
		base := i * nb * wps
		for b := 0; b < nb; b++ {
			first := b * s * 2
			var bucketOcc uint64
			for w := 0; w < wps; w++ {
				lo := first + w*64
				n := 2*s - w*64
				if n > 64 {
					n = 64
				}
				word := readBits(x.bits, lo, n)
				v.sig[base+b*wps+w] = word
				bucketOcc |= word
			}
			if bucketOcc != 0 {
				occ |= 1 << uint(b)
			}
		}
		v.occ[i] = occ
	}
	return v
}

// readBits extracts n (≤ 64) bits starting at absolute bit offset lo
// from a packed bit array.
func readBits(bits []uint64, lo, n int) uint64 {
	w, off := lo/64, uint(lo%64)
	out := bits[w] >> off
	if off > 0 && w+1 < len(bits) {
		out |= bits[w+1] << (64 - off)
	}
	if n < 64 {
		out &= 1<<uint(n) - 1
	}
	return out
}
