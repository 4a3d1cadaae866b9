package ingest

import (
	"runtime"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// TestDigestCacheRetainsOnlyItsEntries installs one digest from each of
// many DigestBatch slabs into a small cache, drops the slabs, and
// requires the live heap to have grown by no more than the cache's own
// entries: slots × r words, with 25% slack for allocator rounding and
// runtime noise. A cache that kept the caller's digest would keep each
// surviving entry's whole slab alive — 16 digests per slab here, about
// 16× the bound.
func TestDigestCacheRetainsOnlyItsEntries(t *testing.T) {
	const r, slots, slabs, perSlab = 128, 256, 1024, 16
	fam, err := core.NewFamily(core.Config{Buckets: 61, SecondLevel: 32, FirstWise: 8}, 9, r)
	if err != nil {
		t.Fatal(err)
	}
	c := NewDigestCache(slots, fam.Seed(), new(obs.Counter), new(obs.Counter), new(obs.Counter))
	elems := make([]uint64, perSlab)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := 0; k < slabs; k++ {
		for i := range elems {
			elems[i] = uint64(k*perSlab + i)
		}
		ds := fam.DigestBatch(elems)
		c.install([]wal.DigestUpdate{{Elem: elems[0], Digest: ds[0]}}, []int{0})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	filled := 0
	for k := 0; k < slabs; k++ {
		if c.Contains(uint64(k * perSlab)) {
			filled++
		}
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	limit := int64(1.25 * slots * r * 8)
	t.Logf("%d of %d slots filled; live heap grew %d B, limit %d B", filled, slots, grown, limit)
	if grown > limit {
		t.Errorf("live heap grew %d B after dropping every slab, want ≤ %d B (1.25 × %d slots × %d words × 8 B)",
			grown, limit, slots, r)
	}
	runtime.KeepAlive(fam)
	runtime.KeepAlive(c)
}
