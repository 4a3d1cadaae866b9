package core

import (
	"strings"
	"testing"

	"setsketch/internal/hashing"
)

// TestUpdateRangeCoversFamily: splitting the copy index space into
// disjoint ranges and replaying each range separately, as the ingest
// workers do, must produce exactly the family a plain Update would have
// built.
func TestUpdateRangeCoversFamily(t *testing.T) {
	cfg := Config{Buckets: 32, SecondLevel: 8, FirstWise: 4}
	const r = 37 // deliberately not a multiple of the shard count
	whole, _ := NewFamily(cfg, 11, r)
	sharded, _ := NewFamily(cfg, 11, r)

	shards := [][2]int{{0, 10}, {10, 20}, {20, 37}}
	rng := hashing.NewRNG(3)
	for i := 0; i < 2000; i++ {
		e := rng.Uint64n(1 << 20)
		v := int64(1)
		if i%5 == 0 {
			v = -1
			e = rng.Uint64n(1 << 10) // deletions hit previously dense region
		}
		whole.Update(e, v)
		ds := []Digest{sharded.Digest(e)}
		for _, sh := range shards {
			sharded.UpdateRangeBatchDigest(sh[0], sh[1], ds, []int64{v})
		}
	}
	if !whole.Equal(sharded) {
		t.Fatal("sharded UpdateRangeBatchDigest differs from whole-family Update")
	}
	// Empty range is a no-op.
	before := sharded.Clone()
	sharded.UpdateRangeBatchDigest(5, 5, []Digest{sharded.Digest(42)}, []int64{1})
	if !before.Equal(sharded) {
		t.Error("empty UpdateRangeBatchDigest mutated the family")
	}
}

// TestMergeRangeCoversFamily: merging a delta shard-by-shard must equal
// a whole-family Merge.
func TestMergeRangeCoversFamily(t *testing.T) {
	cfg := Config{Buckets: 32, SecondLevel: 8, FirstWise: 4}
	const r = 16
	base, _ := NewFamily(cfg, 7, r)
	delta, _ := NewFamily(cfg, 7, r)
	rng := hashing.NewRNG(9)
	for i := 0; i < 500; i++ {
		base.Insert(rng.Uint64n(1 << 16))
		delta.Insert(rng.Uint64n(1 << 16))
	}
	whole := base.Clone()
	if err := whole.Merge(delta); err != nil {
		t.Fatal(err)
	}
	sharded := base.Clone()
	for _, sh := range [][2]int{{0, 5}, {5, 11}, {11, 16}} {
		if err := sharded.MergeRange(sh[0], sh[1], delta); err != nil {
			t.Fatal(err)
		}
	}
	if !whole.Equal(sharded) {
		t.Fatal("sharded MergeRange differs from whole-family Merge")
	}

	// Misaligned and copy-count-mismatched deltas are rejected.
	other, _ := NewFamily(cfg, 8, r)
	if err := sharded.MergeRange(0, 4, other); err == nil {
		t.Error("MergeRange accepted a misaligned delta")
	}
	short, _ := NewFamily(cfg, 7, r-1)
	if err := sharded.MergeRange(0, 4, short); err == nil {
		t.Error("MergeRange accepted a copy-count mismatch")
	}
}

// TestDigestMatchesUpdate: replaying a packed digest must touch exactly
// the counters a direct Update touches, across shapes, deletions, and
// the range entry points.
func TestDigestMatchesUpdate(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(), // paper shape: s = 32
		{Buckets: 8, SecondLevel: 1, FirstWise: 2},
		{Buckets: 61, SecondLevel: maxSecondLevel, FirstWise: 8},
	} {
		const r = 9
		direct, _ := NewFamily(cfg, 21, r)
		viaDigest, _ := NewFamily(cfg, 21, r)
		rng := hashing.NewRNG(8)
		for i := 0; i < 1500; i++ {
			e := rng.Uint64n(1 << 18)
			v := int64(rng.Intn(3) + 1)
			if i%4 == 0 {
				v = -1
				e = rng.Uint64n(1 << 8) // drive dense counters down through zero
			}
			direct.Update(e, v)
			d := viaDigest.Digest(e)
			// Split the replay across two disjoint copy ranges, as the
			// ingest workers do.
			viaDigest.UpdateRangeBatchDigest(0, 4, []Digest{d}, []int64{v})
			viaDigest.UpdateRangeBatchDigest(4, r, []Digest{d}, []int64{v})
		}
		if !direct.Equal(viaDigest) {
			t.Errorf("cfg %+v: digest-path family differs from direct updates", cfg)
		}
	}
}

// TestDigestAlignedFamilies: a digest computed by one family applies
// correctly to any aligned family — the property the ingest engine's
// shared per-seed cache relies on.
func TestDigestAlignedFamilies(t *testing.T) {
	cfg := Config{Buckets: 32, SecondLevel: 16, FirstWise: 4}
	a, _ := NewFamily(cfg, 5, 6)
	b, _ := NewFamily(cfg, 5, 6)
	want, _ := NewFamily(cfg, 5, 6)
	for e := uint64(0); e < 300; e++ {
		d := a.Digest(e) // a never receives the updates, only builds digests
		b.UpdateDigest(d, 2)
		want.Update(e, 2)
	}
	if !want.Equal(b) {
		t.Fatal("digest from an aligned sibling family applied incorrectly")
	}
}

// TestDigestUnpackable: a copy's bucket index and s second-level bits
// must share one 64-bit digest word, so s > 58 is not a valid shape:
// Config.Validate rejects s = 59 with an error naming the cap, accepts
// s = 58, and NewFamily never builds a family that could not digest.
func TestDigestUnpackable(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 58, FirstWise: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("s = 58 rejected: %v", err)
	}
	f, err := NewFamily(cfg, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := f.Digest(1)
	want, _ := NewFamily(cfg, 1, 2)
	want.Update(1, 3)
	f.UpdateDigest(d, 3)
	if !want.Equal(f) {
		t.Fatal("digest at s = 58 applied incorrectly")
	}
	cfg.SecondLevel = 59
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds 58") {
		t.Fatalf("Validate at s = 59 gave %v, want an error naming the cap of 58", err)
	}
}

// TestCloneAndTruncateShareFlatLayout: Clone duplicates counters (and
// shares coins), Truncate views the flat prefix in place.
func TestCloneAndTruncateShareFlatLayout(t *testing.T) {
	cfg := Config{Buckets: 16, SecondLevel: 4, FirstWise: 2}
	f, _ := NewFamily(cfg, 13, 8)
	for e := uint64(0); e < 100; e++ {
		f.Insert(e)
	}
	c := f.Clone()
	if !c.Equal(f) {
		t.Fatal("clone differs")
	}
	c.Insert(7)
	if c.Equal(f) {
		t.Fatal("clone shares counter storage with original")
	}

	tr, err := f.Truncate(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Copies() != 3 {
		t.Fatalf("truncated to %d copies", tr.Copies())
	}
	// The truncated view shares storage: updating it must show through
	// the parent's first copies and nowhere else.
	before := f.Copy(5).Clone()
	tr.Insert(4242)
	if !f.Copy(5).Equal(before) {
		t.Error("truncated view wrote outside its copy prefix")
	}
	probe, _ := NewFamily(cfg, 13, 8)
	for e := uint64(0); e < 100; e++ {
		probe.Insert(e)
	}
	probe.Insert(4242)
	if !f.Copy(0).Equal(probe.Copy(0)) {
		t.Error("update through truncated view did not reach the parent's copy 0")
	}
}
