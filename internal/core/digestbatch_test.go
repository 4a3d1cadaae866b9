package core

import (
	"bytes"
	"testing"

	"setsketch/internal/hashing"
)

// TestDigestBatchMatchesScalar: batch-computed digests must be
// word-for-word identical to per-element Digest across shapes,
// including degenerate batches.
func TestDigestBatchMatchesScalar(t *testing.T) {
	cfgs := []Config{
		DefaultConfig(),
		{Buckets: 8, SecondLevel: 1, FirstWise: 2},
		{Buckets: 61, SecondLevel: 58, FirstWise: 3},
		{Buckets: 16, SecondLevel: 7, FirstWise: 8},
	}
	for _, cfg := range cfgs {
		fam, err := NewFamily(cfg, 0xfeed, 9)
		if err != nil {
			t.Fatal(err)
		}
		rng := hashing.NewRNG(123)
		for _, n := range []int{0, 1, 2, 63, 256} {
			elems := make([]uint64, n)
			for k := range elems {
				elems[k] = rng.Uint64() // full domain, exercises Reduce61
			}
			ds := fam.DigestBatch(elems)
			if len(ds) != n {
				t.Fatalf("cfg %+v: DigestBatch returned %d digests for %d elems", cfg, len(ds), n)
			}
			for k, e := range elems {
				want := fam.Digest(e)
				for i := range want {
					if ds[k][i] != want[i] {
						t.Fatalf("cfg %+v: batch digest[%d][%d] = %#x, scalar = %#x (elem %#x)",
							cfg, k, i, ds[k][i], want[i], e)
					}
				}
			}
		}
	}
}

// TestUpdateBatchDigestMatchesDirect: replaying a batch through the
// copy-major kernel must build the same family as per-element direct
// updates, including deletions through zero and split copy ranges.
func TestUpdateBatchDigestMatchesDirect(t *testing.T) {
	cfg := DefaultConfig()
	const r = 7
	direct, err := NewFamily(cfg, 42, r)
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := NewFamily(cfg, 42, r)
	split, _ := NewFamily(cfg, 42, r)

	rng := hashing.NewRNG(77)
	const n = 500
	elems := make([]uint64, n)
	deltas := make([]int64, n)
	for k := range elems {
		elems[k] = rng.Uint64n(64) // small domain: repeats and cancellations
		deltas[k] = int64(rng.Uint64n(7)) - 3
		direct.Update(elems[k], deltas[k])
	}
	ds := whole.DigestBatch(elems)
	whole.UpdateBatchDigest(ds, deltas)
	if !direct.Equal(whole) {
		t.Fatal("UpdateBatchDigest diverged from direct updates")
	}
	for lo := 0; lo < r; lo += 2 {
		hi := lo + 2
		if hi > r {
			hi = r
		}
		split.UpdateRangeBatchDigest(lo, hi, ds, deltas)
	}
	if !direct.Equal(split) {
		t.Fatal("split-range UpdateRangeBatchDigest diverged from direct updates")
	}
}

// TestDigestBatchIntoReusesStorage: caller-managed digest storage must
// be filled without the kernel allocating digest words of its own.
func TestDigestBatchIntoReusesStorage(t *testing.T) {
	fam, err := NewFamily(DefaultConfig(), 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	elems := []uint64{1, 2, 3}
	slab := make([]uint64, len(elems)*fam.Copies())
	ds := make([]Digest, len(elems))
	for k := range ds {
		ds[k] = Digest(slab[k*fam.Copies() : (k+1)*fam.Copies()])
	}
	fam.DigestBatchInto(ds, elems)
	for k, e := range elems {
		want := fam.Digest(e)
		for i := range want {
			if slab[k*fam.Copies()+i] != want[i] {
				t.Fatalf("slab word (%d, %d) = %#x, want %#x", k, i, slab[k*fam.Copies()+i], want[i])
			}
		}
	}
}

// TestDigestBatchUnpackablePanics: DigestBatch has no unpackable shape
// to refuse, because NewFamily rejects s > 58 before any family exists;
// at the cap, s = 58, the batch kernel matches the scalar digest.
func TestDigestBatchUnpackablePanics(t *testing.T) {
	if fam, err := NewFamily(Config{Buckets: 61, SecondLevel: 59, FirstWise: 2}, 1, 2); err == nil || fam != nil {
		t.Fatalf("NewFamily at s = 59 gave (%v, %v), want an error", fam, err)
	}
	fam, err := NewFamily(Config{Buckets: 61, SecondLevel: 58, FirstWise: 2}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	elems := []uint64{1, 2, 1 << 40, ^uint64(0) >> 1}
	got := fam.DigestBatch(elems)
	for i, e := range elems {
		want := fam.Digest(e)
		for c := 0; c < fam.Copies(); c++ {
			if got[i][c] != want[c] {
				t.Fatalf("element %d copy %d: batch digest %#x, scalar %#x", e, c, got[i][c], want[c])
			}
		}
	}
}

// TestArenaPaddingInvariants: padded arenas must keep their padding
// lanes zero through updates, merges, and resets; the padding must be
// invisible to serialization; and copy views must stay line-aligned and
// disjoint.
func TestArenaPaddingInvariants(t *testing.T) {
	cfg := DefaultConfig() // Buckets = 61: stride rounds to 64
	const r = 6
	fam, err := NewFamily(cfg, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(fam.totals), r*cfg.strideTotals(); got != want {
		t.Fatalf("totals arena len %d, want %d", got, want)
	}
	if cfg.strideTotals()%arenaAlign != 0 || cfg.strideCounts()%arenaAlign != 0 {
		t.Fatalf("strides %d/%d not aligned to %d", cfg.strideTotals(), cfg.strideCounts(), arenaAlign)
	}
	rng := hashing.NewRNG(9)
	for i := 0; i < 2000; i++ {
		fam.Update(rng.Uint64(), int64(rng.Uint64n(5))-2)
	}
	other, _ := NewFamily(cfg, 5, r)
	other.Insert(999)
	if err := fam.Merge(other); err != nil {
		t.Fatal(err)
	}
	checkPadding := func(when string) {
		t.Helper()
		st, nb := cfg.strideTotals(), cfg.Buckets
		for i := 0; i < r; i++ {
			for j := i*st + nb; j < (i+1)*st; j++ {
				if fam.totals[j] != 0 {
					t.Fatalf("%s: totals padding word %d (copy %d) = %d, want 0", when, j, i, fam.totals[j])
				}
			}
		}
		sc, nc := cfg.strideCounts(), cfg.counters()
		for i := 0; i < r; i++ {
			for j := i*sc + nc; j < (i+1)*sc; j++ {
				if fam.counts[j] != 0 {
					t.Fatalf("%s: counts padding word %d (copy %d) = %d, want 0", when, j, i, fam.counts[j])
				}
			}
		}
	}
	checkPadding("after updates and merge")

	// Padding must not leak into the wire format: round-trip equality.
	var buf bytes.Buffer
	if _, err := fam.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFamily(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(fam) {
		t.Fatal("padded family does not round-trip through serialization")
	}

	// MemoryBytes reports the logical counter footprint, not the padded
	// allocation.
	if got, want := fam.MemoryBytes(), 8*r*(cfg.Buckets+cfg.counters()); got != want {
		t.Fatalf("MemoryBytes = %d, want unpadded %d", got, want)
	}

	fam.Reset()
	checkPadding("after reset")
}
