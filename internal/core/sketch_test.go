package core

import (
	"strings"
	"testing"
	"testing/quick"

	"setsketch/internal/hashing"
)

func mustSketch(t testing.TB, cfg Config, seed uint64) *Sketch {
	t.Helper()
	x, err := NewSketch(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func mustFamily(t testing.TB, cfg Config, seed uint64, r int) *Family {
	t.Helper()
	f, err := NewFamily(cfg, seed, r)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Buckets: 0, SecondLevel: 32, FirstWise: 8},
		{Buckets: 62, SecondLevel: 32, FirstWise: 8},
		{Buckets: 61, SecondLevel: 0, FirstWise: 8},
		{Buckets: 61, SecondLevel: 32, FirstWise: 1},
		{Buckets: 61, SecondLevel: 32, FirstWise: maxFirstWise + 1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v validated, want error", cfg)
		}
	}
	if _, err := NewSketch(bad[0], 1); err == nil {
		t.Error("NewSketch accepted invalid config")
	}
	if _, err := NewFamily(bad[0], 1, 4); err == nil {
		t.Error("NewFamily accepted invalid config")
	}
	if _, err := NewFamily(DefaultConfig(), 1, 0); err == nil {
		t.Error("NewFamily accepted zero copies")
	}
}

// TestDeletionInvariance is the paper's §3.1 claim verbatim: the sketch
// obtained at the end of an update stream is identical to a sketch that
// never saw the deleted items.
func TestDeletionInvariance(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 8, FirstWise: 4}
	withDeletes := mustSketch(t, cfg, 42)
	withoutDeletes := mustSketch(t, cfg, 42)

	rng := hashing.NewRNG(7)
	survivors := make(map[uint64]int64)
	for i := 0; i < 5000; i++ {
		e := rng.Uint64n(1 << 20)
		withDeletes.Update(e, 3)
		if rng.Float64() < 0.5 {
			// Fully remove the three copies again.
			withDeletes.Update(e, -3)
		} else {
			withDeletes.Update(e, -1) // partial deletion; two copies survive
			survivors[e] += 2
		}
	}
	for e, v := range survivors {
		withoutDeletes.Update(e, v)
	}
	if !withDeletes.Equal(withoutDeletes) {
		t.Fatal("sketch with deletions differs from the deletion-free sketch of the same net multiset")
	}
	if err := withDeletes.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestLinearity: sketch(A ⊎ B) = sketch(A) merged with sketch(B), the
// property behind distributed collection and n-way union checks.
func TestLinearity(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 8, FirstWise: 4}
	f := func(xs, ys []uint16) bool {
		a := mustSketch(t, cfg, 99)
		b := mustSketch(t, cfg, 99)
		combined := mustSketch(t, cfg, 99)
		for _, x := range xs {
			a.Insert(uint64(x))
			combined.Insert(uint64(x))
		}
		for _, y := range ys {
			b.Insert(uint64(y))
			combined.Insert(uint64(y))
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		return a.Equal(combined)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMergeRejectsUnaligned(t *testing.T) {
	cfg := DefaultConfig()
	a := mustSketch(t, cfg, 1)
	b := mustSketch(t, cfg, 2)
	if err := a.Merge(b); err != ErrNotAligned {
		t.Errorf("merging different seeds: err = %v, want ErrNotAligned", err)
	}
	cfg2 := cfg
	cfg2.SecondLevel = 16
	c := mustSketch(t, cfg2, 1)
	if err := a.Merge(c); err != ErrNotAligned {
		t.Errorf("merging different configs: err = %v, want ErrNotAligned", err)
	}
}

func TestBucketTotalsMatchUpdates(t *testing.T) {
	x := mustSketch(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 5)
	var want int64
	rng := hashing.NewRNG(3)
	for i := 0; i < 1000; i++ {
		x.Update(rng.Uint64n(1<<16), 2)
		want += 2
	}
	var got int64
	for b := 0; b < 61; b++ {
		got += x.BucketTotal(b)
	}
	if got != want {
		t.Errorf("sum of bucket totals = %d, want %d", got, want)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDetectsIllegalDeletions(t *testing.T) {
	x := mustSketch(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 5)
	x.Insert(10)
	x.Update(10, -2) // illegal: net frequency −1
	err := x.Validate()
	if err == nil {
		t.Fatal("Validate accepted a sketch with negative net frequency")
	}
	if !strings.Contains(err.Error(), "negative") {
		t.Errorf("unexpected validation error: %v", err)
	}
}

func TestCloneAndReset(t *testing.T) {
	x := mustSketch(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 5)
	x.Insert(1)
	c := x.Clone()
	if !c.Equal(x) {
		t.Fatal("clone differs from original")
	}
	c.Insert(2)
	if c.Equal(x) {
		t.Fatal("mutating clone changed original (shared counters)")
	}
	c.Reset()
	empty := mustSketch(t, x.Config(), 5)
	if !c.Equal(empty) {
		t.Fatal("reset sketch is not empty")
	}
}

func TestFirstLevelGeometric(t *testing.T) {
	// Bucket 0 should hold ≈ half the items, bucket 1 a quarter, etc.
	x := mustSketch(t, DefaultConfig(), 12)
	const n = 1 << 16
	for e := uint64(0); e < n; e++ {
		x.Insert(e)
	}
	dist := x.FirstLevelDistribution()
	for l := 0; l < 6; l++ {
		want := 1.0 / float64(int64(2)<<l)
		if dist[l] < want*0.9 || dist[l] > want*1.1 {
			t.Errorf("bucket %d holds fraction %.4f, want ≈ %.4f", l, dist[l], want)
		}
	}
	if x.MemoryBytes() != 8*(61+61*32) {
		t.Errorf("MemoryBytes = %d", x.MemoryBytes())
	}
}

func TestFirstLevelDistributionEmpty(t *testing.T) {
	x := mustSketch(t, DefaultConfig(), 12)
	for _, v := range x.FirstLevelDistribution() {
		if v != 0 {
			t.Fatal("empty sketch has non-zero distribution")
		}
	}
}

func TestFamilyBasics(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 8, FirstWise: 4}
	f := mustFamily(t, cfg, 7, 16)
	if f.Copies() != 16 || f.Config() != cfg || f.Seed() != 7 {
		t.Fatal("family accessors broken")
	}
	f.Insert(5)
	f.Delete(5)
	empty := mustFamily(t, cfg, 7, 16)
	if !f.Equal(empty) {
		t.Fatal("insert+delete did not cancel across all copies")
	}

	// Copies use distinct hash functions: the same element should not
	// land in the same bucket pattern everywhere.
	f.Insert(123)
	distinctBuckets := make(map[int]bool)
	for i := 0; i < f.Copies(); i++ {
		for b := 0; b < cfg.Buckets; b++ {
			if f.Copy(i).BucketTotal(b) > 0 {
				distinctBuckets[b] = true
			}
		}
	}
	if len(distinctBuckets) < 2 {
		t.Error("all 16 copies hashed element 123 to the same bucket; copies are not independent")
	}
}

func TestFamilyAlignmentAcrossStreams(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 8, FirstWise: 4}
	a := mustFamily(t, cfg, 7, 4)
	b := mustFamily(t, cfg, 7, 4)
	if !a.Aligned(b) {
		t.Fatal("same-seed families not aligned")
	}
	// Copy i of a and copy i of b must use identical hash functions:
	// inserting the same element must produce Equal copies.
	a.Insert(42)
	b.Insert(42)
	for i := 0; i < 4; i++ {
		if !a.Copy(i).Equal(b.Copy(i)) {
			t.Fatalf("copy %d of aligned families differs for identical input", i)
		}
	}
	c := mustFamily(t, cfg, 8, 4)
	if a.Aligned(c) {
		t.Fatal("different-seed families reported aligned")
	}
}

func TestFamilyMergeAndValidate(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 8, FirstWise: 4}
	a := mustFamily(t, cfg, 7, 4)
	b := mustFamily(t, cfg, 7, 4)
	combined := mustFamily(t, cfg, 7, 4)
	for e := uint64(0); e < 100; e++ {
		a.Insert(e)
		combined.Insert(e)
	}
	for e := uint64(50); e < 150; e++ {
		b.Insert(e)
		combined.Insert(e)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(combined) {
		t.Fatal("family merge is not the combined-stream family")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}

	short := mustFamily(t, cfg, 7, 2)
	if err := a.Merge(short); err == nil {
		t.Error("merging families of different copy counts succeeded")
	}
	other := mustFamily(t, cfg, 9, 4)
	if err := a.Merge(other); err != ErrNotAligned {
		t.Errorf("merging unaligned families: err = %v, want ErrNotAligned", err)
	}
}

func TestFamilyTruncate(t *testing.T) {
	f := mustFamily(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 1, 8)
	f.Insert(9)
	tr, err := f.Truncate(3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Copies() != 3 {
		t.Fatalf("truncated copies = %d, want 3", tr.Copies())
	}
	// Truncation is a view: updates through the view hit the parent.
	tr.Insert(10)
	if f.Copy(0).BucketEmpty(hashing.LSB(f.Copy(0).h.Hash(10), 61)) {
		t.Error("update through truncated view did not reach parent copy")
	}
	if _, err := f.Truncate(0); err == nil {
		t.Error("Truncate(0) succeeded")
	}
	if _, err := f.Truncate(9); err == nil {
		t.Error("Truncate beyond copy count succeeded")
	}
}

func TestFamilyCloneReset(t *testing.T) {
	f := mustFamily(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 1, 4)
	f.Insert(77)
	c := f.Clone()
	if !c.Equal(f) {
		t.Fatal("clone not equal")
	}
	c.Reset()
	if c.Equal(f) {
		t.Fatal("reset clone still equals populated family")
	}
	if c.MemoryBytes() != f.MemoryBytes() {
		t.Error("clone memory footprint differs")
	}
}

// TestUpdateOrderIrrelevant: sketches are order-insensitive summaries —
// any permutation of the same update multiset yields Equal sketches.
func TestUpdateOrderIrrelevant(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 8, FirstWise: 4}
	updates := make([][2]int64, 200)
	rng := hashing.NewRNG(17)
	for i := range updates {
		updates[i] = [2]int64{int64(rng.Uint64n(1000)), int64(rng.Intn(3) + 1)}
	}
	forward := mustSketch(t, cfg, 4)
	backward := mustSketch(t, cfg, 4)
	shuffled := mustSketch(t, cfg, 4)
	for _, u := range updates {
		forward.Update(uint64(u[0]), u[1])
	}
	for i := len(updates) - 1; i >= 0; i-- {
		backward.Update(uint64(updates[i][0]), updates[i][1])
	}
	for _, idx := range rng.Perm(len(updates)) {
		shuffled.Update(uint64(updates[idx][0]), updates[idx][1])
	}
	if !forward.Equal(backward) || !forward.Equal(shuffled) {
		t.Fatal("update order changed the sketch")
	}
}
