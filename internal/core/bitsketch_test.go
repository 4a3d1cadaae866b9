package core

import (
	"bytes"
	"errors"
	"testing"

	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

func mustBitFamily(t testing.TB, cfg Config, seed uint64, r int) *BitFamily {
	t.Helper()
	f, err := NewBitFamily(cfg, seed, r)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBitSketchRejectsDeletion(t *testing.T) {
	x, err := NewBitSketch(checkCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	x.Insert(5)
	if err := x.Delete(5); !errors.Is(err, ErrBitDeletion) {
		t.Errorf("Delete err = %v, want ErrBitDeletion", err)
	}
}

func TestBitSketchValidation(t *testing.T) {
	bad := Config{Buckets: 0, SecondLevel: 4, FirstWise: 2}
	if _, err := NewBitSketch(bad, 1); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewBitFamily(bad, 1, 4); err == nil {
		t.Error("invalid config accepted by family")
	}
	if _, err := NewBitFamily(checkCfg, 1, 0); err == nil {
		t.Error("zero copies accepted")
	}
}

// TestBitMatchesCounterOccupancy is the bridge invariant: on the same
// insert-only stream with the same coins, the bit sketch's set bits
// are exactly the counter sketch's non-zero cells.
func TestBitMatchesCounterOccupancy(t *testing.T) {
	bits, err := NewBitSketch(checkCfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	counters := mustSketch(t, checkCfg, 99)
	rng := hashing.NewRNG(1)
	for i := 0; i < 3000; i++ {
		e := rng.Uint64n(1 << 24)
		bits.Insert(e)
		counters.Insert(e)
	}
	if !bits.MatchesCounters(counters) {
		t.Fatal("bit and counter occupancy patterns differ on the same stream")
	}
	// Singleton checks agree bucket for bucket.
	for b := 0; b < checkCfg.Buckets; b++ {
		if bits.SingletonBucket(b) != counters.SingletonBucket(b) {
			t.Fatalf("singleton check differs at bucket %d", b)
		}
		if bits.BucketEmpty(b) != counters.BucketEmpty(b) {
			t.Fatalf("emptiness differs at bucket %d", b)
		}
	}
}

// TestBitEstimatesIdenticalToCounters: every estimator returns the
// same value from either representation of an insert-only stream.
func TestBitEstimatesIdenticalToCounters(t *testing.T) {
	const r = 192
	rng := hashing.NewRNG(2)
	a, b := overlapStreams(rng, 2048, 512)

	cfams := buildFamilies(t, estCfg, 7, r, map[string][]uint64{"A": a, "B": b})
	bfams := map[string]*BitFamily{
		"A": mustBitFamily(t, estCfg, 7, r),
		"B": mustBitFamily(t, estCfg, 7, r),
	}
	for _, e := range a {
		bfams["A"].Insert(e)
	}
	for _, e := range b {
		bfams["B"].Insert(e)
	}

	for _, q := range []string{"A & B", "A - B", "A | B", "A ^ B"} {
		node := expr.MustParse(q)
		ce, cerr := estimateNode(node, cfams, 0.2, true)
		be, berr := estimateNodeBits(node, bfams, 0.2, true)
		if (cerr == nil) != (berr == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", q, cerr, berr)
		}
		if cerr == nil && ce.Value != be.Value {
			t.Errorf("%s: counter %.2f vs bit %.2f", q, ce.Value, be.Value)
		}

		cs, cserr := estimateNode(node, cfams, 0.2, false)
		bs, bserr := estimateNodeBits(node, bfams, 0.2, false)
		if (cserr == nil) != (bserr == nil) {
			t.Fatalf("%s single-level: error mismatch %v vs %v", q, cserr, bserr)
		}
		if cserr == nil && cs.Value != bs.Value {
			t.Errorf("%s single-level: counter %.2f vs bit %.2f", q, cs.Value, bs.Value)
		}
	}

	cu, err := EstimateUnion([]*Family{cfams["A"], cfams["B"]}, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := EstimateUnionBits([]*BitFamily{bfams["A"], bfams["B"]}, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if cu.Value != bu.Value {
		t.Errorf("union: counter %.2f vs bit %.2f", cu.Value, bu.Value)
	}
}

// TestBitMemoryRatio pins the counter/bit footprint ratio exactly. Per
// bucket, counters hold s+1 int64s (the total and side 1 of each pair)
// against 2s bits, so the ratio is 8·(s+1)·8/(2s) = 33 at s = 32, where
// a copy's 61·64 cells fill whole words.
func TestBitMemoryRatio(t *testing.T) {
	cfg := DefaultConfig()
	cf := mustFamily(t, cfg, 1, 16)
	bf := mustBitFamily(t, cfg, 1, 16)
	s := float64(cfg.SecondLevel)
	want := 8 * (s + 1) * 8 / (2 * s)
	if ratio := float64(cf.MemoryBytes()) / float64(bf.MemoryBytes()); ratio != want {
		t.Errorf("counter/bit memory ratio %.3f, want %.3f", ratio, want)
	}
}

func TestBitMergeIsUnion(t *testing.T) {
	cfg := checkCfg
	a := mustBitFamily(t, cfg, 3, 8)
	b := mustBitFamily(t, cfg, 3, 8)
	both := mustBitFamily(t, cfg, 3, 8)
	rng := hashing.NewRNG(4)
	for i := 0; i < 1000; i++ {
		e := rng.Uint64n(1 << 20)
		both.Insert(e)
		if i%2 == 0 {
			a.Insert(e)
		} else {
			b.Insert(e)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if !a.Copy(i).Equal(both.Copy(i)) {
			t.Fatalf("merged copy %d differs from combined-stream copy", i)
		}
	}
	other := mustBitFamily(t, cfg, 4, 8)
	if err := a.Merge(other); err != ErrNotAligned {
		t.Errorf("unaligned merge err = %v, want ErrNotAligned", err)
	}
	short := mustBitFamily(t, cfg, 3, 4)
	if err := a.Merge(short); err == nil {
		t.Error("copy-count mismatch accepted")
	}
}

func TestBitSketchCloneResetEqual(t *testing.T) {
	x, err := NewBitSketch(checkCfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	x.Insert(10)
	c := x.Clone()
	if !c.Equal(x) {
		t.Fatal("clone differs")
	}
	c.Insert(20)
	if c.Equal(x) {
		t.Fatal("clone shares storage")
	}
	c.Reset()
	if !c.BucketEmpty(0) || c.Equal(x) {
		fresh, _ := NewBitSketch(checkCfg, 5)
		if !c.Equal(fresh) {
			t.Fatal("reset sketch not empty")
		}
	}
	y, _ := NewBitSketch(checkCfg, 6)
	if x.Equal(y) {
		t.Fatal("different seeds compare equal")
	}
}

func TestBitFamilyTruncate(t *testing.T) {
	f := mustBitFamily(t, checkCfg, 7, 8)
	tr, err := f.Truncate(3)
	if err != nil || tr.Copies() != 3 {
		t.Fatalf("truncate: %v, copies %d", err, tr.Copies())
	}
	if _, err := f.Truncate(0); err == nil {
		t.Error("Truncate(0) accepted")
	}
	if _, err := f.Truncate(9); err == nil {
		t.Error("Truncate beyond size accepted")
	}
	if f.Config() != checkCfg || f.Seed() != 7 {
		t.Error("accessors broken")
	}
}

func TestBitFamilySerializeRoundTrip(t *testing.T) {
	f := mustBitFamily(t, checkCfg, 11, 8)
	rng := hashing.NewRNG(3)
	for i := 0; i < 2000; i++ {
		f.Insert(rng.Uint64n(1 << 22))
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	data := append([]byte(nil), buf.Bytes()...)
	got, err := ReadBitFamily(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < f.Copies(); i++ {
		if !got.Copy(i).Equal(f.Copy(i)) {
			t.Fatalf("copy %d differs after round trip", i)
		}
	}
	// Corruption and cross-format confusion are rejected.
	data[len(data)/2] ^= 0x01
	if _, err := ReadBitFamily(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("corrupted bit family: err = %v", err)
	}
	cf := mustFamily(t, checkCfg, 11, 2)
	var cbuf bytes.Buffer
	if _, err := cf.WriteTo(&cbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBitFamily(&cbuf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("counter family accepted as bit family: %v", err)
	}
	var bbuf bytes.Buffer
	if _, err := f.WriteTo(&bbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFamily(&bbuf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bit family accepted as counter family: %v", err)
	}
}

// TestToCountersPreservesEstimates: converting a bit family to a
// counter family preserves every estimate exactly.
func TestToCountersPreservesEstimates(t *testing.T) {
	const r = 128
	rng := hashing.NewRNG(8)
	a, b := overlapStreams(rng, 1024, 256)
	bfams := map[string]*BitFamily{
		"A": mustBitFamily(t, estCfg, 19, r),
		"B": mustBitFamily(t, estCfg, 19, r),
	}
	for _, e := range a {
		bfams["A"].Insert(e)
	}
	for _, e := range b {
		bfams["B"].Insert(e)
	}
	cfams := map[string]*Family{
		"A": bfams["A"].ToCounters(),
		"B": bfams["B"].ToCounters(),
	}
	for _, q := range []string{"A & B", "A - B", "A | B"} {
		node := expr.MustParse(q)
		be, berr := estimateNodeBits(node, bfams, 0.2, true)
		ce, cerr := estimateNode(node, cfams, 0.2, true)
		if (berr == nil) != (cerr == nil) || (berr == nil && be.Value != ce.Value) {
			t.Errorf("%s: bit %.2f (%v) vs converted %.2f (%v)", q, be.Value, berr, ce.Value, cerr)
		}
	}
	// Converted families are mergeable with genuine counter families
	// built from the same coins.
	genuine := mustFamily(t, estCfg, 19, r)
	genuine.Insert(a[0])
	if err := genuine.Merge(cfams["A"]); err != nil {
		t.Fatalf("merging converted with genuine counters: %v", err)
	}
}

// TestToCountersMergeMixed: a converted bit family merges with a
// genuine counter family, and with another converted family, in either
// order, and the sum holds the union's occupancy — exactly the bits of
// one bit family fed the live elements of both inputs.
func TestToCountersMergeMixed(t *testing.T) {
	const r = 16
	rng := hashing.NewRNG(23)
	bitsA := mustBitFamily(t, checkCfg, 7, r)
	bitsB := mustBitFamily(t, checkCfg, 7, r)
	counters := mustFamily(t, checkCfg, 7, r)
	wantAC := mustBitFamily(t, checkCfg, 7, r) // A ∪ live(counters)
	wantAB := mustBitFamily(t, checkCfg, 7, r) // A ∪ B
	for i := 0; i < 900; i++ {
		e := rng.Uint64n(1 << 12)
		switch i % 3 {
		case 0:
			bitsA.Insert(e)
			wantAC.Insert(e)
			wantAB.Insert(e)
		case 1:
			bitsB.Insert(e)
			wantAB.Insert(e)
		case 2:
			counters.Update(e, 3)
			counters.Update(e, -2)
			wantAC.Insert(e)
		}
	}
	// Churn the counters: inserted and fully deleted, so not in the union.
	for e := uint64(1 << 20); e < 1<<20+100; e++ {
		counters.Insert(e)
		counters.Delete(e)
	}
	convA, convB := bitsA.ToCounters(), bitsB.ToCounters()
	if convA.MemoryBytes() != counters.MemoryBytes() {
		t.Errorf("converted family reports %d B, a counter family %d B", convA.MemoryBytes(), counters.MemoryBytes())
	}
	sum := func(x, y *Family) *Family {
		m := x.Clone()
		if err := m.Merge(y); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		name string
		x, y *Family
		want *BitFamily
	}{
		{"bits + counters", convA, counters, wantAC},
		{"bits + bits", convA, convB, wantAB},
	} {
		xy, yx := sum(tc.x, tc.y), sum(tc.y, tc.x)
		if !xy.Equal(yx) {
			t.Fatalf("%s: merge depends on the order", tc.name)
		}
		if err := xy.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < r; i++ {
			if !tc.want.Copy(i).MatchesCounters(xy.Copy(i)) {
				t.Fatalf("%s: copy %d occupancy is not the union's bits", tc.name, i)
			}
		}
	}
}

func TestBitEstimatorErrors(t *testing.T) {
	node := expr.MustParse("A & B")
	fams := map[string]*BitFamily{"A": mustBitFamily(t, checkCfg, 1, 4)}
	if _, err := estimateNodeBits(node, fams, 0.2, false); err == nil {
		t.Error("missing stream accepted")
	}
	fams["B"] = mustBitFamily(t, checkCfg, 2, 4) // wrong seed
	if _, err := estimateNodeBits(node, fams, 0.2, false); !errors.Is(err, ErrNotAligned) {
		t.Error("unaligned bit families accepted")
	}
	if _, err := EstimateUnionBits(nil, 0.2, false); err == nil {
		t.Error("empty family list accepted")
	}
	fams["B"] = mustBitFamily(t, checkCfg, 1, 4)
	if _, err := estimateNodeBits(node, fams, 0, true); err == nil {
		t.Error("eps 0 accepted")
	}
}
