package core

import (
	"errors"
	"fmt"
	"testing"

	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

// kernelExprs are the expressions the differential tests sweep: every
// operator, nesting on both sides, and repeated stream references.
var kernelExprs = []string{
	"A",
	"A | B",
	"A & B",
	"A - B",
	"B - A",
	"A ^ B",
	"(A & B) - C",
	"A - (B | C)",
	"(A - B) | (B - C)",
	"(A | B) & (B | C)",
	"(A ^ B) - (C & A)",
}

// buildKernelFamilies creates three correlated streams with enough
// overlap that every expression above has witnesses.
func buildKernelFamilies(t testing.TB, cfg Config, seed uint64, r int) map[string]*Family {
	t.Helper()
	rng := hashing.NewRNG(seed * 31)
	a, b := overlapStreams(rng, 3000, 1000)
	c := append(append([]uint64(nil), a[:500]...), b[len(b)-500:]...)
	return buildFamilies(t, cfg, seed, r, map[string][]uint64{"A": a, "B": b, "C": c})
}

// mustCompile compiles e for the kernel.
func mustCompile(t testing.TB, e expr.Node) *Query {
	t.Helper()
	q, err := CompileQuery(e)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sameEstimate requires exact (bit-identical) equality of every field.
func sameEstimate(t *testing.T, label string, got, want Estimate) {
	t.Helper()
	if got != want {
		t.Errorf("%s: estimates differ\n got: %+v\nwant: %+v", label, got, want)
	}
}

// TestCompiledMatchesReference pins the compiled kernel against the
// interpreted counter-scanning reference: same expression, same
// synopses, bit-identical Estimate.
func TestCompiledMatchesReference(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		fams := buildKernelFamilies(t, estCfg, seed, 96)
		for _, src := range kernelExprs {
			node := expr.MustParse(src)
			q := mustCompile(t, node)
			for _, multi := range []bool{false, true} {
				ref, refErr := referenceEstimate(node, fams, 0.15, multi)
				got, err := q.Estimate(fams, 0.15, multi, EstimateOptions{})
				if (err == nil) != (refErr == nil) {
					t.Fatalf("%s seed=%d multi=%v: err %v vs ref %v", src, seed, multi, err, refErr)
				}
				sameEstimate(t, fmt.Sprintf("%s seed=%d multi=%v", src, seed, multi), got, ref)
			}
		}
	}
}

// TestCompiledMatchesReferenceBits is the same differential over the
// insert-only bit representation.
func TestCompiledMatchesReferenceBits(t *testing.T) {
	rng := hashing.NewRNG(99)
	a, b := overlapStreams(rng, 2000, 700)
	c := a[:400]
	const r = 64
	fams := map[string]*BitFamily{
		"A": mustBitFamily(t, estCfg, 5, r),
		"B": mustBitFamily(t, estCfg, 5, r),
		"C": mustBitFamily(t, estCfg, 5, r),
	}
	for _, e := range a {
		fams["A"].Insert(e)
	}
	for _, e := range b {
		fams["B"].Insert(e)
	}
	for _, e := range c {
		fams["C"].Insert(e)
	}
	for _, src := range kernelExprs {
		node := expr.MustParse(src)
		q := mustCompile(t, node)
		for _, multi := range []bool{false, true} {
			ref, refErr := referenceEstimateBits(node, fams, 0.15, multi)
			got, err := q.EstimateBits(fams, 0.15, multi, EstimateOptions{})
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s multi=%v: err %v vs ref %v", src, multi, err, refErr)
			}
			sameEstimate(t, fmt.Sprintf("bits %s multi=%v", src, multi), got, ref)
		}
	}
}

// TestKernelErrorPaths exercises every estimator error through the
// compiled path, the interpreted reference, and the bit variant.
func TestKernelErrorPaths(t *testing.T) {
	fams := buildKernelFamilies(t, estCfg, 11, 16)
	node := expr.MustParse("A - B")
	q := mustCompile(t, node)
	var opts EstimateOptions

	for _, eps := range []float64{0, -0.5, 1, 1.5} {
		if _, err := q.Estimate(fams, eps, true, opts); err == nil {
			t.Errorf("eps=%v: want error", eps)
		}
		if _, err := referenceEstimate(node, fams, eps, true); err == nil {
			t.Errorf("reference eps=%v: want error", eps)
		}
	}

	missing := expr.MustParse("A - Nope")
	var miss *ErrMissingStream
	if _, err := mustCompile(t, missing).Estimate(fams, 0.1, true, opts); !errors.As(err, &miss) || miss.Name != "Nope" {
		t.Errorf("missing stream: got %v", err)
	}
	if _, err := referenceEstimate(missing, fams, 0.1, true); err == nil {
		t.Error("reference missing stream: want error")
	}

	// Misaligned: different seed.
	bad := buildFamilies(t, estCfg, 999, 16, map[string][]uint64{"B": {1, 2, 3}})
	mixed := map[string]*Family{"A": fams["A"], "B": bad["B"]}
	if _, err := q.Estimate(mixed, 0.1, true, opts); !errors.Is(err, ErrNotAligned) {
		t.Errorf("misaligned: got %v", err)
	}
	if _, err := referenceEstimate(node, mixed, 0.1, true); !errors.Is(err, ErrNotAligned) {
		t.Errorf("reference misaligned: got %v", err)
	}

	// ErrNoObservations: a tiny difference drowned by a huge union, at
	// r = 1 copy, rarely yields a usable witness; empty-minus-empty is
	// deterministic (union = 0 → Value 0, no error), so use disjoint
	// identical streams instead: A - A over a non-empty stream gives
	// witnesses = 0 but valid > 0 → Value 0; the guaranteed error case
	// is valid = 0, which needs every union bucket non-singleton. Build
	// it by packing one copy with many elements at s = 1 so the
	// singleton test almost surely fails everywhere.
	tiny := Config{Buckets: 8, SecondLevel: 1, FirstWise: 8}
	dense := buildFamilies(t, tiny, 5, 1, map[string][]uint64{"A": nil, "B": nil})
	for e := uint64(0); e < 4096; e++ {
		dense["A"].Insert(e*2 + 1)
		dense["B"].Insert(e * 2)
	}
	_, err := q.Estimate(dense, 0.9, true, opts)
	_, refErr := referenceEstimate(node, dense, 0.9, true)
	if !errors.Is(err, ErrNoObservations) || !errors.Is(refErr, ErrNoObservations) {
		t.Errorf("dense no-observations: compiled %v, reference %v", err, refErr)
	}

	// Bit variant errors.
	bf := map[string]*BitFamily{"A": mustBitFamily(t, estCfg, 5, 8)}
	if _, err := q.EstimateBits(bf, 0.1, true, opts); err == nil {
		t.Error("bits missing stream: want error")
	}
	if _, err := mustCompile(t, expr.MustParse("A")).EstimateBits(bf, 2, true, opts); err == nil {
		t.Error("bits eps out of range: want error")
	}
}

// TestEstimateSerialAllocFree asserts the hot serial path allocates
// nothing once the family views are warm — the satellite requirement
// for embedding estimates in latency-sensitive loops.
func TestEstimateSerialAllocFree(t *testing.T) {
	fams := buildKernelFamilies(t, estCfg, 13, 64)
	node := expr.MustParse("(A - B) | (B - C)")
	q, err := CompileQuery(node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Estimate(fams, 0.15, true, EstimateOptions{}); err != nil {
		t.Fatal(err) // warm the views
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := q.Estimate(fams, 0.15, true, EstimateOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("serial compiled estimate allocates %.1f objects/op, want 0", allocs)
	}
}

// TestViewInvalidation checks that mutations through every family-level
// write path bump the version and are visible to the next estimate.
func TestViewInvalidation(t *testing.T) {
	fams := buildKernelFamilies(t, estCfg, 19, 32)
	node := expr.MustParse("A | B")
	q := mustCompile(t, node)
	estimate := func() Estimate {
		est, err := q.Estimate(fams, 0.15, true, EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	reference := func() Estimate {
		est, err := referenceEstimate(node, fams, 0.15, true)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}

	before := estimate()
	v0 := fams["A"].Version()
	for e := uint64(0); e < 500; e++ {
		fams["A"].Update(e+1<<40, 1)
	}
	if fams["A"].Version() == v0 {
		t.Fatal("Update did not bump version")
	}
	after := estimate()
	if after == before {
		t.Error("estimate unchanged after 500 inserts: stale view")
	}
	sameEstimate(t, "after update", after, reference())

	other := buildFamilies(t, estCfg, 19, 32, map[string][]uint64{"B": {7, 8, 9, 10, 11}})
	v0 = fams["B"].Version()
	if err := fams["B"].Merge(other["B"]); err != nil {
		t.Fatal(err)
	}
	if fams["B"].Version() == v0 {
		t.Fatal("Merge did not bump version")
	}
	sameEstimate(t, "after merge", estimate(), reference())

	fams["A"].Reset()
	sameEstimate(t, "after reset", estimate(), reference())
}

// TestTruncateSharesVersion: a truncated family aliases the parent's
// counter storage, so its version counter must move with the parent's.
func TestTruncateSharesVersion(t *testing.T) {
	f := mustFamily(t, estCfg, 23, 16)
	f.Insert(1)
	tr, err := f.Truncate(8)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.Version()
	f.Insert(2)
	if tr.Version() == v {
		t.Error("parent Update invisible to truncated family's version")
	}

	bf := mustBitFamily(t, estCfg, 23, 16)
	bf.Insert(1)
	btr, err := bf.Truncate(8)
	if err != nil {
		t.Fatal(err)
	}
	bv := btr.Version()
	bf.Insert(2)
	if btr.Version() == bv {
		t.Error("parent Insert invisible to truncated bit family's version")
	}
}

// TestViewMatchesChecks bridges the packed view to the §3.2 elementary
// checks it replaces: occupancy bits vs bucket totals, and the packed
// singleton test vs SingletonUnionBucketN.
func TestViewMatchesChecks(t *testing.T) {
	fams := buildKernelFamilies(t, estCfg, 29, 24)
	a, b := fams["A"], fams["B"]
	va, vb := a.queryView(), b.queryView()
	for i := 0; i < 24; i++ {
		sketches := []*Sketch{a.Copy(i), b.Copy(i)}
		for lvl := 0; lvl < a.cfg.Buckets; lvl++ {
			occA := a.Copy(i).BucketTotal(lvl) != 0
			if got := va.occ[i]>>uint(lvl)&1 == 1; got != occA {
				t.Fatalf("copy %d level %d: view occ %v, totals %v", i, lvl, got, occA)
			}
			got := (va.occ[i]|vb.occ[i])>>uint(lvl)&1 == 1
			base := (i*a.cfg.Buckets + lvl) * va.wps
			for w := 0; w < va.wps; w++ {
				got = got && !sigCollision(va.sig[base+w]|vb.sig[base+w])
			}
			if want := SingletonUnionBucketN(sketches, lvl); got != want {
				t.Fatalf("copy %d level %d: view singleton %v, check %v", i, lvl, got, want)
			}
		}
	}
}

// TestToCountersKernelAgreement: families converted from the bit
// representation have per-copy storage and no flat arenas; the view
// builder must read them correctly.
func TestToCountersKernelAgreement(t *testing.T) {
	rng := hashing.NewRNG(77)
	a, b := overlapStreams(rng, 1500, 500)
	const r = 32
	bfams := map[string]*BitFamily{
		"A": mustBitFamily(t, estCfg, 3, r),
		"B": mustBitFamily(t, estCfg, 3, r),
	}
	for _, e := range a {
		bfams["A"].Insert(e)
	}
	for _, e := range b {
		bfams["B"].Insert(e)
	}
	cfams := map[string]*Family{"A": bfams["A"].ToCounters(), "B": bfams["B"].ToCounters()}
	node := expr.MustParse("A - B")
	got, err := estimateNode(node, cfams, 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceEstimate(node, cfams, 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, "tocounters", got, want)
}

// TestParallelEstimateRace hammers one compiled query from four
// goroutines at once: concurrent estimates share the cached view,
// which must be clean under -race. (Families are not internally synchronized against writers —
// the processor and coordinator lock around mutations — so this
// exercises the concurrent-reader contract only.)
func TestParallelEstimateRace(t *testing.T) {
	fams := buildKernelFamilies(t, estCfg, 31, 48)
	q, err := CompileQuery(expr.MustParse("(A - B) | (B - C)"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Estimate(fams, 0.2, true, EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for j := 0; j < 50; j++ {
				got, err := q.Estimate(fams, 0.2, true, EstimateOptions{})
				if err != nil {
					done <- err
					return
				}
				if got != want {
					done <- fmt.Errorf("concurrent estimate diverged: %+v vs %+v", got, want)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
