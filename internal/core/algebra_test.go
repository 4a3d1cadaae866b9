package core

// Algebraic sanity tests: estimators must respect set-algebra
// identities exactly when they are structural (same synopses in, same
// quantity out) and statistically when randomness is involved.

import (
	"math"
	"testing"

	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

func TestExpressionSelfIdentities(t *testing.T) {
	rng := hashing.NewRNG(71)
	elems := make([]uint64, 0, 2000)
	seen := make(map[uint64]bool)
	for len(elems) < 2000 {
		e := rng.Uint64n(1 << 30)
		if !seen[e] {
			seen[e] = true
			elems = append(elems, e)
		}
	}
	fams := buildFamilies(t, estCfg, 31, 256, map[string][]uint64{"A": elems})

	// A − A = ∅ must be estimated as exactly 0: every witness check
	// evaluates B(E) = flag ∧ ¬flag = false.
	est, err := estimateNode(expr.MustParse("A - A"), fams, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 {
		t.Errorf("|A - A| = %v, want exactly 0", est.Value)
	}

	// A ∩ A = A ∪ A = A: all three must give the identical value, since
	// B(E) degenerates to the same flag.
	vals := make([]float64, 0, 3)
	for _, q := range []string{"A", "A & A", "A | A"} {
		est, err := estimateNode(expr.MustParse(q), fams, 0.2, true)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, est.Value)
	}
	if vals[0] != vals[1] || vals[1] != vals[2] {
		t.Errorf("A, A&A, A|A estimates differ: %v", vals)
	}
	if rel := math.Abs(vals[0]-2000) / 2000; rel > 0.3 {
		t.Errorf("|A| estimated %v, want ≈ 2000", vals[0])
	}
}

// TestPartitionAdditivity: |A−B| + |A∩B| + |B−A| estimates, made from
// the SAME synopses at the same level, must sum to exactly the
// estimated |A∪B| — the three witness conditions partition the valid
// observations.
func TestPartitionAdditivity(t *testing.T) {
	rng := hashing.NewRNG(72)
	a, b := overlapStreams(rng, 3000, 900)
	fams := buildFamilies(t, estCfg, 33, 384, map[string][]uint64{"A": a, "B": b})

	var sum float64
	var union float64
	for _, q := range []string{"A - B", "A & B", "B - A"} {
		est, err := estimateNode(expr.MustParse(q), fams, 0.2, true)
		if err != nil {
			t.Fatal(err)
		}
		sum += est.Value
		union = est.Union // same û for all three (same synopses, same ε)
	}
	if math.Abs(sum-union) > 1e-6*union {
		t.Errorf("partition estimates sum to %v, union estimate is %v", sum, union)
	}
}

// TestDeMorganStatistical: |A − (B ∪ C)| and |(A − B) ∩ (A − C)| are the
// same set; the estimators see different Boolean trees but identical
// witness outcomes, so the estimates must be exactly equal.
func TestDeMorganExact(t *testing.T) {
	rng := hashing.NewRNG(73)
	streams := map[string][]uint64{}
	for _, name := range []string{"A", "B", "C"} {
		var elems []uint64
		for i := 0; i < 1200; i++ {
			elems = append(elems, rng.Uint64n(4096))
		}
		streams[name] = elems
	}
	fams := buildFamilies(t, estCfg, 34, 256, streams)
	e1, err := estimateNode(expr.MustParse("A - (B | C)"), fams, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := estimateNode(expr.MustParse("(A - B) & (A - C)"), fams, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Value != e2.Value {
		t.Errorf("De Morgan forms estimate differently: %v vs %v", e1.Value, e2.Value)
	}
}

// TestDomainEdgeElements: elements at the extremes of the domain hash
// and count like any other.
func TestDomainEdgeElements(t *testing.T) {
	f := mustFamily(t, estCfg, 35, 128)
	edge := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, hashing.MersennePrime, hashing.MersennePrime - 1}
	for _, e := range edge {
		f.Insert(e)
	}
	est, err := EstimateUnion([]*Family{f}, 0.3, false)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny cardinalities are exactly recoverable from low levels: just
	// require a sane, positive, small estimate.
	if est.Value <= 0 || est.Value > 50 {
		t.Errorf("distinct estimate for 7 edge elements: %v", est.Value)
	}
	for _, e := range edge {
		f.Delete(e)
	}
	empty := mustFamily(t, estCfg, 35, 128)
	if !f.Equal(empty) {
		t.Error("edge elements did not cancel on deletion")
	}
}

// TestSkewRobustness: estimator accuracy is oblivious to the element
// domain's shape — sequential and strided domains (worst cases for
// weak hashing) estimate as well as uniform ones.
func TestSkewRobustness(t *testing.T) {
	const u, inter = 2048, 512
	node := expr.MustParse("A & B")
	for _, d := range datagen.Domains() {
		rng := hashing.NewRNG(900 + uint64(d))
		a, b, mult, err := datagen.SkewedOverlap(d, u, inter, rng)
		if err != nil {
			t.Fatal(err)
		}
		fams := map[string]*Family{
			"A": mustFamily(t, estCfg, 901, 384),
			"B": mustFamily(t, estCfg, 901, 384),
		}
		for i, e := range a {
			fams["A"].Update(e, mult[i%len(mult)])
		}
		for i, e := range b {
			fams["B"].Update(e, mult[i%len(mult)])
		}
		est, err := estimateNode(node, fams, 0.2, true)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if e := relErr(est.Value, inter); e > 0.4 {
			t.Errorf("domain %v: estimate %.0f for true %d (rel err %.2f)", d, est.Value, inter, e)
		}
	}
}

// TestMultiLevelMatchesSingleLevelExpectation: over many independent
// workloads, single- and multi-level estimators must agree in the mean
// (both unbiased for |E|), with multi-level visibly tighter.
func TestMultiLevelMatchesSingleLevelExpectation(t *testing.T) {
	rng := hashing.NewRNG(74)
	const u, inter, runs = 2048, 512, 8
	node := expr.MustParse("A & B")
	var sumSingle, sumMulti, sqSingle, sqMulti float64
	nSingle := 0
	for run := 0; run < runs; run++ {
		a, b := overlapStreams(rng, u, inter)
		fams := buildFamilies(t, estCfg, rng.Uint64(), 256, map[string][]uint64{"A": a, "B": b})
		if est, err := estimateNode(node, fams, 0.2, false); err == nil {
			d := est.Value/inter - 1
			sumSingle += d
			sqSingle += d * d
			nSingle++
		}
		est, err := estimateNode(node, fams, 0.2, true)
		if err != nil {
			t.Fatal(err)
		}
		d := est.Value/inter - 1
		sumMulti += d
		sqMulti += d * d
	}
	if nSingle == 0 {
		t.Fatal("single-level estimator never produced an estimate")
	}
	meanMulti := sumMulti / runs
	if math.Abs(meanMulti) > 0.25 {
		t.Errorf("multi-level bias %.3f too large", meanMulti)
	}
	rmsSingle := math.Sqrt(sqSingle / float64(nSingle))
	rmsMulti := math.Sqrt(sqMulti / runs)
	if rmsMulti > rmsSingle {
		t.Errorf("multi-level RMS error %.3f not below single-level %.3f", rmsMulti, rmsSingle)
	}
}
