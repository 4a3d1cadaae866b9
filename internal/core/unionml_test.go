package core

import (
	"math"
	"testing"

	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

// distinctElems draws n distinct elements below max, in draw order.
func distinctElems(rng *hashing.RNG, n int, max uint64) []uint64 {
	seen := make(map[uint64]bool, n)
	elems := make([]uint64, 0, n)
	for len(elems) < n {
		e := rng.Uint64n(max)
		if !seen[e] {
			seen[e] = true
			elems = append(elems, e)
		}
	}
	return elems
}

// insertBatched inserts every element through the batch digest kernel,
// 1,024 at a time — by linearity the same family as one Insert each,
// at a fraction of the cost under the race detector.
func insertBatched(f *Family, elems []uint64) {
	ones := make([]int64, 1024)
	for i := range ones {
		ones[i] = 1
	}
	for len(elems) > 0 {
		chunk := elems[:min(len(elems), len(ones))]
		elems = elems[len(chunk):]
		f.UpdateBatchDigest(f.DigestBatch(chunk), ones[:len(chunk)])
	}
}

func TestUnionMLAccuracy(t *testing.T) {
	rng := hashing.NewRNG(41)
	for _, n := range []int{100, 5000, 140000} {
		f := mustFamily(t, estCfg, 17, 384)
		insertBatched(f, distinctElems(rng, n, 1<<34))
		est, err := EstimateUnion([]*Family{f}, 0.1, true)
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(est.Value-float64(n)) / float64(n); rel > 0.15 {
			t.Errorf("n = %d: ML estimate %.0f (rel err %.3f)", n, est.Value, rel)
		}
	}
}

// TestUnionMLTighterThanFig5 quantifies the motivation: across
// independent runs, the all-levels MLE has visibly lower RMS error
// than the single-level Fig. 5 estimator on the same synopses.
func TestUnionMLTighterThanFig5(t *testing.T) {
	rng := hashing.NewRNG(42)
	const n, runs = 20000, 8
	var sqML, sqFig5 float64
	for run := 0; run < runs; run++ {
		f := mustFamily(t, estCfg, rng.Uint64(), 384)
		insertBatched(f, distinctElems(rng, n, 1<<34))
		ml, err := EstimateUnion([]*Family{f}, 0.1, true)
		if err != nil {
			t.Fatal(err)
		}
		fig5, err := EstimateUnion([]*Family{f}, 0.1, false)
		if err != nil {
			t.Fatal(err)
		}
		dML := ml.Value/n - 1
		dF := fig5.Value/n - 1
		sqML += dML * dML
		sqFig5 += dF * dF
	}
	rmsML := math.Sqrt(sqML / runs)
	rmsFig5 := math.Sqrt(sqFig5 / runs)
	t.Logf("RMS error: ML %.4f vs Fig5 %.4f", rmsML, rmsFig5)
	if rmsML >= rmsFig5 {
		t.Errorf("ML union (%.4f) not tighter than Fig. 5 (%.4f)", rmsML, rmsFig5)
	}
}

// TestUnionMLStdErrorCalibrated checks the Fisher error bar: across
// independent runs, observed errors should mostly fall within 3
// standard errors and the bar should not be wildly pessimistic.
func TestUnionMLStdErrorCalibrated(t *testing.T) {
	rng := hashing.NewRNG(44)
	const n, runs = 10000, 10
	within3, ratioSum := 0, 0.0
	for run := 0; run < runs; run++ {
		f := mustFamily(t, estCfg, rng.Uint64(), 256)
		insertBatched(f, distinctElems(rng, n, 1<<33))
		est, err := EstimateUnion([]*Family{f}, 0.1, true)
		if err != nil {
			t.Fatal(err)
		}
		if est.StdError <= 0 {
			t.Fatal("no standard error reported")
		}
		absErr := math.Abs(est.Value - n)
		if absErr <= 3*est.StdError {
			within3++
		}
		ratioSum += est.StdError / float64(n)
	}
	if within3 < runs-2 {
		t.Errorf("only %d/%d runs within 3 standard errors", within3, runs)
	}
	if avg := ratioSum / runs; avg > 0.2 {
		t.Errorf("error bar uselessly wide: avg relative stderr %.3f", avg)
	}
}

func TestWitnessStdErrorReported(t *testing.T) {
	rng := hashing.NewRNG(45)
	a, b := overlapStreams(rng, 2048, 512)
	fams := buildFamilies(t, estCfg, 46, 256, map[string][]uint64{"A": a, "B": b})
	est, err := estimateNode(expr.MustParse("A & B"), fams, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if est.StdError <= 0 || est.StdError > est.Value {
		t.Errorf("witness StdError = %v for estimate %v", est.StdError, est.Value)
	}
}

func TestUnionMLEmptyAndErrors(t *testing.T) {
	f := mustFamily(t, estCfg, 1, 16)
	est, err := EstimateUnion([]*Family{f}, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 {
		t.Errorf("empty stream ML estimate %v", est.Value)
	}
	if _, err := EstimateUnion(nil, 0.1, true); err == nil {
		t.Error("empty family list accepted")
	}
	if _, err := EstimateUnion([]*Family{f}, 0, true); err == nil {
		t.Error("eps 0 accepted")
	}
	g := mustFamily(t, estCfg, 2, 16)
	if _, err := EstimateUnion([]*Family{f, g}, 0.1, true); err == nil {
		t.Error("unaligned families accepted")
	}
}

func TestUnionMLSmallExactRange(t *testing.T) {
	// Tiny cardinalities: the profile pins u tightly.
	f := mustFamily(t, estCfg, 9, 256)
	for e := uint64(0); e < 10; e++ {
		f.Insert(e)
	}
	est, err := EstimateUnion([]*Family{f}, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value < 5 || est.Value > 20 {
		t.Errorf("ML estimate %v for 10 elements", est.Value)
	}
}

func TestUnionMLBitsMatchesCounters(t *testing.T) {
	cf := mustFamily(t, estCfg, 21, 128)
	bf := mustBitFamily(t, estCfg, 21, 128)
	rng := hashing.NewRNG(5)
	for i := 0; i < 3000; i++ {
		e := rng.Uint64n(1 << 26)
		cf.Insert(e)
		bf.Insert(e)
	}
	ce, err := EstimateUnion([]*Family{cf}, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	be, err := EstimateUnionBits([]*BitFamily{bf}, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Value != be.Value {
		t.Errorf("counter ML %.2f vs bit ML %.2f", ce.Value, be.Value)
	}
	if _, err := EstimateUnionBits(nil, 0.1, true); err == nil {
		t.Error("empty bit family list accepted")
	}
}

// TestUnionMLDeletionInvariance: the ML estimator reads the same
// counters, so churn that cancels leaves the estimate identical.
func TestUnionMLDeletionInvariance(t *testing.T) {
	clean := mustFamily(t, estCfg, 33, 128)
	churned := mustFamily(t, estCfg, 33, 128)
	rng := hashing.NewRNG(6)
	for i := 0; i < 2000; i++ {
		e := rng.Uint64n(1 << 24)
		clean.Insert(e)
		churned.Insert(e)
		ph := (1 << 40) + rng.Uint64n(1<<20)
		churned.Update(ph, 3)
		churned.Update(ph, -3)
	}
	ec, err := EstimateUnion([]*Family{clean}, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := EstimateUnion([]*Family{churned}, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Value != ed.Value {
		t.Errorf("churn changed ML estimate: %v vs %v", ec.Value, ed.Value)
	}
}
