package core

import (
	"errors"
	"math"
	"testing"

	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

// estCfg trades a little confidence for speed in statistical tests.
var estCfg = Config{Buckets: 61, SecondLevel: 16, FirstWise: 8}

// buildFamilies creates aligned families for the named streams and
// inserts each stream's elements.
func buildFamilies(t testing.TB, cfg Config, seed uint64, r int, streams map[string][]uint64) map[string]*Family {
	t.Helper()
	fams := make(map[string]*Family, len(streams))
	for name, elems := range streams {
		f := mustFamily(t, cfg, seed, r)
		for _, e := range elems {
			f.Insert(e)
		}
		fams[name] = f
	}
	return fams
}

// overlapStreams builds two streams with |A ∪ B| = u and |A ∩ B| = inter,
// split so that |A − B| = |B − A| = (u − inter) / 2.
func overlapStreams(rng *hashing.RNG, u, inter int) (a, b []uint64) {
	seen := make(map[uint64]bool, u)
	elems := make([]uint64, 0, u)
	for len(elems) < u {
		e := rng.Uint64n(1 << 32)
		if !seen[e] {
			seen[e] = true
			elems = append(elems, e)
		}
	}
	for i, e := range elems {
		switch {
		case i < inter:
			a = append(a, e)
			b = append(b, e)
		case i%2 == 0:
			a = append(a, e)
		default:
			b = append(b, e)
		}
	}
	return a, b
}

func relErr(got float64, want int) float64 {
	return math.Abs(got-float64(want)) / float64(want)
}

func TestEstimateUnionAccuracy(t *testing.T) {
	rng := hashing.NewRNG(101)
	const u, inter, r = 4096, 1024, 256
	a, b := overlapStreams(rng, u, inter)
	fams := buildFamilies(t, estCfg, 2003, r, map[string][]uint64{"A": a, "B": b})
	est, err := EstimateUnion([]*Family{fams["A"], fams["B"]}, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, u); e > 0.25 {
		t.Errorf("union estimate %.0f for true %d (rel err %.2f)", est.Value, u, e)
	}
	if est.Copies != r || est.Valid != r {
		t.Errorf("diagnostics: %+v", est)
	}
}

func TestEstimateDistinctSingleStream(t *testing.T) {
	rng := hashing.NewRNG(55)
	elems := make([]uint64, 0, 2000)
	seen := make(map[uint64]bool)
	for len(elems) < 2000 {
		e := rng.Uint64n(1 << 31)
		if !seen[e] {
			seen[e] = true
			elems = append(elems, e)
		}
	}
	f := mustFamily(t, estCfg, 9, 256)
	for _, e := range elems {
		f.Insert(e)
		f.Insert(e) // duplicates must not affect the distinct count
	}
	est, err := EstimateUnion([]*Family{f}, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, 2000); e > 0.25 {
		t.Errorf("distinct estimate %.0f for true 2000 (rel err %.2f)", est.Value, e)
	}
}

func TestEstimateUnionEmpty(t *testing.T) {
	a := mustFamily(t, estCfg, 1, 32)
	b := mustFamily(t, estCfg, 1, 32)
	est, err := EstimateUnion([]*Family{a, b}, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 {
		t.Errorf("union of empty streams estimated %v, want 0", est.Value)
	}
}

func TestEstimateUnionBadInputs(t *testing.T) {
	a := mustFamily(t, estCfg, 1, 8)
	b := mustFamily(t, estCfg, 2, 8) // different seed
	if _, err := EstimateUnion([]*Family{a, b}, 0.1, false); !errors.Is(err, ErrNotAligned) {
		t.Errorf("unaligned union: err = %v, want ErrNotAligned", err)
	}
	c := mustFamily(t, estCfg, 1, 8)
	for _, eps := range []float64{0, 1, -0.5, 2} {
		if _, err := EstimateUnion([]*Family{a, c}, eps, false); err == nil {
			t.Errorf("ε = %v accepted", eps)
		}
	}
	if _, err := EstimateUnion(nil, 0.1, false); err == nil {
		t.Error("empty family list accepted")
	}
}

func TestEstimateIntersectionAccuracy(t *testing.T) {
	rng := hashing.NewRNG(77)
	const u, inter, r = 4096, 1024, 512
	a, b := overlapStreams(rng, u, inter)
	fams := buildFamilies(t, estCfg, 41, r, map[string][]uint64{"A": a, "B": b})
	est, err := estimateNode(expr.MustParse("A & B"), fams, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, inter); e > 0.4 {
		t.Errorf("intersection estimate %.0f for true %d (rel err %.2f, valid %d/%d)",
			est.Value, inter, e, est.Valid, est.Copies)
	}
	if est.Valid == 0 || est.Valid > est.Copies {
		t.Errorf("implausible valid-observation count: %+v", est)
	}
}

func TestEstimateDifferenceAccuracy(t *testing.T) {
	rng := hashing.NewRNG(88)
	const u, inter, r = 4096, 2048, 512
	diff := (u - inter) / 2 // |A − B|
	a, b := overlapStreams(rng, u, inter)
	fams := buildFamilies(t, estCfg, 42, r, map[string][]uint64{"A": a, "B": b})
	est, err := estimateNode(expr.MustParse("A - B"), fams, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, diff); e > 0.4 {
		t.Errorf("difference estimate %.0f for true %d (rel err %.2f)", est.Value, diff, e)
	}
}

func TestEstimateDifferenceDisjointAndIdentical(t *testing.T) {
	rng := hashing.NewRNG(99)
	const u, r = 2048, 384
	// Disjoint: |A − B| = |A| = u/2.
	a, b := overlapStreams(rng, u, 0)
	fams := buildFamilies(t, estCfg, 5, r, map[string][]uint64{"A": a, "B": b})
	est, err := estimateNode(expr.MustParse("A - B"), fams, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, u/2); e > 0.4 {
		t.Errorf("disjoint difference %.0f, want ≈ %d", est.Value, u/2)
	}
	// Identical streams: |A − B| = 0; every witness observation is 0.
	fams2 := buildFamilies(t, estCfg, 6, r, map[string][]uint64{"A": a, "B": a})
	est2, err := estimateNode(expr.MustParse("A - B"), fams2, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Value != 0 {
		t.Errorf("A − A estimated %v, want exactly 0", est2.Value)
	}
}

func TestEstimateIntersectionUnderDeletions(t *testing.T) {
	// The headline capability: estimates remain correct when the
	// overlap is created and then partially destroyed by deletions.
	rng := hashing.NewRNG(111)
	const u, inter, r = 2048, 512, 384
	a, b := overlapStreams(rng, u, inter)
	fams := buildFamilies(t, estCfg, 7, r, map[string][]uint64{"A": a, "B": b})

	// Insert 300 extra shared elements, then delete them again: the
	// true intersection is unchanged.
	for i := 0; i < 300; i++ {
		e := rng.Uint64n(1<<32) | (1 << 40) // outside the original domain
		fams["A"].Insert(e)
		fams["B"].Insert(e)
		fams["A"].Delete(e)
		fams["B"].Delete(e)
	}
	est, err := estimateNode(expr.MustParse("A & B"), fams, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, inter); e > 0.4 {
		t.Errorf("intersection under churn %.0f, want ≈ %d (rel err %.2f)", est.Value, inter, e)
	}
}

// TestEstimateExpressionMatchesBinaryOperators pins the kernel's
// single-level "A - B" and "A & B" to the literal Fig. 6 procedures,
// and its Fig. 5 union to the literal level scan, exactly on every
// field the literal forms report (they leave StdError 0), over streams
// with deletions.
func TestEstimateExpressionMatchesBinaryOperators(t *testing.T) {
	ops := []struct {
		src    string
		atomic func(xa, xb *Sketch, level int) (int, bool)
	}{{"A - B", atomicDiff}, {"A & B", atomicIntersect}}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := hashing.NewRNG(seed)
		a, b := overlapStreams(rng, 600, int(seed*7))
		fams := buildFamilies(t, estCfg, seed, 48, map[string][]uint64{"A": a, "B": b})
		for _, e := range a[:len(a)/4] {
			fams["A"].Delete(e)
		}
		for _, eps := range []float64{0.1, 0.3} {
			u, err := EstimateUnion([]*Family{fams["A"], fams["B"]}, eps, false)
			want, wantErr := fig5Union([]*Family{fams["A"], fams["B"]}, eps)
			if u != want || (err == nil) != (wantErr == nil) {
				t.Fatalf("seed %d ε=%v union: kernel %+v (%v), Fig. 5 %+v (%v)", seed, eps, u, err, want, wantErr)
			}
			for _, op := range ops {
				got, err := estimateNode(expr.MustParse(op.src), fams, eps, false)
				want, wantErr := fig6Estimate(fams["A"], fams["B"], eps, op.atomic)
				got.StdError = 0
				if got != want || (err == nil) != (wantErr == nil) {
					t.Fatalf("seed %d ε=%v %s: kernel %+v (%v), Fig. 6 %+v (%v)", seed, eps, op.src, got, err, want, wantErr)
				}
			}
		}
	}
}

func TestEstimateExpressionThreeStreams(t *testing.T) {
	// (A − B) ∩ C with a controlled construction: elements 0..2047 in
	// A; 1024..2047 also in B; C contains 0..511 and 1024..1535.
	// (A − B) = {0..1023}, so (A − B) ∩ C = {0..511}: cardinality 512.
	var a, b, c []uint64
	for e := uint64(0); e < 2048; e++ {
		a = append(a, e)
		if e >= 1024 {
			b = append(b, e)
		}
		if e < 512 || (e >= 1024 && e < 1536) {
			c = append(c, e)
		}
	}
	fams := buildFamilies(t, estCfg, 77, 512, map[string][]uint64{"A": a, "B": b, "C": c})
	est, err := estimateNode(expr.MustParse("(A - B) & C"), fams, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, 512); e > 0.45 {
		t.Errorf("(A - B) & C estimate %.0f, want ≈ 512 (rel err %.2f)", est.Value, e)
	}
	if est.Union == 0 || est.Level == 0 {
		t.Errorf("missing diagnostics: %+v", est)
	}
}

func TestEstimateExpressionUnionViaWitness(t *testing.T) {
	// §4 handles union through the witness scheme too; check A | B.
	rng := hashing.NewRNG(3)
	const u, inter, r = 4096, 1024, 512
	a, b := overlapStreams(rng, u, inter)
	fams := buildFamilies(t, estCfg, 10, r, map[string][]uint64{"A": a, "B": b})
	est, err := estimateNode(expr.MustParse("A | B"), fams, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(est.Value, u); e > 0.35 {
		t.Errorf("witness-based union estimate %.0f, want ≈ %d", est.Value, u)
	}
}

func TestEstimateExpressionErrors(t *testing.T) {
	fams := buildFamilies(t, estCfg, 1, 8, map[string][]uint64{"A": {1, 2}})
	_, err := estimateNode(expr.MustParse("A - B"), fams, 0.1, false)
	var missing *ErrMissingStream
	if !errors.As(err, &missing) || missing.Name != "B" {
		t.Errorf("missing stream: err = %v", err)
	}
	if _, err := estimateNode(expr.MustParse("A"), fams, 0, false); err == nil {
		t.Error("ε = 0 accepted")
	}
	if missing.Error() == "" {
		t.Error("empty error message")
	}
}

func TestEstimateExpressionEmptyStreams(t *testing.T) {
	fams := map[string]*Family{
		"A": mustFamily(t, estCfg, 4, 16),
		"B": mustFamily(t, estCfg, 4, 16),
	}
	est, err := estimateNode(expr.MustParse("A & B"), fams, 0.2, false)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 {
		t.Errorf("expression over empty streams estimated %v", est.Value)
	}
}

func TestChooseWitnessLevel(t *testing.T) {
	cfg := DefaultConfig()
	// û = 1000, β = 2, ε = 0.1 → ⌈log₂(2000/0.9)⌉ = ⌈11.12⌉ = 12.
	if got := chooseWitnessLevel(cfg, 1000, 2, 0.1); got != 12 {
		t.Errorf("chooseWitnessLevel(1000) = %d, want 12", got)
	}
	if got := chooseWitnessLevel(cfg, 0.5, 2, 0.1); got != 0 {
		t.Errorf("tiny union level = %d, want 0", got)
	}
	if got := chooseWitnessLevel(cfg, math.MaxFloat64/4, 2, 0.1); got != cfg.Buckets-1 {
		t.Errorf("huge union level = %d, want clamped %d", got, cfg.Buckets-1)
	}
}

func TestRecommendedCopies(t *testing.T) {
	r := RecommendedCopies(0.1, 0.05)
	// 256·ln(20)/(7·0.01) ≈ 10957.
	if r < 10000 || r > 12000 {
		t.Errorf("RecommendedCopies(0.1, 0.05) = %d, want ≈ 11000", r)
	}
	if RecommendedCopies(0, 0.1) != 0 || RecommendedCopies(0.1, 0) != 0 {
		t.Error("invalid parameters should return 0")
	}
	w := RecommendedWitnessCopies(0.1, 0.05, 8)
	if w <= r/2 {
		t.Errorf("witness copies %d not scaled by union/result ratio", w)
	}
	if RecommendedWitnessCopies(0.1, 0.05, 0.5) != 0 {
		t.Error("ratio < 1 should return 0")
	}
}

func TestEstimateExpressionMultiLevelAccuracy(t *testing.T) {
	// The multi-level variant must be unbiased for the same quantity
	// and, with ~15× the valid observations, visibly tighter.
	rng := hashing.NewRNG(600)
	const u, inter, r = 4096, 256, 256 // small target: u/16
	a, b := overlapStreams(rng, u, inter)
	fams := buildFamilies(t, estCfg, 21, r, map[string][]uint64{"A": a, "B": b})
	node := expr.MustParse("A & B")
	multi, err := estimateNode(node, fams, 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	// p = 1/16 with ≈ 1.44·r valid observations gives σ ≈ 20%; allow 2.5σ.
	if e := relErr(multi.Value, inter); e > 0.5 {
		t.Errorf("multi-level estimate %.0f for true %d (rel err %.2f)", multi.Value, inter, e)
	}
	single, err := estimateNode(node, fams, 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Valid <= 2*single.Valid {
		t.Errorf("multi-level yield %d not ≫ single-level yield %d", multi.Valid, single.Valid)
	}
}

func TestEstimateExpressionMultiLevelEdgeCases(t *testing.T) {
	fams := map[string]*Family{
		"A": mustFamily(t, estCfg, 4, 16),
		"B": mustFamily(t, estCfg, 4, 16),
	}
	node := expr.MustParse("A & B")
	est, err := estimateNode(node, fams, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 {
		t.Errorf("multi-level over empty streams estimated %v", est.Value)
	}
	if _, err := estimateNode(node, map[string]*Family{"A": fams["A"]}, 0.2, true); err == nil {
		t.Error("missing stream accepted")
	}
	if _, err := estimateNode(node, fams, 0, true); err == nil {
		t.Error("eps = 0 accepted")
	}
}

// TestErrorShrinksWithCopies reproduces the qualitative 1/√r trend of
// the paper's figures at unit-test scale: the trimmed error at r = 384
// should generally beat r = 48.
func TestErrorShrinksWithCopies(t *testing.T) {
	rng := hashing.NewRNG(500)
	const u, inter = 2048, 512
	errSmall, errLarge := 0.0, 0.0
	const runs = 5
	for run := 0; run < runs; run++ {
		a, b := overlapStreams(rng, u, inter)
		fams := buildFamilies(t, estCfg, rng.Uint64(), 384, map[string][]uint64{"A": a, "B": b})
		small := map[string]*Family{}
		for k, f := range fams {
			tr, err := f.Truncate(48)
			if err != nil {
				t.Fatal(err)
			}
			small[k] = tr
		}
		if est, err := estimateNode(expr.MustParse("A & B"), small, 0.3, false); err == nil {
			errSmall += relErr(est.Value, inter)
		} else {
			errSmall += 1
		}
		est, err := estimateNode(expr.MustParse("A & B"), fams, 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		errLarge += relErr(est.Value, inter)
	}
	if errLarge >= errSmall {
		t.Errorf("error did not shrink with copies: r=48 avg %.3f vs r=384 avg %.3f",
			errSmall/runs, errLarge/runs)
	}
}
