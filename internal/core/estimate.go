package core

import (
	"errors"
	"fmt"
	"math"
)

// The paper's two estimators, both run by the query kernel
// (querykernel.go) over the families' packed views:
//
//   - EstimateUnion / EstimateUnionBits — procedure SetUnionEstimator
//     (Fig. 5): scan first-level bucket indices for the first whose
//     non-empty fraction drops below (1+ε)/8, then invert the occupancy
//     probability p = 1 − (1 − 1/R)^u (unionFromCounts); or, with
//     multiLevel, the all-levels ML estimate (unionml.go).
//   - Query.Estimate / Query.EstimateBits — the general §4 witness
//     estimator: pick level j = ⌈log₂(β·û/(1−ε))⌉ with β = 2; count,
//     among copies whose level-j union bucket is a singleton, the
//     fraction whose per-stream occupancy flags satisfy the Boolean
//     mapping B(E); scale by û. Fig. 6's SetDifferenceEstimator and
//     SetIntersectionEstimator (§3.5) are its "A - B" and "A & B"
//     cases.

// Beta is the paper's β constant for witness-level selection; §3.4
// derives β = 2 as the value minimizing the required number of sketch
// copies (together with ε₁ = (√5−1)/2).
const Beta = 2.0

// ErrNoObservations is returned by witness-based estimators when none
// of the sketch copies produced a valid 0/1 observation (no copy had a
// singleton union bucket at the chosen level). With r = Θ(log(1/δ))
// copies this happens with probability at most δ; callers should add
// copies or treat the expression cardinality as too small to resolve.
var ErrNoObservations = errors.New("core: no sketch copy yielded a valid witness observation; increase the number of copies")

// ErrMissingStream is returned by Query.Estimate when the
// expression references a stream with no registered family.
type ErrMissingStream struct{ Name string }

func (e *ErrMissingStream) Error() string {
	return fmt.Sprintf("core: expression references stream %q with no registered synopsis", e.Name)
}

// Estimate is a cardinality estimate with its diagnostics.
type Estimate struct {
	// Value is the estimated cardinality |E|.
	Value float64
	// Level is the first-level bucket index the estimate was read from.
	Level int
	// Copies is the number of sketch copies r consulted.
	Copies int
	// Valid is the number of valid 0/1 witness observations (r' in the
	// paper's analysis); equal to Copies for the union estimator.
	Valid int
	// Witnesses is the number of positive witness observations.
	Witnesses int
	// Union is the union-cardinality estimate û the witness estimators
	// scale by; zero for the direct union estimator.
	Union float64
	// StdError is an approximate standard error of Value, when the
	// estimator can compute one (the ML union estimator via observed
	// Fisher information; witness estimators by combining binomial
	// witness noise with the û uncertainty). Zero for the Fig. 5 union
	// estimator, which does not report one.
	StdError float64
}

// unionFromCounts is the Fig. 5 estimator over a precomputed occupancy
// profile: counts[j] = number of copies whose union bucket j is
// non-empty. The level-scan accounting in Stats counts the levels up
// to the break, as a lazy scan would, even though the profile was
// filled eagerly.
func unionFromCounts(cfg Config, r int, counts *[64]int, eps float64) (Estimate, error) {
	if eps <= 0 || eps >= 1 {
		return Estimate{}, fmt.Errorf("core: relative accuracy ε = %v out of (0, 1)", eps)
	}
	f := (1 + eps) * float64(r) / 8
	index := 0
	count := 0
	for ; index < cfg.Buckets; index++ {
		count = counts[index]
		if float64(count) <= f {
			break // first index with count ≤ f (Fig. 5 step 9)
		}
	}
	Stats.UnionEstimates.Add(1)
	Stats.UnionLevelScans.Add(uint64(index + 1))
	if index == cfg.Buckets {
		return Estimate{}, fmt.Errorf("core: union estimator exhausted all %d levels", cfg.Buckets)
	}
	est := Estimate{Level: index, Copies: r, Valid: r, Witnesses: count}
	if count == 0 {
		est.Value = 0
		return est, nil
	}
	p := float64(count) / float64(r)
	invR := math.Pow(2, -float64(index+1))
	est.Value = math.Log1p(-p) / math.Log1p(-invR)
	return est, nil
}

// finishWitnessEstimate folds witness tallies into the final estimate —
// shared with the tests' interpreted reference, so the two cannot
// drift numerically. est must carry Valid/Witnesses/Union.
//
// The error bar is the delta method: Var(p̂·û) ≈ û²·p(1−p)/valid +
// p²·Var(û). Witness observations within one sketch are correlated
// across levels, so this mildly understates multi-level noise; it is an
// indicator, not a guarantee.
func finishWitnessEstimate(est *Estimate, u Estimate, checks uint64) error {
	recordWitnessStats(checks, *est)
	if est.Valid == 0 {
		return ErrNoObservations
	}
	p := float64(est.Witnesses) / float64(est.Valid)
	est.Value = p * u.Value
	varP := p * (1 - p) / float64(est.Valid)
	est.StdError = math.Sqrt(u.Value*u.Value*varP + p*p*u.StdError*u.StdError)
	return nil
}

// RecommendedCopies returns the Θ(log(1/δ)/ε²) copy count for the union
// estimator's (ε, δ) guarantee, using the explicit constant from the
// §3.3 Chernoff analysis: r ≥ 256·ln(1/δ)/(7ε²). Witness-based
// estimators additionally scale with |∪A_i|/|E| (Theorems 3.4, 3.5,
// 4.1); use RecommendedWitnessCopies when a bound on that ratio is
// known.
func RecommendedCopies(eps, delta float64) int {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		return 0
	}
	return int(math.Ceil(256 * math.Log(1/delta) / (7 * eps * eps)))
}

// RecommendedWitnessCopies returns a copy count for the difference /
// intersection / expression estimators given a bound on the ratio
// |∪A_i| / |E|. It scales the Chernoff requirement r'·p ≥ 2·ln(1/δ)/ε²
// by the valid-observation yield (1−ε₁)(β−1)/β² from §3.4 with the
// optimal constants β = 2, ε₁ = (√5−1)/2.
func RecommendedWitnessCopies(eps, delta, unionToResultRatio float64) int {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 || unionToResultRatio < 1 {
		return 0
	}
	eps1 := (math.Sqrt(5) - 1) / 2
	yield := (1 - eps1) * (Beta - 1) / (Beta * Beta)
	need := 2 * math.Log(1/delta) / (eps * eps) * unionToResultRatio
	return int(math.Ceil(need / yield))
}
