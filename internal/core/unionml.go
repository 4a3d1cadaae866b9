package core

import (
	"errors"
	"math"
)

// Maximum-likelihood union estimation across all first-level buckets.
//
// The paper's SetUnionEstimator (Fig. 5) reads the occupancy count of a
// single first-level index — the first whose non-empty fraction drops
// below (1+ε)/8 — where the expected count is only ≈ r/8. At the
// experiments' r = 512 that one binomial observation carries 12–18%
// relative noise, and because every witness-based estimate scales by
// û, that noise is the dominant error term end-to-end.
//
// The same synopses contain occupancy counts at *every* level, and each
// level j's count is Binomial(r, p_j(u)) with
//
//	p_j(u) = 1 − (1 − 2^−(j+1))^u,
//
// so the whole occupancy profile is a likelihood function of the single
// unknown u. unionMLFromCounts maximizes the joint (independence-
// approximate) log-likelihood
//
//	L(u) = Σ_j [ c_j·ln p_j(u) + (r − c_j)·ln(1 − p_j(u)) ]
//
// over u by golden-section search (each term is concave in u, so L is
// unimodal). Counts at different levels of one sketch are mildly
// negatively correlated — the product form is an approximation — but
// every marginal is exact, so the estimator stays consistent; at
// r = 512 its observed error is ≈ 3× smaller than Fig. 5's (see the
// level ablation in EXPERIMENTS.md). This mirrors the multi-level
// witness harvest: identical storage and maintenance, strictly more of
// the synopsis read at estimation time. EstimateUnion with multiLevel
// true runs it; so does every multi-level witness estimate, for û.

// qTable holds q_j = −ln(1 − 2^−(j+1)), so p_j(u) = 1 − e^(−q_j·u).
// Precomputed once: the table depends only on the level index, and
// hoisting it out of the estimator keeps the serial query path
// allocation-free.
var qTable = func() [64]float64 {
	var q [64]float64
	for j := range q {
		q[j] = -math.Log1p(-math.Pow(2, -float64(j+1)))
	}
	return q
}()

// unionMLFromCounts is the ML estimator over a precomputed occupancy
// profile (counts[j] = copies whose union bucket j is non-empty).
func unionMLFromCounts(cfg Config, r int, countsArr *[64]int) (Estimate, error) {
	if r < 1 {
		return Estimate{}, errors.New("core: family has no copies")
	}
	counts := countsArr[:cfg.Buckets]
	total := 0
	for _, c := range counts {
		total += c
	}
	Stats.UnionEstimates.Add(1)
	Stats.UnionLevelScans.Add(uint64(cfg.Buckets))
	est := Estimate{Copies: r, Valid: r, Witnesses: total}
	if total == 0 {
		return est, nil // no live element anywhere
	}
	q := qTable[:cfg.Buckets]
	rf := float64(r)
	logLik := func(u float64) float64 {
		var sum float64
		for j, c := range counts {
			x := q[j] * u
			if c == 0 {
				sum += -x * rf // r·ln(e^{−qu}), no exp needed
				continue
			}
			if x >= 40 {
				// e^−x < 2^−54, so 1 − e rounds to exactly 1 and ln p to
				// exactly 0: only the −x·(r−c) term of the general case
				// survives (0 when c = r). Same bits as the slow path,
				// and it skips the exp for every saturated low level.
				sum += -x * (rf - float64(c))
				continue
			}
			e := math.Exp(-x) // 1 − p_j(u)
			p := 1 - e
			cf := float64(c)
			if c == r {
				sum += rf * math.Log(p)
			} else {
				sum += cf*math.Log(p) - x*(rf-cf)
			}
		}
		return sum
	}
	// Golden-section search on log2(u): L is unimodal in u, and the
	// bracket [2^−4, 2^62] covers every representable cardinality. Each
	// iteration reuses one interior evaluation, so the transcendental
	// bill is one logLik per step instead of ternary search's two; the
	// 1e-8 bracket tolerance leaves the maximizer within a relative
	// 7e-9 — far below the estimator's statistical noise.
	const invPhi = 0.6180339887498949
	lo, hi := -4.0, 62.0
	m1 := hi - invPhi*(hi-lo)
	m2 := lo + invPhi*(hi-lo)
	f1, f2 := logLik(math.Exp2(m1)), logLik(math.Exp2(m2))
	for iter := 0; iter < 200 && hi-lo > 1e-8; iter++ {
		if f1 < f2 {
			lo, m1, f1 = m1, m2, f2
			m2 = lo + invPhi*(hi-lo)
			f2 = logLik(math.Exp2(m2))
		} else {
			hi, m2, f2 = m2, m1, f1
			m1 = hi - invPhi*(hi-lo)
			f1 = logLik(math.Exp2(m1))
		}
	}
	est.Value = math.Exp2((lo + hi) / 2)
	// Standard error from the observed Fisher information of the
	// binomial profile: I(u) = Σ_j r·(dp_j/du)² / (p_j·(1−p_j)), with
	// dp_j/du = q_j·e^(−q_j·u).
	var info float64
	for j := range q {
		e := math.Exp(-q[j] * est.Value)
		p := 1 - e
		if p <= 0 || p >= 1 {
			continue
		}
		d := q[j] * e
		info += rf * d * d / (p * (1 - p))
	}
	if info > 0 {
		est.StdError = 1 / math.Sqrt(info)
	}
	// Report the most informative level for diagnostics: the one whose
	// expected occupancy is closest to r/2.
	best, bestGap := 0, math.Inf(1)
	for j := range counts {
		gap := math.Abs(float64(counts[j]) - rf/2)
		if gap < bestGap {
			best, bestGap = j, gap
		}
	}
	est.Level = best
	return est, nil
}
