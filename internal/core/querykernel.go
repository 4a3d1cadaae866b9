package core

import (
	"errors"
	"fmt"
	"math/bits"

	"setsketch/internal/expr"
)

// The query kernel is the only estimator: every union and expression
// estimate runs one occupancy pass and, for expressions, one witness
// scan. Three layers stack:
//
//  1. expr.Compile turns the expression's Boolean mapping B(E) into a
//     truth table / postfix program over a packed uint64 occupancy
//     word. Expressions over more than expr.MaxCompiledStreams
//     streams keep the parsed node and evaluate B(E) with EvalBool
//     inside the same scan.
//  2. familyView (queryview.go) caches packed per-copy occupancy and
//     cell-signature bitmaps behind each family's version counter, so
//     "bucket occupied" and "union bucket singleton" are word tests.
//  3. Both passes walk the r independent sketch copies once, serially
//     on the calling goroutine, keeping integer tallies; the result is
//     pinned bit-identical to the interpreted counter-scanning
//     reference in the tests.

// EstimateOptions is an empty placeholder kept so existing callers
// compile: the kernel has no tuning left, since a parallel witness
// scan measured slower than the serial one at r = 128 on two cores.
type EstimateOptions struct{}

// Query is a compiled set-expression query: the parsed node plus its
// compiled occupancy-word program and sorted stream binding. A Query
// is immutable and safe for concurrent use; watchers compile once at
// registration and reuse the Query every round.
type Query struct {
	node  expr.Node
	names []string      // sorted distinct streams; bit k of the occupancy word
	prog  *expr.Program // nil over > expr.MaxCompiledStreams streams
}

// CompileQuery compiles an expression for the query kernel. It accepts
// every expression: over more than expr.MaxCompiledStreams (64)
// distinct streams the witness scan evaluates the parsed node instead
// of a compiled program, so the error is always nil.
func CompileQuery(e expr.Node) (*Query, error) {
	q := &Query{node: e, names: expr.Streams(e)}
	if len(q.names) <= expr.MaxCompiledStreams {
		prog, err := expr.Compile(e, q.names)
		if err != nil {
			return nil, err
		}
		q.prog = prog
	}
	return q, nil
}

// Estimate estimates |E| over counter families: fams maps stream
// names to aligned families, and every stream the query references
// must be present.
//
// Per sketch copy and level, the §4 estimator (1) requires the union
// bucket to be a singleton for ∪_i A_i and (2) evaluates B(E) on the
// per-stream occupancy flags of that bucket: leaves are "bucket
// non-empty in X_{A_i}", ∪ ↦ ∨, ∩ ↦ ∧, − ↦ ∧¬. The fraction of valid
// observations satisfying B(E), scaled by û = |∪_i A_i|, estimates
// |E|. Fig. 6's difference and intersection estimators are the
// two-stream cases "A - B" and "A & B".
//
// With multiLevel false the scan reads the single level
// j = ⌈log₂(β·û/(1−ε))⌉ and û is the Fig. 5 estimate at ε/3 — the
// paper's pseudo-code verbatim. With multiLevel true it harvests
// witnesses from every level and scales by the all-levels
// maximum-likelihood û (unionml.go). The conditional witness
// probability |E|/|∪A_i| holds at every level, because numerator and
// denominator carry the same (1−1/R)^(|U|−1) factor, so summing over
// the Θ(log M) levels raises the expected valid observations per
// sketch from ≈ 0.06–0.14 to ≈ 1/ln 2 ≈ 1.44 from identical storage;
// this is the variant that reproduces the paper's experimental error
// levels (§5.2, EXPERIMENTS.md).
//
// It allocates nothing for queries over at most 64 streams once the
// family views are warm.
func (q *Query) Estimate(fams map[string]*Family, eps float64, multiLevel bool, opts EstimateOptions) (Estimate, error) {
	return estimateQuery(q, fams, eps, multiLevel, opts)
}

// EstimateBits is Estimate over the paper's insert-only bit synopses
// (§5.2). Estimates are identical to the counter version on the same
// insert stream and coins.
func (q *Query) EstimateBits(fams map[string]*BitFamily, eps float64, multiLevel bool, opts EstimateOptions) (Estimate, error) {
	return estimateQuery(q, fams, eps, multiLevel, opts)
}

// EstimateUnion estimates |∪_i A_i| over aligned counter families: the
// Fig. 5 level scan at accuracy eps (procedure SetUnionEstimator) with
// multiLevel false, the all-levels maximum-likelihood estimator with
// multiLevel true. A single family gives the distinct count of its
// stream, exact under deletions.
func EstimateUnion(fams []*Family, eps float64, multiLevel bool) (Estimate, error) {
	return estimateUnion(fams, eps, multiLevel)
}

// EstimateUnionBits is EstimateUnion over bit families.
func EstimateUnionBits(fams []*BitFamily, eps float64, multiLevel bool) (Estimate, error) {
	return estimateUnion(fams, eps, multiLevel)
}

// synopsis is what the kernel reads of a family representation.
type synopsis[F any] interface {
	*Family | *BitFamily
	Config() Config
	Copies() int
	Aligned(F) bool
	queryView() *familyView
}

func estimateQuery[F synopsis[F]](q *Query, fams map[string]F, eps float64, multiLevel bool, opts EstimateOptions) (Estimate, error) {
	var fbuf [expr.MaxCompiledStreams]F
	var vbuf [expr.MaxCompiledStreams]*familyView
	ordered, views := fbuf[:0], vbuf[:]
	if len(q.names) > len(fbuf) {
		ordered, views = make([]F, 0, len(q.names)), make([]*familyView, len(q.names))
	}
	for _, name := range q.names {
		f := fams[name]
		if f == nil {
			return Estimate{}, &ErrMissingStream{Name: name}
		}
		ordered = append(ordered, f)
	}
	views = views[:len(ordered)]
	cfg, r, err := bindViews(ordered, views)
	if err != nil {
		return Estimate{}, err
	}
	return estimate(q, cfg, r, views, eps, multiLevel)
}

func estimateUnion[F synopsis[F]](fams []F, eps float64, multiLevel bool) (Estimate, error) {
	if len(fams) == 0 {
		return Estimate{}, errors.New("core: union estimator needs at least one family")
	}
	views := make([]*familyView, len(fams))
	cfg, r, err := bindViews(fams, views)
	if err != nil {
		return Estimate{}, err
	}
	return estimate(nil, cfg, r, views, eps, multiLevel)
}

// bindViews checks that fams are mutually aligned and loads their
// query views into views[:len(fams)]; it returns the shared
// configuration and the usable copy count (the minimum).
func bindViews[F synopsis[F]](fams []F, views []*familyView) (Config, int, error) {
	first := fams[0]
	r := first.Copies()
	for k, f := range fams {
		if k > 0 && !first.Aligned(f) {
			return Config{}, 0, ErrNotAligned
		}
		r = min(r, f.Copies())
		views[k] = f.queryView()
	}
	return first.Config(), r, nil
}

// estimate is the one estimator body behind all four entry points: a
// union occupancy pass feeding the (Fig. 5 or ML) û estimate, then —
// for an expression query, q non-nil — the witness scan at the chosen
// level range.
func estimate(q *Query, cfg Config, r int, views []*familyView, eps float64, multiLevel bool) (Estimate, error) {
	if eps <= 0 || eps >= 1 {
		return Estimate{}, fmt.Errorf("core: relative accuracy ε = %v out of (0, 1)", eps)
	}
	if r < 1 {
		return Estimate{}, errors.New("core: family has no copies")
	}

	var counts [64]int
	countUnionOccupancy(views, r, &counts)

	var u Estimate
	var err error
	switch {
	case multiLevel:
		u, err = unionMLFromCounts(cfg, r, &counts)
	case q == nil:
		u, err = unionFromCounts(cfg, r, &counts, eps)
	default:
		u, err = unionFromCounts(cfg, r, &counts, eps/3) // §3.4
	}
	if q == nil || err != nil {
		return u, err
	}
	est := Estimate{Copies: r, Union: u.Value}
	if u.Value == 0 {
		return est, nil
	}
	est.Level = chooseWitnessLevel(cfg, u.Value, Beta, eps)
	lvlLo, lvlHi := est.Level, est.Level
	if multiLevel {
		lvlLo, lvlHi = 0, cfg.Buckets-1
	}

	est.Valid, est.Witnesses = q.scanWitnesses(views, cfg.Buckets, r, lvlLo, lvlHi)
	err = finishWitnessEstimate(&est, u, uint64(r)*uint64(lvlHi-lvlLo+1))
	return est, err
}

// countUnionOccupancy tallies, per level, the copies in [0, r) whose
// union first-level bucket is non-empty: one OR across streams per
// copy, then an iteration over the set bits.
func countUnionOccupancy(views []*familyView, r int, counts *[64]int) {
	for i := 0; i < r; i++ {
		var w uint64
		for _, v := range views {
			w |= v.occ[i]
		}
		for w != 0 {
			counts[bits.TrailingZeros64(w)]++
			w &= w - 1
		}
	}
}

// scanWitnesses runs the witness scan over copies [0, r) and levels
// [lvlLo, lvlHi]: for each candidate whose union bucket is occupied and
// passes the packed singleton test, it evaluates B(E) on the
// per-stream occupancy flags — as one packed word through the compiled
// program, or through a flag map for queries too wide to compile.
func (q *Query) scanWitnesses(views []*familyView, buckets, r, lvlLo, lvlHi int) (valid, witness int) {
	wps := views[0].wps
	prog := q.prog
	var flags map[string]bool
	if prog == nil {
		flags = make(map[string]bool, len(q.names))
	}
	for i := 0; i < r; i++ {
		var union uint64
		for _, v := range views {
			union |= v.occ[i]
		}
		if union>>uint(lvlLo) == 0 {
			continue // no occupied level in range: every check is noEstimate
		}
		for level := lvlLo; level <= lvlHi; level++ {
			if union>>uint(level)&1 == 0 {
				continue // empty union bucket: not a singleton
			}
			base := (i*buckets + level) * wps
			collision := false
			for w := 0; w < wps; w++ {
				var or uint64
				for _, v := range views {
					or |= v.sig[base+w]
				}
				if sigCollision(or) {
					collision = true
					break
				}
			}
			if collision {
				continue // ≥ 2 distinct elements: noEstimate
			}
			valid++
			if prog == nil {
				for k, v := range views {
					flags[q.names[k]] = v.occ[i]>>uint(level)&1 == 1
				}
				if q.node.EvalBool(flags) {
					witness++
				}
				continue
			}
			var occWord uint64
			for k, v := range views {
				occWord |= (v.occ[i] >> uint(level) & 1) << uint(k)
			}
			if prog.Eval(occWord) {
				witness++
			}
		}
	}
	return valid, witness
}
