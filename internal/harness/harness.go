// Package harness implements the experimental methodology of the
// paper's §5: repeated randomized trials over controlled synthetic
// workloads, the trimmed-average relative-error metric (drop the 30%
// worst errors per configuration), and accuracy-vs-space sweeps over
// the number of maintained 2-level hash sketches — the axes of paper
// Figures 7(a), 7(b), and 8.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
	"setsketch/internal/multiset"
)

// Sweep describes one figure-style experiment: for each target
// expression size and each sketch count, measure the trimmed-average
// relative error of the estimator across Runs randomized trials.
type Sweep struct {
	// Expr is the set expression under test, e.g. "A & B" or "(A - B) & C".
	Expr string
	// Union is u = |∪_i A_i| (§5.1 uses ≈ 2^18; scale down for speed —
	// the error behaviour depends on the target/union *ratio*).
	Union int
	// Targets are the desired |E| values, one series per value.
	Targets []int
	// SketchCounts are the r values swept along the x-axis.
	SketchCounts []int
	// Runs is the number of randomized trials per point (§5.1: 10–15).
	Runs int
	// TrimFraction is the fraction of the highest errors discarded per
	// point (§5.1: 0.30).
	TrimFraction float64
	// Eps is the ε parameter handed to the estimators.
	Eps float64
	// Config shapes the sketches; zero value means core.DefaultConfig.
	Config core.Config
	// Seed drives all randomness; every (run, target) pair derives its
	// own child seed, so sweeps are reproducible.
	Seed uint64
	// Churn optionally renders the workload as an update stream with
	// deletions instead of inserting elements directly (the net
	// multisets, and hence correct estimates, are identical).
	Churn datagen.ChurnSpec
	// SingleLevel switches from the multi-level witness estimator (the
	// default, which matches the paper's experimental error levels) to
	// the single-level estimator exactly as written in Fig. 6 / §4.
	// See EXPERIMENTS.md for the comparison.
	SingleLevel bool
	// Workers bounds trial parallelism; 0 means GOMAXPROCS.
	Workers int
}

// Point is one measured point of a sweep.
type Point struct {
	// Target is the requested |E| for this series.
	Target int
	// Sketches is the number of 2-level hash sketch copies r.
	Sketches int
	// Error is the trimmed-average relative error at this point.
	Error float64
	// Runs is the number of trials that produced a usable estimate.
	Runs int
	// Failed counts trials where the estimator returned no valid
	// observation (counted as error 1.0 in Error).
	Failed int
}

// Result is a completed sweep: points ordered by (target, sketches).
type Result struct {
	Sweep  Sweep
	Points []Point
}

// trial measures, for one generated workload, the relative error at
// every sketch count, reusing one maximal family per stream and
// estimating from prefixes (the estimate at r copies depends only on
// the first r copies, so this matches building r sketches directly).
func (s *Sweep) trial(node expr.Node, target int, runSeed uint64) ([]float64, []bool, error) {
	rng := hashing.NewRNG(runSeed)
	w, err := datagen.Generate(datagen.Spec{Expr: node, Union: s.Union, Target: target, Balance: true}, rng)
	if err != nil {
		return nil, nil, err
	}
	exact := exactSize(w, node)

	maxR := 0
	for _, r := range s.SketchCounts {
		if r > maxR {
			maxR = r
		}
	}
	cfg := s.Config
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	fams := make(map[string]*core.Family, len(w.Streams))
	famSeed := hashing.DeriveSeed(runSeed, 1)
	for name := range w.Streams {
		f, err := core.NewFamily(cfg, famSeed, maxR)
		if err != nil {
			return nil, nil, err
		}
		fams[name] = f
	}
	if s.Churn == (datagen.ChurnSpec{}) {
		for name, elems := range w.Streams {
			f := fams[name]
			for _, e := range elems {
				f.Insert(e)
			}
		}
	} else {
		ups, err := datagen.RenderUpdates(w, s.Churn, rng)
		if err != nil {
			return nil, nil, err
		}
		for _, u := range ups {
			fams[u.Stream].Update(u.Elem, u.Delta)
		}
	}

	q, err := core.CompileQuery(node)
	if err != nil {
		return nil, nil, err
	}
	errs := make([]float64, len(s.SketchCounts))
	failed := make([]bool, len(s.SketchCounts))
	for i, r := range s.SketchCounts {
		view := make(map[string]*core.Family, len(fams))
		for name, f := range fams {
			tr, err := f.Truncate(r)
			if err != nil {
				return nil, nil, err
			}
			view[name] = tr
		}
		est, err := q.Estimate(view, s.Eps, !s.SingleLevel, core.EstimateOptions{})
		switch {
		case err == core.ErrNoObservations:
			errs[i], failed[i] = 1, true
		case err != nil:
			return nil, nil, err
		case exact == 0:
			// Relative error is undefined at |E| = 0; score absolute
			// deviation scaled by 1 so a correct 0 estimate is perfect.
			errs[i] = math.Abs(est.Value)
		default:
			errs[i] = math.Abs(est.Value-float64(exact)) / float64(exact)
		}
	}
	return errs, failed, nil
}

// Run executes the sweep and collects trimmed-average errors.
func (s Sweep) Run() (*Result, error) {
	node, err := expr.Parse(s.Expr)
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	type cell struct {
		errs   []float64
		failed int
	}
	grid := make([][]cell, len(s.Targets))
	for i := range grid {
		grid[i] = make([]cell, len(s.SketchCounts))
	}

	// Mix the expression into the seed path: with a shared (seed,
	// target, run) alone, the generator hands different expressions
	// byte-identical element assignments and hash placements, and the
	// witness outcome degenerates to the same "element ∈ E" indicator —
	// making, e.g., the A&B and A−B sweeps coincide point for point.
	exprSeed := fnv64(s.Expr)

	type job struct{ ti, run int }
	jobs := make(chan job)
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				runSeed := hashing.DeriveSeed(s.Seed^exprSeed, uint64(j.ti), uint64(j.run))
				errs, failed, err := s.trial(node, s.Targets[j.ti], runSeed)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					for k := range errs {
						grid[j.ti][k].errs = append(grid[j.ti][k].errs, errs[k])
						if failed[k] {
							grid[j.ti][k].failed++
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for ti := range s.Targets {
		for run := 0; run < s.Runs; run++ {
			jobs <- job{ti, run}
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{Sweep: s}
	for ti, target := range s.Targets {
		for ri, r := range s.SketchCounts {
			c := grid[ti][ri]
			res.Points = append(res.Points, Point{
				Target:   target,
				Sketches: r,
				Error:    TrimmedMean(c.errs, s.TrimFraction),
				Runs:     len(c.errs),
				Failed:   c.failed,
			})
		}
	}
	return res, nil
}

func (s Sweep) validate() error {
	if s.Union <= 0 {
		return fmt.Errorf("harness: union size %d", s.Union)
	}
	if len(s.Targets) == 0 || len(s.SketchCounts) == 0 {
		return fmt.Errorf("harness: empty targets or sketch counts")
	}
	if s.Runs <= 0 {
		return fmt.Errorf("harness: runs = %d", s.Runs)
	}
	if s.TrimFraction < 0 || s.TrimFraction >= 1 {
		return fmt.Errorf("harness: trim fraction %v out of [0, 1)", s.TrimFraction)
	}
	if s.Eps <= 0 || s.Eps >= 1 {
		return fmt.Errorf("harness: eps %v out of (0, 1)", s.Eps)
	}
	return nil
}

// fnv64 is FNV-1a over a string, used to mix the expression text into
// seed derivation.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// exactSize computes the exact |E| of a workload.
func exactSize(w *datagen.Workload, node expr.Node) int {
	sets := make(map[string]multiset.Set, len(w.Streams))
	for name, elems := range w.Streams {
		set := make(multiset.Set, len(elems))
		for _, e := range elems {
			set[e] = struct{}{}
		}
		sets[name] = set
	}
	return len(node.EvalSet(sets))
}

// TrimmedMean returns the mean of errs after discarding the ⌈trim·n⌉
// highest values — the §5.1 "trimmed-average" metric that suppresses
// the outlier estimates a randomized scheme occasionally produces.
// An empty input returns NaN.
func TrimmedMean(errs []float64, trim float64) float64 {
	if len(errs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), errs...)
	sort.Float64s(sorted)
	keep := len(sorted) - int(math.Ceil(trim*float64(len(sorted))))
	if keep < 1 {
		keep = 1
	}
	var sum float64
	for _, e := range sorted[:keep] {
		sum += e
	}
	return sum / float64(keep)
}

// Series extracts the (sketches, error) series for one target from a
// result, in sketch-count order — one plotted line of a paper figure.
func (r *Result) Series(target int) []Point {
	var out []Point
	for _, p := range r.Points {
		if p.Target == target {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sketches < out[j].Sketches })
	return out
}
