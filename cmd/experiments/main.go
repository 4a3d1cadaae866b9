// Command experiments regenerates every figure of the paper's
// evaluation (§5.2) plus the ablations documented in DESIGN.md, printing
// the same series the paper plots: trimmed-average relative error as a
// function of the number of 2-level hash sketches, one series per
// target expression cardinality.
//
//	experiments -fig 7a          # Figure 7(a): |A ∩ B|
//	experiments -fig 7b          # Figure 7(b): |A − B|
//	experiments -fig 8           # Figure 8:    |(A − B) ∩ C|
//	experiments -fig churn          # ablation: deletion churn invariance
//	experiments -fig s-ablation     # ablation: second-level count s
//	experiments -fig t-ablation     # ablation: first-level independence t
//	experiments -fig level-ablation # ablation: single- vs multi-level witnesses
//	experiments -fig baselines      # 2LHS vs MIPs under deletion churn
//	experiments -fig ratio          # error vs |E|/u from u/2 to u/1024 (§5.1 range)
//	experiments -fig memory         # §5.2 space accounting: counters vs bits
//	experiments -fig distinct       # distinct-count shootout vs all baselines
//	experiments -fig all
//
// The paper fixes u ≈ 2^18; that scale takes hours on one core, so the
// default here is u = 2^14 with -scale to move along the axis
// (-scale 16 reproduces the paper's u exactly). Error behaviour
// depends on the target/union *ratio*, which is preserved at every
// scale; EXPERIMENTS.md records measured-vs-paper numbers.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"setsketch/internal/baselines"
	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/harness"
	"setsketch/internal/hashing"
)

func main() {
	var (
		fig    = flag.String("fig", "all", "figure to regenerate: 7a, 7b, 8, churn, s-ablation, t-ablation, all")
		scale  = flag.Int("scale", 1, "multiply the default union size u = 2^14 by this factor (16 = paper scale)")
		runs   = flag.Int("runs", 12, "randomized trials per point (paper: 10–15)")
		seed   = flag.Uint64("seed", 2003, "master random seed")
		eps    = flag.Float64("eps", 0.1, "estimator accuracy parameter ε")
		csvOut = flag.String("csv", "", "also write results as CSV to this file")
	)
	flag.Parse()

	union := (1 << 14) * *scale
	runner := &runner{union: union, runs: *runs, seed: *seed, eps: *eps}
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runner.csv = csv.NewWriter(f)
		runner.csv.Write([]string{"figure", "target", "sketches", "trimmed_rel_error", "runs", "failed"})
		defer runner.csv.Flush()
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = []string{"7a", "7b", "8", "churn", "s-ablation", "t-ablation", "level-ablation", "baselines", "ratio", "memory", "distinct", "skew"}
	}
	for _, f := range figs {
		if err := runner.run(f); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

type runner struct {
	union int
	runs  int
	seed  uint64
	eps   float64
	csv   *csv.Writer
}

// sketchCounts is the x-axis of every figure (the paper sweeps up to 512).
var sketchCounts = []int{64, 128, 256, 512}

// targetsFor returns the three series of a figure: e = u/4, u/16, u/32
// (the paper varies u/2 … u/2^10 and plots three sizes; u/32 matches
// the |A − B| = 8192 = 2^18/2^5 series called out in §5.2).
func (r *runner) targetsFor() []int {
	return []int{r.union / 4, r.union / 16, r.union / 32}
}

func (r *runner) run(fig string) error {
	start := time.Now()
	switch fig {
	case "7a":
		return r.sweep(fig, "Figure 7(a): set-intersection cardinality |A & B|",
			harness.Sweep{Expr: "A & B", Targets: r.targetsFor()}, start)
	case "7b":
		return r.sweep(fig, "Figure 7(b): set-difference cardinality |A - B|",
			harness.Sweep{Expr: "A - B", Targets: r.targetsFor()}, start)
	case "8":
		return r.sweep(fig, "Figure 8: set-expression cardinality |(A - B) & C|",
			harness.Sweep{Expr: "(A - B) & C", Targets: r.targetsFor()}, start)
	case "churn":
		return r.churn(start)
	case "s-ablation":
		return r.sAblation(start)
	case "t-ablation":
		return r.tAblation(start)
	case "level-ablation":
		return r.levelAblation(start)
	case "baselines":
		return r.baselines(start)
	case "ratio":
		return r.ratio(start)
	case "memory":
		return r.memory()
	case "distinct":
		return r.distinct(start)
	case "skew":
		return r.skew(start)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

// sweep fills in the shared parameters, runs, and prints one figure.
func (r *runner) sweep(fig, title string, s harness.Sweep, start time.Time) error {
	s.Union = r.union
	s.SketchCounts = sketchCounts
	s.Runs = r.runs
	s.TrimFraction = 0.30
	s.Eps = r.eps
	s.Seed = r.seed
	res, err := s.Run()
	if err != nil {
		return err
	}
	r.print(fig, title, res, start)
	return nil
}

func (r *runner) print(fig, title string, res *harness.Result, start time.Time) {
	fmt.Printf("\n%s\n", title)
	fmt.Printf("u = %d, %d runs/point, 30%% trimmed mean, eps = %g  (%.1fs)\n",
		res.Sweep.Union, res.Sweep.Runs, res.Sweep.Eps, time.Since(start).Seconds())
	fmt.Printf("%-12s", "sketches")
	for _, target := range res.Sweep.Targets {
		fmt.Printf("  |E|=%-8d", target)
	}
	fmt.Println()
	for _, rcount := range res.Sweep.SketchCounts {
		fmt.Printf("%-12d", rcount)
		for _, target := range res.Sweep.Targets {
			for _, p := range res.Series(target) {
				if p.Sketches == rcount {
					fmt.Printf("  %6.1f%%     ", p.Error*100)
				}
			}
		}
		fmt.Println()
	}
	if r.csv != nil {
		for _, p := range res.Points {
			r.csv.Write([]string{
				fig,
				strconv.Itoa(p.Target),
				strconv.Itoa(p.Sketches),
				strconv.FormatFloat(p.Error, 'f', 6, 64),
				strconv.Itoa(p.Runs),
				strconv.Itoa(p.Failed),
			})
		}
	}
}

// churn shows deletion-invariance end to end: the same seeds with 0%,
// 100%, and 200% deletion churn produce bit-identical error rows.
func (r *runner) churn(start time.Time) error {
	base := harness.Sweep{
		Expr:         "A - B",
		Union:        r.union,
		Targets:      []int{r.union / 16},
		SketchCounts: sketchCounts,
		Runs:         r.runs,
		TrimFraction: 0.30,
		Eps:          r.eps,
		Seed:         r.seed,
	}
	fmt.Printf("\nAblation: deletion churn invariance, |A - B| = %d, u = %d\n", r.union/16, r.union)
	fmt.Printf("%-22s", "churn level")
	for _, rc := range sketchCounts {
		fmt.Printf("  r=%-8d", rc)
	}
	fmt.Println()
	for _, churn := range []struct {
		label string
		spec  datagen.ChurnSpec
	}{
		{"none", datagen.ChurnSpec{}},
		{"100% phantoms", datagen.ChurnSpec{Phantoms: 1.0}},
		{"200% + overcount", datagen.ChurnSpec{Phantoms: 2.0, Overcount: 0.5}},
	} {
		s := base
		s.Churn = churn.spec
		res, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Printf("%-22s", churn.label)
		for _, p := range res.Series(r.union / 16) {
			fmt.Printf("  %6.1f%%   ", p.Error*100)
		}
		fmt.Println()
		if r.csv != nil {
			for _, p := range res.Points {
				r.csv.Write([]string{"churn:" + churn.label, strconv.Itoa(p.Target),
					strconv.Itoa(p.Sketches), strconv.FormatFloat(p.Error, 'f', 6, 64),
					strconv.Itoa(p.Runs), strconv.Itoa(p.Failed)})
			}
		}
	}
	fmt.Printf("(identical rows are expected: sketches are impervious to deletions; %.1fs)\n",
		time.Since(start).Seconds())
	return nil
}

// sAblation sweeps the second-level count s (Lemma 3.1: singleton tests
// err with probability 2^−s, so tiny s inflates error).
func (r *runner) sAblation(start time.Time) error {
	fmt.Printf("\nAblation: second-level hash count s, |A & B| = %d, u = %d, r = 256\n",
		r.union/16, r.union)
	fmt.Printf("%-8s  %s\n", "s", "trimmed rel error")
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		cfg := core.DefaultConfig()
		cfg.SecondLevel = s
		sweep := harness.Sweep{
			Expr: "A & B", Union: r.union, Targets: []int{r.union / 16},
			SketchCounts: []int{256}, Runs: r.runs, TrimFraction: 0.30,
			Eps: r.eps, Seed: r.seed, Config: cfg,
		}
		res, err := sweep.Run()
		if err != nil {
			return err
		}
		p := res.Points[0]
		fmt.Printf("%-8d  %6.1f%%\n", s, p.Error*100)
		if r.csv != nil {
			r.csv.Write([]string{"s-ablation:" + strconv.Itoa(s), strconv.Itoa(p.Target),
				strconv.Itoa(p.Sketches), strconv.FormatFloat(p.Error, 'f', 6, 64),
				strconv.Itoa(p.Runs), strconv.Itoa(p.Failed)})
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

// levelAblation compares the paper's literal single-level witness
// scheme (Fig. 6 pseudo-code) against the multi-level harvest used for
// figure reproduction: same storage, same expectation, ~15× the valid
// observations.
func (r *runner) levelAblation(start time.Time) error {
	fmt.Printf("\nAblation: single-level (Fig. 6 literal) vs multi-level witness harvest\n")
	fmt.Printf("|A & B| = %d, u = %d\n", r.union/16, r.union)
	fmt.Printf("%-14s", "estimator")
	for _, rc := range sketchCounts {
		fmt.Printf("  r=%-8d", rc)
	}
	fmt.Println()
	for _, mode := range []struct {
		label  string
		single bool
	}{
		{"single-level", true},
		{"multi-level", false},
	} {
		sweep := harness.Sweep{
			Expr: "A & B", Union: r.union, Targets: []int{r.union / 16},
			SketchCounts: sketchCounts, Runs: r.runs, TrimFraction: 0.30,
			Eps: r.eps, Seed: r.seed, SingleLevel: mode.single,
		}
		res, err := sweep.Run()
		if err != nil {
			return err
		}
		fmt.Printf("%-14s", mode.label)
		for _, p := range res.Series(r.union / 16) {
			fmt.Printf("  %6.1f%%   ", p.Error*100)
		}
		fmt.Println()
		if r.csv != nil {
			for _, p := range res.Points {
				r.csv.Write([]string{"level-ablation:" + mode.label, strconv.Itoa(p.Target),
					strconv.Itoa(p.Sketches), strconv.FormatFloat(p.Error, 'f', 6, 64),
					strconv.Itoa(p.Runs), strconv.Itoa(p.Failed)})
			}
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

// baselines contrasts 2-level hash sketches with the min-wise
// permutations (MIPs) prior art under deletion churn — the paper's §1
// motivation. The churn never changes the net multisets, so the true
// |A ∩ B| is constant; MIPs coordinates deplete as deleted elements
// were their minima, while the counter-based sketches are untouched.
// MIPs is even given the EXACT union cardinality to scale its Jaccard
// estimate (2LHS estimates its own û).
func (r *runner) baselines(start time.Time) error {
	const mipsK = 512
	union := r.union
	target := union / 4
	fmt.Printf("\nBaseline comparison under deletion churn: |A & B| = %d, u = %d\n", target, union)
	fmt.Printf("(MIPs: k = %d coordinates, exact û given; 2LHS: r = 256, own û)\n", mipsK)
	fmt.Printf("%-10s  %14s  %14s  %16s\n", "churn", "2LHS error", "MIPs error", "MIPs usable k")

	node := expr.MustParse("A & B")
	q, err := core.CompileQuery(node)
	if err != nil {
		return err
	}
	for _, churn := range []float64{0, 0.25, 0.5, 1.0, 2.0} {
		// Same seed for every row: the net multisets are identical, so
		// the 2LHS column must be constant (deletion invariance) while
		// MIPs depletes.
		rng := hashing.NewRNG(r.seed)
		w, err := datagen.Generate(datagen.Spec{Expr: node, Union: union, Target: target, Balance: true}, rng)
		if err != nil {
			return err
		}
		exact := exactIntersection(w)
		ups, err := datagen.RenderUpdates(w, datagen.ChurnSpec{Phantoms: churn}, rng)
		if err != nil {
			return err
		}

		// 2-level hash sketches: apply every update as-is.
		cfg := core.DefaultConfig()
		fams := map[string]*core.Family{}
		for _, name := range []string{"A", "B"} {
			f, err := core.NewFamily(cfg, r.seed, 256)
			if err != nil {
				return err
			}
			fams[name] = f
		}
		// MIPs: one synopsis per stream; deltas expand to unit ops.
		mips := map[string]*baselines.MIPs{}
		for _, name := range []string{"A", "B"} {
			m, err := baselines.NewMIPs(r.seed, mipsK)
			if err != nil {
				return err
			}
			mips[name] = m
		}
		for _, u := range ups {
			fams[u.Stream].Update(u.Elem, u.Delta)
			m := mips[u.Stream]
			if u.Delta > 0 {
				for i := int64(0); i < u.Delta; i++ {
					m.Insert(u.Elem)
				}
			} else {
				for i := int64(0); i < -u.Delta; i++ {
					m.Delete(u.Elem)
				}
			}
		}

		sketchEst, err := q.Estimate(fams, r.eps, true, core.EstimateOptions{})
		if err != nil {
			return err
		}
		sketchErr := relError(sketchEst.Value, exact)

		mipsCol := "    DEPLETED"
		mipsEst, err := baselines.IntersectionEstimate(mips["A"], mips["B"], float64(w.UnionSize))
		if err == nil {
			mipsCol = fmt.Sprintf("%13.1f%%", relError(mipsEst, exact)*100)
		}
		usable := mips["A"].Usable()
		if u2 := mips["B"].Usable(); u2 < usable {
			usable = u2
		}
		fmt.Printf("%-10.2f  %13.1f%%  %14s  %9d/%d\n",
			churn, sketchErr*100, mipsCol, usable, mipsK)
		if r.csv != nil {
			r.csv.Write([]string{fmt.Sprintf("baselines:churn=%.2f", churn),
				strconv.Itoa(exact), "256",
				strconv.FormatFloat(sketchErr, 'f', 6, 64), "1", "0"})
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

// ratio sweeps the target size e from u/2 down to u/2^10 at fixed
// r = 512, the full range §5.1 describes. Theorems 3.4/3.5 predict the
// required space grows with |A ∪ B| / |E|, so at fixed space the error
// should grow roughly like √(u/e) as e shrinks.
func (r *runner) ratio(start time.Time) error {
	var targets []int
	for div := 2; div <= 1024; div *= 2 {
		if t := r.union / div; t >= 1 {
			targets = append(targets, t)
		}
	}
	sweep := harness.Sweep{
		Expr: "A & B", Union: r.union, Targets: targets,
		SketchCounts: []int{512}, Runs: r.runs, TrimFraction: 0.30,
		Eps: r.eps, Seed: r.seed,
	}
	res, err := sweep.Run()
	if err != nil {
		return err
	}
	fmt.Printf("\nTarget-ratio sweep: |A & B| from u/2 to u/1024 at r = 512, u = %d\n", r.union)
	fmt.Printf("%-12s  %-10s  %s\n", "|E|", "u/|E|", "trimmed rel error")
	for _, target := range targets {
		for _, p := range res.Series(target) {
			fmt.Printf("%-12d  %-10d  %6.1f%%  (failed runs: %d)\n",
				target, r.union/target, p.Error*100, p.Failed)
			if r.csv != nil {
				r.csv.Write([]string{"ratio", strconv.Itoa(p.Target),
					strconv.Itoa(p.Sketches), strconv.FormatFloat(p.Error, 'f', 6, 64),
					strconv.Itoa(p.Runs), strconv.Itoa(p.Failed)})
			}
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

// distinct runs the classic distinct-count problem (the special case
// all the §1 prior work targets) across every estimator in the
// repository on identical insert-only streams: the paper's 2-level
// hash sketch union estimator (Fig. 5 and the all-levels MLE), and the
// prior-art baselines Flajolet–Martin (Fig. 2), BJKST k-minimum
// values, and Gibbons distinct sampling. Trimmed-mean error over runs.
func (r *runner) distinct(start time.Time) error {
	n := r.union
	fmt.Printf("\nDistinct-count shootout: n = %d distinct elements, %d runs, 30%% trim\n", n, r.runs)
	fmt.Printf("%-34s %10s  %s\n", "estimator", "error", "synopsis bytes")

	type contender struct {
		name  string
		bytes int
		errs  []float64
	}
	contenders := []*contender{
		{name: "2LHS Fig. 5 union (r=256)"},
		{name: "2LHS all-levels MLE (r=256)"},
		{name: "FM bitmaps (r=256)"},
		{name: "BJKST k-min values (k=256)"},
		{name: "distinct sampling (cap=256)"},
	}
	for run := 0; run < r.runs; run++ {
		rng := hashing.NewRNG(hashing.DeriveSeed(r.seed, uint64(run)))
		seed := rng.Uint64()
		fam, err := core.NewBitFamily(core.DefaultConfig(), seed, 256)
		if err != nil {
			return err
		}
		fm, err := baselines.NewFM(seed, 256, 32)
		if err != nil {
			return err
		}
		bj, err := baselines.NewBJKST(seed, 256)
		if err != nil {
			return err
		}
		ds, err := baselines.NewDistinctSample(seed, 256)
		if err != nil {
			return err
		}
		seen := make(map[uint64]bool, n)
		for len(seen) < n {
			e := rng.Uint64n(1 << 32)
			if seen[e] {
				continue
			}
			seen[e] = true
			fam.Insert(e)
			fm.Insert(e)
			bj.Insert(e)
			ds.Insert(e)
		}
		fig5, err := core.EstimateUnionBits([]*core.BitFamily{fam}, r.eps, false)
		if err != nil {
			return err
		}
		mle, err := core.EstimateUnionBits([]*core.BitFamily{fam}, r.eps, true)
		if err != nil {
			return err
		}
		values := []float64{fig5.Value, mle.Value, fm.Estimate(), bj.Estimate(), ds.Estimate()}
		sizes := []int{fam.MemoryBytes(), fam.MemoryBytes(), fm.MemoryBytes(), 256 * 16, 256 * 16}
		for i, c := range contenders {
			c.errs = append(c.errs, relError(values[i], n))
			c.bytes = sizes[i]
		}
	}
	for _, c := range contenders {
		err := harness.TrimmedMean(c.errs, 0.30)
		fmt.Printf("%-34s %9.1f%%  %d\n", c.name, err*100, c.bytes)
		if r.csv != nil {
			r.csv.Write([]string{"distinct:" + c.name, strconv.Itoa(n), "256",
				strconv.FormatFloat(err, 'f', 6, 64), strconv.Itoa(r.runs), "0"})
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

// skew stresses the estimators with adversarial element domains and
// heavy-hitter multiplicities. The paper's study draws elements
// uniformly (§5.1); t-wise independent hashing makes accuracy
// domain-oblivious, which this table verifies: errors for sequential,
// clustered, and strided domains (with Zipf-like multiplicities) match
// the uniform row within noise.
func (r *runner) skew(start time.Time) error {
	const rCopies = 256
	u, inter := r.union, r.union/4
	fmt.Printf("\nAblation: element-domain skew, |A & B| = %d, u = %d, r = %d, heavy-hitter multiplicities\n",
		inter, u, rCopies)
	fmt.Printf("%-14s  %s\n", "domain", "trimmed rel error")
	node := expr.MustParse("A & B")
	q, err := core.CompileQuery(node)
	if err != nil {
		return err
	}
	for _, d := range datagen.Domains() {
		var errs []float64
		for run := 0; run < r.runs; run++ {
			rng := hashing.NewRNG(hashing.DeriveSeed(r.seed, uint64(d), uint64(run)))
			a, b, mult, err := datagen.SkewedOverlap(d, u, inter, rng)
			if err != nil {
				return err
			}
			famSeed := rng.Uint64() // one seed: families must be aligned
			fams := map[string]*core.Family{}
			for _, name := range []string{"A", "B"} {
				f, err := core.NewFamily(core.DefaultConfig(), famSeed, rCopies)
				if err != nil {
					return err
				}
				fams[name] = f
			}
			// Insert with multiplicities; distinct counts are unchanged.
			for i, e := range a {
				fams["A"].Update(e, mult[i%len(mult)])
			}
			for i, e := range b {
				fams["B"].Update(e, mult[i%len(mult)])
			}
			est, err := q.Estimate(fams, r.eps, true, core.EstimateOptions{})
			if err != nil {
				return err
			}
			errs = append(errs, relError(est.Value, inter))
		}
		e := harness.TrimmedMean(errs, 0.30)
		fmt.Printf("%-14s  %6.1f%%\n", d.String(), e*100)
		if r.csv != nil {
			r.csv.Write([]string{"skew:" + d.String(), strconv.Itoa(inter), strconv.Itoa(rCopies),
				strconv.FormatFloat(e, 'f', 6, 64), strconv.Itoa(r.runs), "0"})
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}

// memory prints the §5.2 space accounting: bytes per sketch for the
// counter representation (general update streams), the bit
// representation (the paper's insert-only experimental variant), and
// the paper's own "multiply the number of sketches with 32" rough
// estimate, across second-level sizes.
func (r *runner) memory() error {
	fmt.Printf("\nSpace accounting per 2-level hash sketch (61 first-level buckets)\n")
	fmt.Printf("%-6s  %16s  %14s  %18s\n", "s", "counter bytes", "bit bytes", "paper's ≈32 B/sketch")
	for _, s := range []int{8, 16, 32} {
		cfg := core.DefaultConfig()
		cfg.SecondLevel = s
		cs, err := core.NewSketch(cfg, 1)
		if err != nil {
			return err
		}
		bs, err := core.NewBitSketch(cfg, 1)
		if err != nil {
			return err
		}
		note := ""
		if s == 32 {
			note = "32 (counts only the chosen witness level: s·2 bits = 8 B + bookkeeping)"
		}
		fmt.Printf("%-6d  %16d  %14d  %18s\n", s, cs.MemoryBytes(), bs.MemoryBytes(), note)
	}
	fmt.Println("estimates from the two representations of an insert-only stream are identical (TestBitEstimatesIdenticalToCounters)")
	return nil
}

func exactIntersection(w *datagen.Workload) int {
	inA := make(map[uint64]bool, len(w.Streams["A"]))
	for _, e := range w.Streams["A"] {
		inA[e] = true
	}
	n := 0
	for _, e := range w.Streams["B"] {
		if inA[e] {
			n++
		}
	}
	return n
}

func relError(got float64, want int) float64 {
	if want == 0 {
		return got
	}
	d := got - float64(want)
	if d < 0 {
		d = -d
	}
	return d / float64(want)
}

// tAblation sweeps the first-level independence degree t (§3.6:
// Θ(log 1/ε)-wise suffices; pairwise already behaves well in practice,
// which this table documents).
func (r *runner) tAblation(start time.Time) error {
	fmt.Printf("\nAblation: first-level independence t, |A & B| = %d, u = %d, r = 256\n",
		r.union/16, r.union)
	fmt.Printf("%-8s  %s\n", "t", "trimmed rel error")
	for _, t := range []int{2, 4, 8, 16} {
		cfg := core.DefaultConfig()
		cfg.FirstWise = t
		sweep := harness.Sweep{
			Expr: "A & B", Union: r.union, Targets: []int{r.union / 16},
			SketchCounts: []int{256}, Runs: r.runs, TrimFraction: 0.30,
			Eps: r.eps, Seed: r.seed, Config: cfg,
		}
		res, err := sweep.Run()
		if err != nil {
			return err
		}
		p := res.Points[0]
		fmt.Printf("%-8d  %6.1f%%\n", t, p.Error*100)
		if r.csv != nil {
			r.csv.Write([]string{"t-ablation:" + strconv.Itoa(t), strconv.Itoa(p.Target),
				strconv.Itoa(p.Sketches), strconv.FormatFloat(p.Error, 'f', 6, 64),
				strconv.Itoa(p.Runs), strconv.Itoa(p.Failed)})
		}
	}
	fmt.Printf("(%.1fs)\n", time.Since(start).Seconds())
	return nil
}
