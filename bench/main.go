// Command bench is the repository's benchmark (BENCHMARK.json): it
// builds sketchd, drives a real `sketchd serve` child over loopback
// through the internal/distributed client API on four fixed-work
// workloads generated from -seed, verifies the answers, and prints
// every metric by name and unit. README.md documents the workloads,
// the metrics, the noise rules and the layer → metric predictions.
//
//	bash bench/run.sh -workload forward_hot -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -out a.json            # all four workloads, rounds interleaved
//	bash bench/run.sh -compare a.json b.json # do two sets of runs agree? (a set: f1.json,f2.json,…)
//	bash bench/run.sh -smoke                 # one tiny round of each workload
//	go run ./bench -smoke                    # the same, built into the user's Go cache
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	// One runnable benchmark thread beside the server's one: two
	// threads on a 2-vCPU host, no oversubscription.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricValue is one end-to-end metric with the samples (slices,
// restarts or rounds) it was reduced from and their spread,
// (max − min) / median.
type metricValue struct {
	resultValue
	Samples []float64 `json:"samples"`
	Spread  float64   `json:"sample_spread"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// wholeRun is the run's timings over every op of every round, printed
// beside the gated best-slice values and not gated: a stall that hits
// only some slices shows here.
type wholeRun struct {
	UpdatesPerS float64 `json:"updates_per_s"`
	P50Ms       float64 `json:"op_p50_ms"`
	P90Ms       float64 `json:"op_p90_ms"`
	P99Ms       float64 `json:"op_p99_ms"`
}

// workloadReport is one workload's part of the -out report. Metrics
// always holds the end-to-end metrics; a traced run adds the per-layer
// table in Layers and prints that one in its result line.
type workloadReport struct {
	result
	Layers    map[string]resultValue `json:"per_layer,omitempty"`
	Rich      map[string]metricValue `json:"samples"`
	OpSamples int                    `json:"op_samples_per_slice"`
	Whole     wholeRun               `json:"whole_run"`
	Problems  []string               `json:"problems,omitempty"`
	Warnings  []string               `json:"warnings,omitempty"`
}

// environment is printed with every run so numbers from different
// hosts are not compared by accident.
type environment struct {
	NProc            int     `json:"nproc"`
	BenchGOMAXPROCS  int     `json:"bench_gomaxprocs"`
	ServerGOMAXPROCS int     `json:"server_gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	BuildS           float64 `json:"build_s"`
}

type report struct {
	Env       environment                `json:"env"`
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type options struct {
	seed    uint64
	seconds int
	trace   bool
	smoke   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all four, rounds interleaved)")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same batches")
	seconds := fs.Int("seconds", 20, "measured seconds per workload at the seed commit's speed; fixes the work of the three rounds")
	trace := fs.Int("trace", 0, "1: report the per-layer ledger from in-process probes and one traced round, and write bench/out/trace.json")
	out := fs.String("out", "", "also write the full report (round values, spreads, environment) to this file, for -compare")
	smoke := fs.Bool("smoke", false, "one tiny round of each workload with every correctness check")
	compare := fs.Bool("compare", false, "compare two sets of -out reports (each one file, or several comma-separated, reduced to medians) against the bounds; exit 1 beyond a bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two sets of report files")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ws = []*workload{w}
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		return 2
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer h.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()

	rep := &report{
		Env: environment{
			NProc: runtime.NumCPU(), BenchGOMAXPROCS: runtime.GOMAXPROCS(0), ServerGOMAXPROCS: 1,
			GoVersion: runtime.Version(), Commit: commit(h.root), BuildS: h.buildS,
		},
		Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Fprintf(stdout, "env %s\n", env)

	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke}
	if rep.Workloads, err = runWorkloads(h, ws, opt, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		data, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	for _, w := range ws {
		wr := rep.Workloads[w.name]
		for _, p := range wr.Problems {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w.name, p)
		}
		for _, p := range wr.Warnings {
			fmt.Fprintf(stderr, "bench: %s: warning: %s\n", w.name, p)
		}
		if !wr.Correct {
			code = 1
		}
		res := wr.result
		if opt.trace {
			res.Metrics = wr.Layers
		}
		line, _ := json.Marshal(res)
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code
}

// commit names the checkout's HEAD, or "unknown" outside a git
// repository (the driver's checkouts are not one).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runWorkloads runs the rounds interleaved (w1 w2 w3 w4, rotated each
// round) so a slow phase of the host lands on different workloads in
// different rounds, and reduces the rounds to the run's metrics. Every
// round generates its input afresh — the same batches each time — so
// setup_s has one sample per round.
func runWorkloads(h *harness, ws []*workload, opt options, stdout io.Writer) (map[string]*workloadReport, error) {
	type state struct {
		in     *input
		sz     sizes
		rounds []*round
		layers map[string]float64
	}
	nRounds := rounds
	if opt.smoke || opt.trace {
		nRounds = 1 // a traced run needs one untraced round to compare with
	}
	// fresh generates w's input and runs one round on it.
	fresh := func(w *workload, sz sizes) (*input, *round, error) {
		start := time.Now()
		in, err := genInput(w.spec, opt.seed, sz.warm, sz.batches())
		if err != nil {
			return nil, nil, fmt.Errorf("input: %w", err)
		}
		genS := time.Since(start).Seconds()
		rd, err := runRound(h, w, in, sz, nil)
		if err != nil {
			return nil, nil, err
		}
		rd.setupS += genS
		return in, rd, nil
	}
	states := map[string]*state{}
	for _, w := range ws {
		st := &state{sz: w.size(float64(opt.seconds) / rounds)}
		if opt.smoke {
			st.sz = st.sz.smoke()
		}
		states[w.name] = st
	}
	for r := 0; r < nRounds; r++ {
		for k := range ws {
			w := ws[(k+r)%len(ws)]
			st := states[w.name]
			in, rd, err := fresh(w, st.sz)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.name, r+1, err)
			}
			st.in, st.rounds = in, append(st.rounds, rd)
		}
	}
	// The crash probe, once per run, for the workloads without a WAL.
	var probe *round
	for _, w := range ws {
		if w.durable || probe != nil {
			continue
		}
		sz := crashProbe
		if opt.smoke {
			sz = sz.smoke()
		}
		in, rd, err := fresh(durableHot, sz)
		if err != nil {
			return nil, fmt.Errorf("crash probe: %w", err)
		}
		if err := checkAnswers(in, rd.answers); err != nil {
			rd.problem("%v", err)
		}
		probe = rd
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
		for _, w := range ws {
			st := states[w.name]
			tr.round = nRounds + 1
			var err error
			if st.layers, err = traceWorkload(h, w, st.in, st.sz, st.rounds[0], opt, tr); err != nil {
				return nil, fmt.Errorf("%s trace: %w", w.name, err)
			}
		}
		path := filepath.Join(h.root, "bench", "out", "trace.json")
		n, err := tr.write(path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace: %d spans written to %s\n", n, path)
	}

	reports := map[string]*workloadReport{}
	for _, w := range ws {
		st := states[w.name]
		crash := st.rounds
		if !w.durable {
			crash = []*round{probe}
		}
		wr := summarize(st.in, st.rounds, crash)
		if opt.trace {
			wr.Layers = map[string]resultValue{}
			for _, m := range perLayer {
				wr.Layers[m.Name] = resultValue{Value: st.layers[m.Name], Unit: m.Unit}
			}
		}
		printWorkload(stdout, w, wr)
		reports[w.name] = wr
	}
	return reports, nil
}

// reduction says how a run reduces one end-to-end metric's samples.
type reduction struct {
	best    bool                     // the run's best sample; otherwise the median
	crash   bool                     // sampled on the rounds that hold the crash drill
	samples func(r *round) []float64 // one round's samples
}

func one(f func(r *round) float64) func(r *round) []float64 {
	return func(r *round) []float64 { return []float64{f(r)} }
}

func perSlice(f func(*slice) float64) func(r *round) []float64 {
	return func(r *round) []float64 {
		out := make([]float64, len(r.slices))
		for i := range r.slices {
			out[i] = f(&r.slices[i])
		}
		return out
	}
}

// reductions: the timings of the measured window and of recovery are
// sampled per slice and per restart and reduced to the run's best
// sample. Interference from the host only ever makes a sample slower,
// by ±30% for seconds to minutes at a time, so the best one is where
// the program's own speed shows; the median over slices or rounds moves
// with the host (README.md, noise rules, has both measured side by
// side). A slice is long enough to hold every periodic cost of the
// server (workload.go), and the whole-run values are printed beside
// the gated ones. Set-up time, memory and WAL bytes have one value per
// round and report the median of the rounds.
var reductions = map[string]reduction{
	// Open loop: a slice that catches up after a stall acks more than
	// its share, so query_mix's achieved rate is the round's.
	"updates_per_s": {best: true, samples: func(r *round) []float64 {
		if r.ackMs != nil {
			return []float64{r.updatesPerS()}
		}
		return perSlice(func(s *slice) float64 { return ratio(float64(s.updates), s.wallS) })(r)
	}},
	"op_p50_ms":            {best: true, samples: perSlice(func(s *slice) float64 { return percentile(s.opMs, 0.50) })},
	"op_p90_ms":            {best: true, samples: perSlice(func(s *slice) float64 { return percentile(s.opMs, 0.90) })},
	"cpu_s_per_mupdate":    {best: true, samples: perSlice(func(s *slice) float64 { return ratio(s.cpuS, float64(s.updates)/1e6) })},
	"server_rss_mb":        {samples: one(func(r *round) float64 { return r.rssMB })},
	"setup_s":              {samples: one(func(r *round) float64 { return r.setupS })},
	"wal_bytes_per_update": {crash: true, samples: one(func(r *round) float64 { return r.walBytes })},
	"recovery_s":           {crash: true, best: true, samples: func(r *round) []float64 { return r.recoveryS }},
}

// reduce is the value a run reports for samples of m.
func (rd reduction) reduce(m metricDef, samples []float64) float64 {
	switch {
	case !rd.best:
		return median(samples)
	case m.Better == "higher":
		return slices.Max(samples)
	default:
		return slices.Min(samples)
	}
}

// summarize reduces a workload's rounds to the run's metrics and runs
// the cross-round correctness checks: the five answers are
// bit-identical in every round (same coins, same input, linear
// sketch) and each is close to the exact size. crash is the rounds
// that hold the crash drill: rs itself for a durable workload, the
// run's crash probe otherwise.
func summarize(in *input, rs, crash []*round) *workloadReport {
	wr := &workloadReport{Rich: map[string]metricValue{}}
	wr.Metrics = map[string]resultValue{}
	all := rs
	if crash[0] != rs[0] {
		all = append(append([]*round{}, rs...), crash...)
	}
	for i, r := range all {
		wr.Attempted += r.attempted
		wr.Failed += r.failed
		for _, p := range r.problems {
			wr.Problems = append(wr.Problems, fmt.Sprintf("round %d: %s", i+1, p))
		}
		for _, p := range r.warnings {
			wr.Warnings = append(wr.Warnings, fmt.Sprintf("round %d: %s", i+1, p))
		}
	}
	var opMs []float64
	var updates, wallS float64
	for i, r := range rs {
		if j := firstDiff(rs[0].answers, r.answers); j >= 0 {
			wr.Problems = append(wr.Problems, fmt.Sprintf("round %d: |%s| = %v, round 1 said %v",
				i+1, expressions[j], r.answers[j], rs[0].answers[j]))
		}
		for k := range r.slices {
			opMs = append(opMs, r.slices[k].opMs...)
			updates += float64(r.slices[k].updates)
			wallS += r.slices[k].wallS
		}
	}
	if err := checkAnswers(in, rs[0].answers); err != nil {
		wr.Problems = append(wr.Problems, err.Error())
	}
	for _, m := range endToEnd {
		rd := reductions[m.Name]
		from := rs
		if rd.crash {
			from = crash
		}
		var mv metricValue
		for _, r := range from {
			mv.Samples = append(mv.Samples, rd.samples(r)...)
		}
		mv.Value, mv.Unit, mv.Spread = rd.reduce(m, mv.Samples), m.Unit, spread(mv.Samples)
		wr.Rich[m.Name] = mv
		wr.Metrics[m.Name] = mv.resultValue
	}
	wr.OpSamples = len(rs[0].slices[0].opMs)
	wr.Whole = wholeRun{UpdatesPerS: ratio(updates, wallS),
		P50Ms: percentile(opMs, 0.50), P90Ms: percentile(opMs, 0.90), P99Ms: percentile(opMs, 0.99)}
	wr.Correct = wr.Failed == 0 && len(wr.Problems) == 0
	return wr
}

func printWorkload(w io.Writer, wl *workload, wr *workloadReport) {
	fmt.Fprintf(w, "\n%s — %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "  ops attempted %d, failed %d, %d latency samples per slice\n", wr.Attempted, wr.Failed, wr.OpSamples)
	for _, m := range endToEnd {
		mv := wr.Rich[m.Name]
		how := "median of"
		if reductions[m.Name].best {
			how = "best of"
		}
		fmt.Fprintf(w, "  %-22s %14.4f %-4s %-9s %2d samples, spread %5.1f%%\n",
			m.Name, mv.Value, m.Unit, how, len(mv.Samples), 100*mv.Spread)
	}
	fmt.Fprintf(w, "  whole run, not gated: updates_per_s %.4f, op_p50_ms %.4f, op_p90_ms %.4f, op_p99_ms %.4f\n",
		wr.Whole.UpdatesPerS, wr.Whole.P50Ms, wr.Whole.P90Ms, wr.Whole.P99Ms)
	for _, m := range perLayer {
		if v, ok := wr.Layers[m.Name]; ok {
			fmt.Fprintf(w, "  %-40s %16.4f %s\n", m.Name, v.Value, m.Unit)
		}
	}
}
