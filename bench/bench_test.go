package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10}, {0.01, 1}, {0.10, 1}, {0.11, 2},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
	if got := spread([]float64{90, 100, 120}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("spread(90,100,120) = %v, want 0.3", got)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one round = %v, want 0", got)
	}
}

func exactFor(size, union int) *input {
	in := &input{exact: map[string]exact{}}
	for _, e := range expressions {
		in.exact[e] = exact{size: size, union: union}
	}
	return in
}

// The timings of the window and of recovery take the best of all
// slices and restarts of the run; set-up time, RSS and WAL bytes take
// the median of the rounds, whichever round was the outlier.
func TestSummarizeReducesSlicesAndRounds(t *testing.T) {
	ops := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	mk := func(rssMB, setupS float64, recoveryS []float64, wallS ...float64) *round {
		r := &round{attempted: 10 * len(wallS), rssMB: rssMB, setupS: setupS, walBytes: 800,
			recoveryS: recoveryS, answers: []float64{100, 100, 100, 100, 100}}
		for _, w := range wallS {
			// Latencies and CPU scale with the slice's wall time.
			s := slice{updates: 1000, wallS: w, cpuS: w / 2}
			for _, o := range ops {
				s.opMs = append(s.opMs, o*w)
			}
			r.slices = append(r.slices, s)
		}
		return r
	}
	// 12 slices: the best of them took 1 s.
	rs := []*round{
		mk(10, 1, []float64{0.30, 0.31}, 2, 2.5, 4, 1.25),
		mk(30, 3, []float64{0.20, 0.50}, 2, 2, 1, 2),
		mk(20, 2, []float64{0.40, 0.45}, 5, 5, 5, 5),
	}
	wr := summarize(exactFor(100, 200), rs, rs)
	want := map[string]float64{
		"updates_per_s": 1000, "op_p50_ms": 5, "op_p90_ms": 9, "cpu_s_per_mupdate": 500,
		"server_rss_mb": 20, "setup_s": 2, "wal_bytes_per_update": 800, "recovery_s": 0.20,
	}
	for name, v := range want {
		if got := wr.Metrics[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if !wr.Correct || wr.Attempted != 120 || wr.Failed != 0 {
		t.Errorf("correct %v attempted %d failed %d, want true 120 0 (%v)", wr.Correct, wr.Attempted, wr.Failed, wr.Problems)
	}
	if got := wr.Rich["server_rss_mb"].Spread; got != 1 {
		t.Errorf("sample spread of server_rss_mb = %v, want (30-10)/20", got)
	}
	if got := len(wr.Rich["op_p50_ms"].Samples); got != 12 {
		t.Errorf("op_p50_ms reduced from %d samples, want one per slice", got)
	}
	// The whole-run values pool every op: 12,000 updates over 36.75 s;
	// 60 of the 120 latencies are at or below 12.5 ms.
	if got, want := wr.Whole.UpdatesPerS, 12000/36.75; math.Abs(got-want) > 1e-9 {
		t.Errorf("whole-run updates_per_s = %v, want %v", got, want)
	}
	if wr.Whole.P50Ms != 12.5 || wr.Whole.P99Ms != 50 {
		t.Errorf("whole-run p50 %v p99 %v, want 12.5 and 50", wr.Whole.P50Ms, wr.Whole.P99Ms)
	}

	// A workload without a WAL takes WAL bytes and recovery time from
	// the run's crash probe, whose ops and failures count too.
	probe := mk(1, 1, []float64{0.15, 0.16}, 1)
	probe.walBytes, probe.failed = 700, 1
	probe.problems = []string{"lost an update"}
	wr = summarize(exactFor(100, 200), rs, []*round{probe})
	if got := wr.Metrics["wal_bytes_per_update"].Value; got != 700 {
		t.Errorf("wal_bytes_per_update = %v, want the probe's 700", got)
	}
	if got := wr.Metrics["recovery_s"].Value; got != 0.15 {
		t.Errorf("recovery_s = %v, want the probe's best restart 0.15", got)
	}
	if got := wr.Metrics["server_rss_mb"].Value; got != 20 {
		t.Errorf("server_rss_mb = %v: the probe's server is not the measured one", got)
	}
	if wr.Correct || wr.Attempted != 130 || wr.Failed != 1 {
		t.Errorf("correct %v attempted %d failed %d, want false 130 1", wr.Correct, wr.Attempted, wr.Failed)
	}
}

func TestSummarizeFlagsWrongAnswers(t *testing.T) {
	in := exactFor(100, 200)
	ok := []float64{100, 110, 90, 100, 169}
	r := func(a []float64) *round {
		return &round{slices: []slice{{opMs: []float64{1}, updates: 1, wallS: 1}}, recoveryS: []float64{1}, answers: a}
	}
	sum := func(rs ...*round) *workloadReport { return summarize(in, rs, rs) }
	if wr := sum(r(ok), r(ok)); !wr.Correct {
		t.Errorf("answers within 0.35 × union flagged: %v", wr.Problems)
	}
	off := []float64{100, 110, 90, 100, 171}
	if wr := sum(r(off), r(off)); wr.Correct {
		t.Error("an answer 0.355 × union away from exact passed")
	}
	drift := []float64{100, 110, 90, 100, math.Nextafter(169, 200)}
	if wr := sum(r(ok), r(drift)); wr.Correct {
		t.Error("answers differing in the last bit between rounds passed")
	}
	failed := r(ok)
	failed.failed = 1
	if wr := sum(failed); wr.Correct {
		t.Error("a run with a failed op is reported correct")
	}
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	t0 := time.Unix(100, 0)
	s := schedule{start: t0, interval: time.Second / queryPerS}
	if got := s.due(0); !got.Equal(t0) {
		t.Errorf("op 0 due %v, want the start", got)
	}
	if got := s.due(queryPerS).Sub(t0); got < 999*time.Millisecond || got > time.Second {
		t.Errorf("op %d at %d/s due %v after the start, want 1s", queryPerS, queryPerS, got)
	}
	// An op due at 20 ms that a stall delays to 50 ms and that takes
	// 5 ms is 30 ms late and has 35 ms latency: the stall counts.
	due := t0.Add(20 * time.Millisecond)
	lat, late := observe(due, t0.Add(50*time.Millisecond), t0.Add(55*time.Millisecond))
	if lat != 35 || late != 30 {
		t.Errorf("latency %v ms, lateness %v ms; want 35 and 30", lat, late)
	}

	// pace never starts an op before it is due, counts failures, and
	// times from the due time.
	var starts []time.Duration
	begin := time.Now()
	latMs, lateMs, failed, last := pace(schedule{start: begin, interval: 2 * time.Millisecond}, 0, 5, func(i int) error {
		starts = append(starts, time.Since(begin))
		if i == 3 {
			return io.ErrUnexpectedEOF
		}
		return nil
	})
	if len(latMs) != 5 || len(lateMs) != 5 || failed != 1 || last.Before(begin.Add(8*time.Millisecond)) {
		t.Fatalf("pace: %d latencies, %d latenesses, %d failed, last op %v after start", len(latMs), len(lateMs), failed, last.Sub(begin))
	}
	for i, st := range starts {
		if st < time.Duration(i)*2*time.Millisecond {
			t.Errorf("op %d started %v after the start, before it was due", i, st)
		}
		if lateMs[i] < 0 || latMs[i] < lateMs[i] {
			t.Errorf("op %d: lateness %v ms, latency %v ms", i, lateMs[i], latMs[i])
		}
	}
}

// A round's work is a whole number of batches at every -seconds, and
// the open loop's batches end with its query schedule.
func TestSizes(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []float64{1, 20, 60} {
			sz := w.size(seconds / rounds)
			if sz.slices < 1 || sz.ops < 1 || sz.batches() < 1 {
				t.Errorf("%s at -seconds %v: %+v sends %d batches", w.name, seconds, sz, sz.batches())
			}
			if sz.perOp == 0 && sz.ops*ingestPerS%queryPerS != 0 {
				t.Errorf("%s: a slice of %d queries at %d/s is not a whole number of batches at %d/s", w.name, sz.ops, queryPerS, ingestPerS)
			}
		}
	}
	if got := durableHot.size(20.0 / rounds); got.slices*got.ops*3 != workloads[0].size(20.0/rounds).batches() {
		t.Errorf("durable_hot sends %d batches a round, want a third of forward_hot's", got.batches())
	}
}

func TestProcParsing(t *testing.T) {
	cpu, err := parseSchedstat("13000000000 6379354 42\n")
	if err != nil || cpu != 13.0 {
		t.Errorf("parseSchedstat = %v, %v; want 13 s", cpu, err)
	}
	if _, err := parseSchedstat("13000000000 6379354"); err == nil {
		t.Error("parseSchedstat accepted a truncated line")
	}
	status := "Name:\tsketchd\nVmPeak:\t  999999 kB\nVmHWM:\t  232448 kB\nVmRSS:\t  100000 kB\n"
	rss, err := parseVmHWM(status)
	if err != nil || rss != 227.0 {
		t.Errorf("parseVmHWM = %v, %v; want 227 MB", rss, err)
	}
	if _, err := parseVmHWM("Name:\tsketchd\n"); err == nil {
		t.Error("parseVmHWM accepted a status without VmHWM")
	}
	self, err := os.ReadFile("/proc/self/schedstat")
	if err != nil {
		t.Skip("no schedstat on this host")
	}
	if _, err := parseSchedstat(string(self)); err != nil {
		t.Errorf("parseSchedstat(/proc/self/schedstat): %v", err)
	}
}

func TestLogAddrAndMetricsParsing(t *testing.T) {
	line := `ts=2026-09-27T04:15:16.406Z level=info msg="coordinator listening" addr=127.0.0.1:35005`
	if a, ok := logAddr(line, msgListening); !ok || a != "127.0.0.1:35005" {
		t.Errorf("logAddr = %q, %v", a, ok)
	}
	admin := `ts=x level=info msg="admin endpoint listening" addr=127.0.0.1:41989 endpoints="/metrics /healthz"`
	if a, ok := logAddr(admin, msgAdminListening); !ok || a != "127.0.0.1:41989" {
		t.Errorf("logAddr(admin) = %q, %v", a, ok)
	}
	if _, ok := logAddr(admin, msgListening); ok {
		t.Error("the admin line matched the coordinator marker")
	}
	m, err := parseMetrics(strings.NewReader("# HELP x y\n# TYPE x counter\nwal_fsyncs_total 12\n" +
		"stream_handle_seconds_sum{} 3.5\nstream_frames_received_total{type=\"update_batch\"} 2555\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"wal_fsyncs_total": 12, "stream_handle_seconds_sum{}": 3.5,
		`stream_frames_received_total{type="update_batch"}`: 2555}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("parseMetrics = %v, want %v", m, want)
	}
}

func TestInputDeterminism(t *testing.T) {
	a, err := genInput(hotSpec, 7, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := genInput(hotSpec, 7, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.all, b.all) || !reflect.DeepEqual(a.exact, b.exact) {
		t.Error("the same seed gave different batches or different exact answers")
	}
	c, err := genInput(hotSpec, 8, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.all, c.all) {
		t.Error("different seeds gave identical batches")
	}
	if len(a.warm) != 2 || len(a.batches) != 6 || updates(a.all) != 8*batchSize {
		t.Errorf("warm %d batches %d updates %d", len(a.warm), len(a.batches), updates(a.all))
	}
	if u := a.exact["A | B"]; u.size != u.union || u.size == 0 {
		t.Errorf("|A | B| = %d but the union of its streams is %d", u.size, u.union)
	}
	if ex := a.exact["A - B"]; ex.size > ex.union {
		t.Errorf("|A - B| = %d exceeds the union %d", ex.size, ex.union)
	}
}

// BENCHMARK.json is written by hand; the tables in metrics.go and
// workload.go are what the program reports. They must name the same
// things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %s — %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
}

func TestCompare(t *testing.T) {
	write := func(name string, ups, p50 float64) string {
		rep := report{Workloads: map[string]*workloadReport{"forward_hot": {result: result{Metrics: map[string]resultValue{}}}}}
		for _, m := range endToEnd {
			rep.Workloads["forward_hot"].Metrics[m.Name] = resultValue{Value: 1, Unit: m.Unit}
		}
		rep.Workloads["forward_hot"].Metrics["updates_per_s"] = resultValue{Value: ups}
		rep.Workloads["forward_hot"].Metrics["op_p50_ms"] = resultValue{Value: p50}
		data, _ := json.Marshal(rep)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Both metrics carry the same bound; stay inside it, then step
	// outside it in each direction.
	bound := endToEnd[0].Bound
	if endToEnd[1].Bound != bound {
		t.Fatal("the test assumes updates_per_s and op_p50_ms share a bound")
	}
	base := write("a.json", 100000, 1.5)
	var out strings.Builder
	if code := compareReports(base, write("b.json", 100000*(1-bound/2), 1.5*(1+bound/2)), &out, io.Discard); code != 0 {
		t.Errorf("half a bound worse exits %d, want 0:\n%s", code, out.String())
	}
	if code := compareReports(base, write("c.json", 100000*(1-1.1*bound), 1.5), io.Discard, io.Discard); code != 1 {
		t.Errorf("updates_per_s 1.1 bounds lower exits %d, want 1", code)
	}
	if code := compareReports(base, write("d.json", 100000, 1.5/(1+1.1*bound)), io.Discard, io.Discard); code != 1 {
		t.Errorf("a is 1.1 bounds worse than b on op_p50_ms but the exit is %d, want 1", code)
	}
	// A set of three reports is its median: one outlier does not count.
	outlier := write("e.json", 100000*(1-2*bound), 1.5)
	if code := compareReports(base, base+","+outlier+","+base, io.Discard, io.Discard); code != 0 {
		t.Errorf("a set whose median equals a exits %d, want 0", code)
	}
	if code := compareReports(base, base+","+outlier+","+outlier, io.Discard, io.Discard); code != 1 {
		t.Errorf("a set whose median is 2 bounds worse exits %d, want 1", code)
	}
	if code := compareReports(base, filepath.Join(t.TempDir(), "missing.json"), io.Discard, io.Discard); code != 2 {
		t.Errorf("a missing report exits %d, want 2", code)
	}
	// Missing data is an error, never a pass: a workload only one set
	// holds, a report without one of the metrics, no workload at all.
	other := report{Workloads: map[string]*workloadReport{"query_mix": {result: result{Metrics: map[string]resultValue{}}}}}
	for _, m := range endToEnd {
		other.Workloads["query_mix"].Metrics[m.Name] = resultValue{Value: 1, Unit: m.Unit}
	}
	save := func(name string, rep report) string {
		data, _ := json.Marshal(rep)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	mix := save("mix.json", other)
	if code := compareReports(base, mix, io.Discard, io.Discard); code != 2 {
		t.Errorf("sets with no workload in common exit %d, want 2", code)
	}
	if code := compareReports(base, base+","+mix, io.Discard, io.Discard); code != 2 {
		t.Errorf("a workload held by one set only exits %d, want 2", code)
	}
	delete(other.Workloads["query_mix"].Metrics, "op_p90_ms")
	if code := compareReports(mix, save("short.json", other), io.Discard, io.Discard); code != 2 {
		t.Errorf("a report without op_p90_ms exits %d, want 2", code)
	}
	if code := compareReports(save("e1.json", report{}), save("e2.json", report{}), io.Discard, io.Discard); code != 2 {
		t.Errorf("two empty sets exit %d, want 2", code)
	}
	if got := worse(metricDef{Better: "higher"}, 100, 90); got != 0.1 {
		t.Errorf("worse(higher, 100→90) = %v, want 0.1", got)
	}
	if got := worse(metricDef{Better: "lower"}, 100, 90); got != -0.1 {
		t.Errorf("worse(lower, 100→90) = %v, want -0.1", got)
	}
}

// -smoke runs one tiny round of every workload against real sketchd
// children with every correctness check, so the harness cannot rot;
// a corrupted answer must fail the run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sketchd children")
	}
	var out, errs strings.Builder
	if code := run([]string{"-smoke"}, &out, &errs); code != 0 {
		t.Fatalf("smoke exit %d\n%s\n%s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", last)
	}
	for _, m := range endToEnd {
		if v := last.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("%s = %v %q", m.Name, v.Value, v.Unit)
		}
	}

	corruptAnswer = true
	defer func() { corruptAnswer = false }()
	errs.Reset()
	if code := run([]string{"-smoke", "-workload", "durable_hot"}, io.Discard, &errs); code == 0 {
		t.Error("a corrupted answer exits 0")
	}
	if !strings.Contains(errs.String(), "after restart") {
		t.Errorf("the corrupted answer was not reported: %q", errs.String())
	}
}
