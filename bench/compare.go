package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// worse is by what share of a's value b is worse than a in the metric's
// bad direction; negative when b is better.
func worse(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// loadSet reads a comma-separated list of -out reports and returns,
// per workload and end-to-end metric, the median over the reports
// that hold the workload. A workload in a report must carry every
// end-to-end metric.
func loadSet(paths string) (map[string]map[string]float64, error) {
	values := map[string]map[string][]float64{}
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, wr := range rep.Workloads {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, m := range endToEnd {
				v, ok := wr.Metrics[m.Name]
				if !ok {
					return nil, fmt.Errorf("%s: %s has no %s", path, name, m.Name)
				}
				values[name][m.Name] = append(values[name][m.Name], v.Value)
			}
		}
	}
	medians := map[string]map[string]float64{}
	for name, metrics := range values {
		medians[name] = map[string]float64{}
		for metric, vs := range metrics {
			medians[name][metric] = median(vs)
		}
	}
	return medians, nil
}

// compareReports prints, per workload × end-to-end metric, how much
// worse set b is than set a against the metric's bound, and returns 1
// if any pair is beyond its bound in either direction: two sets of
// runs of one commit agree only if neither looks like a regression of
// the other. A set is one -out report or several, comma-separated; a
// set's value is the median over its reports, as the driver takes it
// over ten seeds. Missing data is an error (exit 2), never a pass: a
// workload only one set holds, or no workload in common.
func compareReports(pathsA, pathsB string, stdout, stderr io.Writer) int {
	var sets [2]map[string]map[string]float64
	for i, paths := range []string{pathsA, pathsB} {
		var err error
		if sets[i], err = loadSet(paths); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	code, common := 0, 0
	fmt.Fprintf(stdout, "%-16s %-22s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "b worse", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if a == nil && b == nil {
			continue
		}
		if a == nil || b == nil {
			fmt.Fprintf(stderr, "bench: only one of the two sets holds %s\n", w.name)
			return 2
		}
		common++
		for _, m := range endToEnd {
			va, vb := a[m.Name], b[m.Name]
			d := worse(m, va, vb)
			verdict := ""
			if d > m.Bound || worse(m, vb, va) > m.Bound {
				verdict = "  BEYOND BOUND"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-22s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n",
				w.name, m.Name, va, vb, 100*d, 100*m.Bound, verdict)
		}
	}
	if common == 0 {
		fmt.Fprintln(stderr, "bench: the two sets hold no workload")
		return 2
	}
	return code
}
