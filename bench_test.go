package setsketch

// Benchmarks, one per evaluation figure of the paper plus throughput
// and ablation benches for the design choices DESIGN.md calls out.
//
// The figure benches (BenchmarkFig7aIntersection, BenchmarkFig7bDifference,
// BenchmarkFig8Expression) measure the end-to-end estimation pipeline on
// the exact workload shape of the corresponding figure at reduced scale;
// the full error-vs-space series that regenerate the figures are printed
// by `go run ./cmd/experiments` (see EXPERIMENTS.md for recorded output).
// Kernel, ingest, WAL and wire timings are per-layer probes of the
// repository benchmark (`bash bench/run.sh -trace 1`, bench/layers.go).

import (
	"fmt"
	"testing"

	"setsketch/internal/baselines"
	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

// benchCfg is the paper's experimental configuration (s = 32, 8-wise).
var benchCfg = core.DefaultConfig()

// buildWorkloadFamilies generates a figure workload and summarizes it
// into aligned families of r copies.
func buildWorkloadFamilies(b *testing.B, exprStr string, union, target, r int) (expr.Node, map[string]*core.Family) {
	b.Helper()
	node := expr.MustParse(exprStr)
	rng := hashing.NewRNG(2003)
	w, err := datagen.Generate(datagen.Spec{Expr: node, Union: union, Target: target, Balance: true}, rng)
	if err != nil {
		b.Fatal(err)
	}
	fams := make(map[string]*core.Family, len(w.Streams))
	for name, elems := range w.Streams {
		f, err := core.NewFamily(benchCfg, 7, r)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range elems {
			f.Insert(e)
		}
		fams[name] = f
	}
	return node, fams
}

// benchFigure measures the estimation step of one paper figure: the
// witness estimator over r-copy families at the figure's target/union
// ratio.
func benchFigure(b *testing.B, exprStr string, ratio int, multiLevel bool) {
	const union, r = 1 << 12, 128
	node, fams := buildWorkloadFamilies(b, exprStr, union, union/ratio, r)
	q, err := core.CompileQuery(node)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.EstimateOptions{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Estimate(fams, 0.1, multiLevel, opts); err != nil && err != core.ErrNoObservations {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7aIntersection: Figure 7(a), |A ∩ B| estimation.
func BenchmarkFig7aIntersection(b *testing.B) { benchFigure(b, "A & B", 16, true) }

// BenchmarkFig7bDifference: Figure 7(b), |A − B| estimation.
func BenchmarkFig7bDifference(b *testing.B) { benchFigure(b, "A - B", 16, true) }

// BenchmarkFig8Expression: Figure 8, |(A − B) ∩ C| estimation.
func BenchmarkFig8Expression(b *testing.B) { benchFigure(b, "(A - B) & C", 16, true) }

// BenchmarkSingleLevelEstimator measures the paper-literal Fig. 6
// estimator for comparison with the multi-level benches above.
func BenchmarkSingleLevelEstimator(b *testing.B) { benchFigure(b, "A & B", 16, false) }

// benchUnion measures the union estimator over two families.
func benchUnion(b *testing.B, multiLevel bool) {
	_, fams := buildWorkloadFamilies(b, "A | B", 1<<12, 1<<12, 128)
	pair := []*core.Family{fams["A"], fams["B"]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EstimateUnion(pair, 0.1, multiLevel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnionEstimator measures the specialized Fig. 5 estimator.
func BenchmarkUnionEstimator(b *testing.B) { benchUnion(b, false) }

// BenchmarkUnionML measures the all-levels maximum-likelihood union
// estimator (golden-section search over the occupancy profile).
func BenchmarkUnionML(b *testing.B) { benchUnion(b, true) }

// BenchmarkSketchUpdate measures the per-stream-item maintenance cost
// of one 2-level hash sketch (§3.1: s+1 counter updates + hashing).
func BenchmarkSketchUpdate(b *testing.B) {
	sk, err := core.NewSketch(benchCfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Update(uint64(i), 1)
	}
}

// BenchmarkFamilyUpdate128 measures maintenance across a 128-copy
// family — the cost actually paid per arriving update at r = 128.
func BenchmarkFamilyUpdate128(b *testing.B) {
	f, err := core.NewFamily(benchCfg, 1, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Update(uint64(i), 1)
	}
}

// BenchmarkProcessorUpdate measures the public-API update path,
// including stream lookup and locking.
func BenchmarkProcessorUpdate(b *testing.B) {
	p, err := NewProcessor(Options{Copies: 128, SecondLevel: 32, FirstWise: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Update("A", uint64(i), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFamilyMerge measures coordinator-side merging of one shipped
// 128-copy synopsis (the distributed model's hot operation).
func BenchmarkFamilyMerge(b *testing.B) {
	mk := func() *core.Family {
		f, err := core.NewFamily(benchCfg, 1, 128)
		if err != nil {
			b.Fatal(err)
		}
		for e := uint64(0); e < 4096; e++ {
			f.Insert(e)
		}
		return f
	}
	dst, src := mk(), mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Merge(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialize measures snapshot encoding of a loaded 128-copy
// family (what a site ships per stream).
func BenchmarkSerialize(b *testing.B) {
	f, err := core.NewFamily(benchCfg, 1, 128)
	if err != nil {
		b.Fatal(err)
	}
	for e := uint64(0); e < 4096; e++ {
		f.Insert(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteTo(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Ablation: second-level count s drives per-update cost linearly
// (s+1 counter touches); these benches quantify the s accuracy/speed
// trade documented by `experiments -fig s-ablation`.
func BenchmarkAblationSecondLevel(b *testing.B) {
	for _, s := range []int{8, 16, 32, 58} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			cfg := benchCfg
			cfg.SecondLevel = s
			sk, err := core.NewSketch(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Update(uint64(i), 1)
			}
		})
	}
}

// Ablation: first-level independence degree t costs t−1 multiply-adds
// per update (§3.6's Θ(log 1/ε) requirement is cheap).
func BenchmarkAblationFirstWise(b *testing.B) {
	for _, t := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			cfg := benchCfg
			cfg.FirstWise = t
			sk, err := core.NewSketch(cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sk.Update(uint64(i), 1)
			}
		})
	}
}

// BenchmarkBitSketchInsert measures the paper's §5.2 insert-only bit
// variant: same hashing, 1-bit cells, no deletion support.
func BenchmarkBitSketchInsert(b *testing.B) {
	sk, err := core.NewBitSketch(benchCfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Insert(uint64(i))
	}
	b.ReportMetric(float64(sk.MemoryBytes()), "sketch-bytes")
}

// BenchmarkBitVsCounterEstimate compares estimate-time cost of the two
// representations at identical accuracy (the estimates are equal).
func BenchmarkBitVsCounterEstimate(b *testing.B) {
	const union, r = 1 << 12, 128
	node := expr.MustParse("A & B")
	rng := hashing.NewRNG(5)
	w, err := datagen.Generate(datagen.Spec{Expr: node, Union: union, Target: union / 16, Balance: true}, rng)
	if err != nil {
		b.Fatal(err)
	}
	bfams := make(map[string]*core.BitFamily, len(w.Streams))
	for name, elems := range w.Streams {
		f, err := core.NewBitFamily(benchCfg, 7, r)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range elems {
			f.Insert(e)
		}
		bfams[name] = f
	}
	q, err := core.CompileQuery(node)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.EstimateBits(bfams, 0.1, true, core.EstimateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMUnion measures the Flajolet–Martin baseline (paper Fig. 2)
// per-insert cost at r = 64 for comparison with sketch maintenance.
func BenchmarkFMUnion(b *testing.B) {
	fm, err := baselines.NewFM(1, 64, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.Insert(uint64(i))
	}
}

// BenchmarkMIPsInsert measures the min-wise permutations baseline's
// per-insert cost at k = 128 coordinates.
func BenchmarkMIPsInsert(b *testing.B) {
	m, err := baselines.NewMIPs(1, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(uint64(i))
	}
}
