package core

import (
	"fmt"
	"sync"
	"testing"

	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

// counterViewOracle is the from-counters definition of a counter
// family's view, one cell at a time: the reference the maintained view
// must equal word for word at every version. It derives side 0 of
// each pair from the bucket total itself rather than through count.
func counterViewOracle(f *Family) *familyView {
	nb, s := f.cfg.Buckets, f.cfg.SecondLevel
	wps := sigWords(f.cfg)
	v := &familyView{
		version: f.Version(),
		occ:     make([]uint64, len(f.copies)),
		sig:     make([]uint64, len(f.copies)*nb*wps),
		wps:     wps,
	}
	for i, x := range f.copies {
		base := i * nb * wps
		for b := 0; b < nb; b++ {
			if x.totals[b] != 0 {
				v.occ[i] |= 1 << uint(b)
			}
			for j := 0; j < s; j++ {
				side1 := x.counts[b*s+j]
				for side, c := range [2]int64{x.totals[b] - side1, side1} {
					if cell := 2*j + side; c != 0 {
						v.sig[base+b*wps+cell/64] |= 1 << uint(cell%64)
					}
				}
			}
		}
	}
	return v
}

// sameView requires two views to agree on their version and every word.
func sameView(t *testing.T, label string, got, want *familyView) {
	t.Helper()
	if got.version != want.version || got.wps != want.wps ||
		len(got.occ) != len(want.occ) || len(got.sig) != len(want.sig) {
		t.Fatalf("%s: view shape (version %d, wps %d, %d occ, %d sig) != oracle (version %d, wps %d, %d occ, %d sig)",
			label, got.version, got.wps, len(got.occ), len(got.sig), want.version, want.wps, len(want.occ), len(want.sig))
	}
	for i := range want.occ {
		if got.occ[i] != want.occ[i] {
			t.Fatalf("%s: occ[%d] = %#x, oracle %#x", label, i, got.occ[i], want.occ[i])
		}
	}
	for i := range want.sig {
		if got.sig[i] != want.sig[i] {
			t.Fatalf("%s: sig[%d] = %#x, oracle %#x", label, i, got.sig[i], want.sig[i])
		}
	}
}

// TestHotBatchPatchWork pins the refresh work at the served shape (r =
// 128, s = 32, 61 buckets): three families preloaded with query_mix's
// 256 Zipf(1.0) warm batches, then one more 256-update batch. Each
// family's next view must be a patch recomputing at most 15% of its
// r·Buckets (copy, bucket) pairs — one batch touches about 6.5 buckets
// per copy — and must equal the oracle.
func TestHotBatchPatchWork(t *testing.T) {
	cfg := Config{Buckets: hashing.FieldBits, SecondLevel: 32, FirstWise: 8}
	const r, batch, warm = 128, 256, 256
	spec := datagen.LoadSpec{Streams: []string{"A", "B", "C"}, Support: 1 << 14, Theta: 1.0, Deletes: 0.1}
	gen, err := datagen.NewLoadGen(spec, hashing.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]*Family{}
	for _, name := range spec.Streams {
		fams[name] = mustFamily(t, cfg, 1, r)
	}
	digests := map[uint64]Digest{}
	apply := func() {
		for _, u := range gen.Updates(batch) {
			d, ok := digests[u.Elem]
			if !ok {
				d = fams[u.Stream].Digest(u.Elem)
				digests[u.Elem] = d
			}
			fams[u.Stream].UpdateDigest(d, u.Delta)
		}
	}
	for k := 0; k < warm; k++ {
		apply()
	}
	for _, f := range fams {
		f.queryView()
	}
	apply()
	for _, name := range spec.Streams {
		f := fams[name]
		before := Stats.Snapshot()
		v := f.queryView()
		after := Stats.Snapshot()
		delta := func(k string) uint64 { return after[k] - before[k] }
		if delta("estimator_view_patches_total") != 1 || delta("estimator_view_builds_total") != 0 {
			t.Fatalf("%s: refresh after one batch: %d patches, %d builds, want one patch",
				name, delta("estimator_view_patches_total"), delta("estimator_view_builds_total"))
		}
		rebuilt := delta("estimator_view_buckets_rebuilt_total")
		share := float64(rebuilt) / float64(r*cfg.Buckets)
		t.Logf("%s: %d of %d (copy, bucket) pairs rebuilt (%.1f%%)", name, rebuilt, r*cfg.Buckets, 100*share)
		if rebuilt == 0 || share > 0.15 {
			t.Errorf("%s: one hot batch rebuilt %.1f%% of r·Buckets, want (0, 15%%]", name, 100*share)
		}
		sameView(t, name, v, counterViewOracle(f))
	}
}

// TestViewPatchConcurrentEstimates runs one writer applying hot
// batches under a write lock beside four estimators under read locks —
// the coordinator's lock contract. Every estimate must equal the
// estimate over fresh (cloned) families at the same Version(), so a
// patch that leaks into a published view, or a mask cleared by the
// wrong reader, shows as a wrong answer or a race report.
func TestViewPatchConcurrentEstimates(t *testing.T) {
	const r, batches, batchLen = 32, 24, 64
	q, err := CompileQuery(expr.MustParse("(A - B) | (B - C)"))
	if err != nil {
		t.Fatal(err)
	}
	// Batch k writes every stream: hot inserts over 512 elements, every
	// fourth update deleting the insert before it; every third batch
	// splits the copies like the ingest workers do, and every eighth
	// merges a delta family (all buckets dirty).
	rng := hashing.NewRNG(41)
	elems := make([][]uint64, batches)
	deltas := make([][]int64, batches)
	for k := range elems {
		for j := 0; j < batchLen; j++ {
			e, v := uint64(rng.Intn(512)), int64(1)
			if j%4 == 3 {
				e, v = elems[k][j-1], -1
			}
			elems[k] = append(elems[k], e)
			deltas[k] = append(deltas[k], v)
		}
	}
	delta := buildFamilies(t, estCfg, 37, r, map[string][]uint64{"D": {900, 901, 902}})["D"]
	digests := make([][]Digest, batches)
	for k := range digests {
		digests[k] = delta.DigestBatch(elems[k])
	}
	apply := func(fams map[string]*Family, k int) {
		ds := digests[k]
		for _, f := range fams {
			switch {
			case k%8 == 7:
				if err := f.Merge(delta); err != nil {
					t.Error(err)
				}
			case k%3 == 2:
				f.UpdateRangeBatchDigest(0, r/2, ds, deltas[k])
				f.UpdateRangeBatchDigest(r/2, r, ds, deltas[k])
			default:
				f.UpdateBatchDigest(ds, deltas[k])
			}
		}
	}
	fromFresh := func(fams map[string]*Family) Estimate {
		fresh := map[string]*Family{}
		for name, f := range fams {
			fresh[name] = f.Clone()
		}
		est, err := q.Estimate(fresh, 0.2, true, EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	ref := buildKernelFamilies(t, estCfg, 37, r)
	want := map[uint64]Estimate{ref["A"].Version(): fromFresh(ref)}
	for k := 0; k < batches; k++ {
		apply(ref, k)
		want[ref["A"].Version()] = fromFresh(ref)
	}

	fams := buildKernelFamilies(t, estCfg, 37, r)
	var (
		mu   sync.RWMutex
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				mu.RLock()
				ver := fams["A"].Version()
				got, err := q.Estimate(fams, 0.2, true, EstimateOptions{})
				mu.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				if w, ok := want[ver]; !ok || got != w {
					t.Errorf("estimate at version %d = %+v, from a fresh view %+v", ver, got, w)
					return
				}
			}
		}()
	}
	for k := 0; k < batches; k++ {
		mu.Lock()
		apply(fams, k)
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	for name, f := range fams {
		sameView(t, fmt.Sprintf("%s after the run", name), f.queryView(), counterViewOracle(f))
	}
}
