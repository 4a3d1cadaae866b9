package ingest

import (
	"strings"
	"sync"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/hashing"
)

var testCfg = core.Config{Buckets: 32, SecondLevel: 8, FirstWise: 4}

// serialFamilies replays updates into plain families — the ground
// truth every sharded configuration must reproduce exactly.
func serialFamilies(t *testing.T, seed uint64, copies int, ups []datagen.Update) map[string]*core.Family {
	t.Helper()
	fams := make(map[string]*core.Family)
	for _, u := range ups {
		f, ok := fams[u.Stream]
		if !ok {
			var err error
			if f, err = core.NewFamily(testCfg, seed, copies); err != nil {
				t.Fatal(err)
			}
			fams[u.Stream] = f
		}
		f.Update(u.Elem, u.Delta)
	}
	return fams
}

func randomUpdates(seed uint64, n int) []datagen.Update {
	rng := hashing.NewRNG(seed)
	streams := []string{"A", "B", "C"}
	ups := make([]datagen.Update, 0, n)
	for i := 0; i < n; i++ {
		delta := int64(1)
		if i%7 == 0 {
			delta = -1
		}
		ups = append(ups, datagen.Update{
			Stream: streams[rng.Uint64n(uint64(len(streams)))],
			Elem:   rng.Uint64n(1 << 16),
			Delta:  delta,
		})
	}
	return ups
}

// TestShardedMatchesSerial: every worker/batch configuration — including
// copy counts not divisible by the worker count and a batch size that
// leaves a partial batch at the barrier — produces bit-identical
// synopses to single-threaded ingestion.
func TestShardedMatchesSerial(t *testing.T) {
	const seed, copies = 5, 13
	ups := randomUpdates(41, 3000)
	want := serialFamilies(t, seed, copies, ups)

	for _, opts := range []Options{
		{Workers: 1, BatchSize: 64},
		{Workers: 3, BatchSize: 7},
		{Workers: 4, BatchSize: 1000}, // partial batch flushed only by barrier
		{Workers: 64, BatchSize: 256}, // workers capped at copies
	} {
		e, err := New(testCfg, seed, copies, opts)
		if err != nil {
			t.Fatal(err)
		}
		if opts.Workers > copies && e.Workers() != copies {
			t.Errorf("workers not capped at copies: %d", e.Workers())
		}
		for _, u := range ups {
			if err := e.Update(u.Stream, u.Elem, u.Delta); err != nil {
				t.Fatal(err)
			}
		}
		got := e.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("opts %+v: %d streams, want %d", opts, len(got), len(want))
		}
		for name, f := range want {
			if !f.Equal(got[name]) {
				t.Errorf("opts %+v: stream %q differs from serial ingest", opts, name)
			}
		}
		if got := e.Accepted(); got != uint64(len(ups)) {
			t.Errorf("accepted %d updates, want %d", got, len(ups))
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateBatch: batch submission matches per-update submission.
func TestUpdateBatch(t *testing.T) {
	ups := randomUpdates(43, 1500)
	want := serialFamilies(t, 2, 8, ups)
	e, err := New(testCfg, 2, 8, Options{Workers: 2, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.UpdateBatch(ups); err != nil {
		t.Fatal(err)
	}
	got := e.Snapshot()
	for name, f := range want {
		if !f.Equal(got[name]) {
			t.Errorf("stream %q differs after UpdateBatch", name)
		}
	}
}

// TestFlushLinearity: merging successive flush deltas reconstructs the
// full-stream synopsis exactly, and a flush empties the engine state.
func TestFlushLinearity(t *testing.T) {
	const seed, copies = 9, 10
	ups := randomUpdates(77, 4000)
	want := serialFamilies(t, seed, copies, ups)

	e, err := New(testCfg, seed, copies, Options{Workers: 3, BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	merged := make(map[string]*core.Family)
	chunk := len(ups) / 5
	for i := 0; i < len(ups); i += chunk {
		end := i + chunk
		if end > len(ups) {
			end = len(ups)
		}
		if err := e.UpdateBatch(ups[i:end]); err != nil {
			t.Fatal(err)
		}
		for name, delta := range e.Flush() {
			if cur, ok := merged[name]; ok {
				if err := cur.Merge(delta); err != nil {
					t.Fatal(err)
				}
			} else {
				merged[name] = delta
			}
		}
	}
	for name, f := range want {
		if !f.Equal(merged[name]) {
			t.Errorf("merged flush deltas for %q differ from full-stream synopsis", name)
		}
	}
	// After the final flush the engine's synopses are empty.
	empty, _ := core.NewFamily(testCfg, seed, copies)
	for name, f := range e.Snapshot() {
		if !f.Equal(empty) {
			t.Errorf("stream %q not reset by Flush", name)
		}
	}
}

// TestMergeSharded: delta merges interleaved with updates land exactly
// like a serial merge would.
func TestMergeSharded(t *testing.T) {
	const seed, copies = 3, 11
	ups := randomUpdates(55, 1000)
	delta, _ := core.NewFamily(testCfg, seed, copies)
	rng := hashing.NewRNG(4)
	for i := 0; i < 800; i++ {
		delta.Insert(rng.Uint64n(1 << 16))
	}
	want := serialFamilies(t, seed, copies, ups)
	if err := want["A"].Merge(delta); err != nil {
		t.Fatal(err)
	}

	e, err := New(testCfg, seed, copies, Options{Workers: 4, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.UpdateBatch(ups[:500]); err != nil {
		t.Fatal(err)
	}
	if err := e.Merge("A", delta); err != nil {
		t.Fatal(err)
	}
	if err := e.UpdateBatch(ups[500:]); err != nil {
		t.Fatal(err)
	}
	got := e.Snapshot()
	for name, f := range want {
		if !f.Equal(got[name]) {
			t.Errorf("stream %q differs after sharded merge", name)
		}
	}
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}

	// Misaligned deltas are rejected at submit time.
	wrong, _ := core.NewFamily(testCfg, seed+1, copies)
	if err := e.Merge("A", wrong); err != core.ErrNotAligned {
		t.Errorf("misaligned merge: err = %v, want ErrNotAligned", err)
	}
	if err := e.Merge("A", nil); err == nil {
		t.Error("nil delta accepted")
	}
}

// TestConcurrentProducers: many goroutines submitting concurrently must
// neither race (run with -race) nor lose updates.
func TestConcurrentProducers(t *testing.T) {
	const seed, copies, producers, perProducer = 6, 8, 8, 500
	e, err := New(testCfg, seed, copies, Options{Workers: 3, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := hashing.NewRNG(uint64(p) + 1000)
			for i := 0; i < perProducer; i++ {
				if err := e.Update("S", rng.Uint64n(1<<20), 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if got := e.Accepted(); got != producers*perProducer {
		t.Errorf("accepted %d, want %d", got, producers*perProducer)
	}
	// All counters must account for exactly the accepted inserts.
	var total int64
	e.View(func(fams map[string]*core.Family) {
		f := fams["S"]
		for b := 0; b < testCfg.Buckets; b++ {
			total += f.Copy(0).BucketTotal(b)
		}
	})
	if total != producers*perProducer {
		t.Errorf("copy 0 holds %d net insertions, want %d", total, producers*perProducer)
	}
}

// TestClosedEngine: submissions after Close fail cleanly; Close is
// idempotent; reads still serve the final state.
func TestClosedEngine(t *testing.T) {
	e, err := New(testCfg, 1, 4, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update("A", 42, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}
	if err := e.Update("A", 7, 1); err == nil {
		t.Error("Update accepted after Close")
	}
	if err := e.UpdateBatch(randomUpdates(1, 3)); err == nil {
		t.Error("UpdateBatch accepted after Close")
	}
	delta, _ := core.NewFamily(testCfg, 1, 4)
	if err := e.Merge("A", delta); err == nil {
		t.Error("Merge accepted after Close")
	}
	snap := e.Snapshot()
	if snap["A"] == nil {
		t.Error("Snapshot lost state after Close")
	}
	if got := e.Streams(); len(got) != 1 || got[0] != "A" {
		t.Errorf("Streams after Close = %v", got)
	}
}

func TestNewRejectsBadParameters(t *testing.T) {
	if _, err := New(core.Config{}, 1, 4, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(testCfg, 1, 0, Options{}); err == nil {
		t.Error("zero copies accepted")
	}
}

// TestDigestPathMatchesDirect: the same workload through the
// coalescing path with no digest cache (DigestCache < 0), a tiny cache
// forcing evictions, and the default cache must produce synopses
// bit-identical to serial per-element ingest.
func TestDigestPathMatchesDirect(t *testing.T) {
	const seed, copies = 17, 13
	ups := randomUpdates(23, 5000)
	want := serialFamilies(t, seed, copies, ups)

	for _, opts := range []Options{
		{Workers: 3, BatchSize: 32, DigestCache: -1},  // no cache
		{Workers: 3, BatchSize: 32, DigestCache: 16},  // thrashing cache
		{Workers: 3, BatchSize: 500, DigestCache: 0},  // default cache
		{Workers: 1, BatchSize: 1, DigestCache: 1024}, // degenerate batches
	} {
		e, err := New(testCfg, seed, copies, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.UpdateBatch(ups); err != nil {
			t.Fatal(err)
		}
		got := e.Snapshot()
		for name, f := range want {
			if !f.Equal(got[name]) {
				t.Errorf("opts %+v: stream %q differs from serial ingest", opts, name)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalescing: a batch made of repeats of one element must reach the
// sketches as a single net update, and exact insert/delete cancellation
// must be dropped without touching a counter.
func TestCoalescing(t *testing.T) {
	const seed, copies = 4, 6
	e, err := New(testCfg, seed, copies, Options{Workers: 2, BatchSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// 500 inserts and 500 deletes of element 1: net zero, fully folded.
	// 300 inserts of element 2: net +300 in one replay.
	for i := 0; i < 500; i++ {
		if err := e.Update("A", 1, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Update("A", 1, -1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := e.Update("A", 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := e.Snapshot()["A"]
	want, _ := core.NewFamily(testCfg, seed, copies)
	want.Update(2, 300)
	if !want.Equal(got) {
		t.Fatal("coalesced batch differs from net-effect family")
	}
}

// TestDigestCacheDisabledForUnpackableShape: there is no per-element
// fallback for shapes with s > 58 any more; ingest.New rejects them, so
// every engine it builds runs on the digest path.
func TestDigestCacheDisabledForUnpackableShape(t *testing.T) {
	wide := core.Config{Buckets: 32, SecondLevel: 64, FirstWise: 4}
	e, err := New(wide, 2, 4, Options{Workers: 2, BatchSize: 16})
	if err == nil {
		e.Close()
		t.Fatal("ingest.New accepted s = 64")
	}
	if !strings.Contains(err.Error(), "exceeds 58") {
		t.Fatalf("ingest.New at s = 64 gave %v, want an error naming the cap of 58", err)
	}
}
