package distributed

import (
	"testing"

	"setsketch/internal/datagen"
	"setsketch/internal/obs"
)

// feedStream applies one insert to the named stream on the coordinator.
func feedStream(t *testing.T, coord *Coordinator, stream string, elem uint64) {
	t.Helper()
	if err := coord.ApplyUpdates("site", []datagen.Update{{Stream: stream, Elem: elem, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
}

// TestWatchRoundSkip: a watcher whose referenced families have not
// changed since its last evaluated round is skipped (no evaluation, no
// delivery), counted in watch_rounds_skipped_total; rounds where a
// referenced stream moved evaluate as before.
func TestWatchRoundSkip(t *testing.T) {
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetObservability(reg, nil)
	w, err := coord.Watch(WatchSpec{Exprs: []string{"A"}, Eps: 0.2, EveryUpdates: 1, Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	feedStream(t, coord, "A", 1) // round 1: A changed → evaluates
	feedStream(t, coord, "B", 2) // rounds 2–4: A untouched → skipped
	feedStream(t, coord, "B", 3)
	feedStream(t, coord, "B", 4)
	feedStream(t, coord, "A", 5) // round 5: A changed → evaluates

	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := counter("watch_rounds_total"); got != 2 {
		t.Errorf("watch rounds = %d, want 2", got)
	}
	if got := counter("watch_rounds_skipped_total"); got != 3 {
		t.Errorf("watch rounds skipped = %d, want 3", got)
	}
	if got := counter("watch_evaluations_total"); got != 2 {
		t.Errorf("watch evaluations = %d, want 2", got)
	}
	if got := counter("watch_results_delivered_total"); got != 2 {
		t.Errorf("results delivered = %d, want 2", got)
	}
	for i := 0; i < 2; i++ {
		res := <-w.C
		if res.Err != "" {
			t.Errorf("round %d: unexpected error %q", i, res.Err)
		}
	}
	select {
	case res := <-w.C:
		t.Errorf("unexpected extra result %+v", res)
	default:
	}
}

// TestWatchMissingStreamKeepsEvaluating: while a referenced stream has
// not appeared, every round must re-evaluate and deliver the error —
// skipping would silence the consumer's only signal.
func TestWatchMissingStreamKeepsEvaluating(t *testing.T) {
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetObservability(reg, nil)
	w, err := coord.Watch(WatchSpec{Exprs: []string{"Nope"}, Eps: 0.2, EveryUpdates: 1, Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	for i := 0; i < 3; i++ {
		feedStream(t, coord, "A", uint64(i))
	}
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := counter("watch_rounds_total"); got != 3 {
		t.Errorf("watch rounds = %d, want 3", got)
	}
	if got := counter("watch_rounds_skipped_total"); got != 0 {
		t.Errorf("watch rounds skipped = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if res := <-w.C; res.Err == "" {
			t.Errorf("round %d: want missing-stream error", i)
		}
	}
}

// TestCoordinatorCompileCache: repeated estimates of the same source
// text hit the compiled-query cache, and estimate latency lands in the
// estimate_latency_seconds histogram.
func TestCoordinatorCompileCache(t *testing.T) {
	reg := obs.NewRegistry()
	coord, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	coord.SetObservability(reg, nil)
	for i := uint64(0); i < 50; i++ {
		feedStream(t, coord, "A", i)
		feedStream(t, coord, "B", i+25)
	}
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	for i := 0; i < 3; i++ {
		if _, err := coord.Estimate("A | B", 0.2); err != nil {
			t.Fatal(err)
		}
	}
	if got := counter("coord_compile_cache_misses_total"); got != 1 {
		t.Errorf("compile misses = %d, want 1", got)
	}
	if got := counter("coord_compile_cache_hits_total"); got != 2 {
		t.Errorf("compile hits = %d, want 2", got)
	}
	if got := reg.Histogram("estimate_latency_seconds", "", nil).Count(); got != 3 {
		t.Errorf("estimate latency observations = %d, want 3", got)
	}
	// A second source text is its own cache entry.
	if _, err := coord.Estimate("A & B", 0.2); err != nil {
		t.Fatal(err)
	}
	if got := counter("coord_compile_cache_misses_total"); got != 2 {
		t.Errorf("compile misses after new text = %d, want 2", got)
	}
}
