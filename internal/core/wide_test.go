package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"setsketch"
	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/expr"
)

// TestWideQueryEndToEnd runs one expression over 65 streams — one more
// than the compiled program's occupancy word holds — through every
// production query path: Coordinator.Estimate, a watch, a watched
// CREATE VIEW, and Processor.RegisterContinuous. The coordinator and
// the processor each build their own families from the same updates
// and coins, so each answer must equal the interpreted reference over
// families built here, exactly.
func TestWideQueryEndToEnd(t *testing.T) {
	const streams, copies, seed, eps = 65, 32, 9, 0.2
	cfg := core.Config{Buckets: core.DefaultConfig().Buckets, SecondLevel: 8, FirstWise: 8}
	names := make([]string, streams)
	for k := range names {
		names[k] = fmt.Sprintf("s%02d", k)
	}
	// (s00 | … | s63) − s64, with deletions that cancel exactly.
	src := "(" + strings.Join(names[:streams-1], " | ") + ") - " + names[streams-1]
	var ups []datagen.Update
	for e := uint64(0); e < 3000; e++ {
		ups = append(ups, datagen.Update{Stream: names[e%(streams-1)], Elem: e, Delta: 1})
		if e%3 == 0 {
			ups = append(ups, datagen.Update{Stream: names[streams-1], Elem: e, Delta: 2})
		}
		if e%7 == 0 {
			ups = append(ups, datagen.Update{Stream: names[e%(streams-1)], Elem: e, Delta: -1})
		}
	}

	fams := make(map[string]*core.Family, streams)
	for _, name := range names {
		f, err := core.NewFamily(cfg, seed, copies)
		if err != nil {
			t.Fatal(err)
		}
		fams[name] = f
	}
	for _, u := range ups {
		fams[u.Stream].Update(u.Elem, u.Delta)
	}
	want, err := core.ReferenceEstimate(expr.MustParse(src), fams, eps, true)
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, got core.Estimate, err error) {
		t.Helper()
		if err != nil || got != want {
			t.Errorf("%s: %+v (err %v), reference %+v", path, got, err, want)
		}
	}

	coins := distributed.Coins{Config: cfg, Seed: seed, Copies: copies}
	coord, err := distributed.NewCoordinator(coins)
	if err != nil {
		t.Fatal(err)
	}
	w, err := coord.Watch(distributed.WatchSpec{Exprs: []string{src}, Eps: eps, EveryUpdates: uint64(len(ups))})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := coord.ApplyUpdates("site", ups); err != nil {
		t.Fatal(err)
	}
	got, err := coord.Estimate(src, eps)
	check("Coordinator.Estimate", got, err)
	select {
	case res := <-w.C:
		check("watch", res.Est, nil)
		if res.Err != "" {
			t.Errorf("watch: %s", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Error("watch: no round delivered")
	}

	// An all-time view created after the traffic reads the
	// coordinator's families, so it sees the whole history.
	if _, err := coord.CreateView("CREATE VIEW wide AS " + src); err != nil {
		t.Fatal(err)
	}
	vw, err := coord.Watch(distributed.WatchSpec{Views: []string{"wide"}, Eps: eps, EveryUpdates: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	defer vw.Close()
	coord.Tick()
	if res := <-vw.C; res.View != "wide" || res.Err != "" {
		t.Errorf("view: %+v", res)
	} else {
		check("view", res.Est, nil)
	}

	p, err := setsketch.NewProcessor(setsketch.Options{Copies: copies, SecondLevel: cfg.SecondLevel, FirstWise: cfg.FirstWise, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	if _, err := p.RegisterContinuous(src, eps, len(ups), func(est setsketch.Estimate, err error) {
		fired++
		check("RegisterContinuous", core.Estimate(est), err)
	}); err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		if err := p.Update(u.Stream, u.Elem, u.Delta); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 1 {
		t.Errorf("continuous query fired %d times, want 1", fired)
	}
}
