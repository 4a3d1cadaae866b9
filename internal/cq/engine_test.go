package cq

import (
	"testing"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/expr"
	"setsketch/internal/obs"
)

func mustQuery(t testing.TB, src string) *core.Query {
	t.Helper()
	q, err := core.CompileQuery(expr.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// fakeClock is an injectable window clock.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func testEngine(t testing.TB, clk *fakeClock, maxGroups int) *Engine {
	t.Helper()
	e, err := NewEngine(Options{
		NewFamily: testNewFam,
		MaxGroups: maxGroups,
		Now:       clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetObservability(obs.NewRegistry(), nil)
	return e
}

func register(t testing.TB, e *Engine, stmt string) *View {
	t.Helper()
	st, err := ParseStatement(stmt)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Register(*st.Create)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEngineRegisterDrop(t *testing.T) {
	e := testEngine(t, newFakeClock(), 0)
	register(t, e, "CREATE VIEW v1 AS a | b")
	register(t, e, "CREATE VIEW v2 AS c WINDOW 5m SLIDE 1m GROUP BY tenant")

	if _, err := e.Register(ViewSpec{Name: "v1", Expr: "a"}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := e.Register(ViewSpec{Name: "bad name", Expr: "a"}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	stmts := e.Statements()
	if len(stmts) != 2 || stmts[0] != "CREATE VIEW v1 AS (a | b)" {
		t.Fatalf("statements %q", stmts)
	}
	if e.View("v1") == nil || e.View("nope") != nil {
		t.Fatal("View lookup broken")
	}
	if !e.Drop("v1") || e.Drop("v1") {
		t.Fatal("Drop not idempotent-correct")
	}
	if got := len(e.Specs()); got != 1 {
		t.Fatalf("%d specs after drop", got)
	}
}

func TestEngineUngroupedObserveEvaluate(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 0)
	v := register(t, e, "CREATE VIEW v AS a | b WINDOW 5m SLIDE 1m")

	for i := 0; i < 500; i++ {
		stream := "a"
		if i%2 == 0 {
			stream = "b"
		}
		if err := observe(e, stream, uint64(i%300), 1); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Evaluate(v, 0.1, core.EstimateOptions{})
	if len(res) != 1 || res[0].Group != "" {
		t.Fatalf("results %+v", res)
	}
	if res[0].Err != "" {
		t.Fatalf("evaluate error: %s", res[0].Err)
	}
	// Reference: same updates into plain families, same estimator.
	fams := map[string]*core.Family{"a": mustFam(t), "b": mustFam(t)}
	for i := 0; i < 500; i++ {
		stream := "a"
		if i%2 == 0 {
			stream = "b"
		}
		fams[stream].Update(uint64(i%300), 1)
	}
	q := mustQuery(t, "a | b")
	want, err := q.Estimate(fams, 0.1, true, core.EstimateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Est.Value != want.Value {
		t.Fatalf("engine estimate %v != reference %v", res[0].Est.Value, want.Value)
	}
}

// A referenced stream with no in-window state evaluates as an empty
// set (not an error): after eviction, never-seen and aged-out are the
// same thing.
func TestEngineMissingStreamIsEmptySet(t *testing.T) {
	e := testEngine(t, newFakeClock(), 0)
	v := register(t, e, "CREATE VIEW v AS a & b WINDOW 5m SLIDE 1m")
	for i := 0; i < 50; i++ {
		if err := observe(e, "a", uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Evaluate(v, 0.1, core.EstimateOptions{})
	if len(res) != 1 || res[0].Err != "" {
		t.Fatalf("want clean result, got %+v", res)
	}
	if res[0].Est.Value != 0 {
		t.Fatalf("a ∩ ∅ estimated %v", res[0].Est.Value)
	}
	// The backfill must never leak the shared empty family into live
	// bucket state: observing b afterwards starts from true empty.
	if err := observe(e, "b", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := observe(e, "b", 1, -1); err != nil {
		t.Fatal(err)
	}
	res = e.Evaluate(v, 0.1, core.EstimateOptions{})
	if res[0].Err != "" || res[0].Est.Value != 0 {
		t.Fatalf("after b touch: %+v", res[0])
	}
	ref := mustFam(t)
	st := v.groups.Get("")
	merged, err := st.ring.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if !merged["b"].Equal(ref) {
		t.Fatal("shared empty family was mutated by live updates")
	}
	if !e.empty.Equal(ref) {
		t.Fatal("engine's shared empty family is no longer empty")
	}
}

func TestEngineGroupRouting(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 0)
	v := register(t, e, "CREATE VIEW v AS logins WINDOW 5m SLIDE 1m GROUP BY tenant")

	for i := 0; i < 100; i++ {
		if err := observe(e, "acme:logins", uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := observe(e, "globex:logins", uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Streams no view reads, wrong logical names, and bare names must
	// not create groups.
	if err := observe(e, "acme:payments", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := observe(e, "logins", 1, 1); err != nil {
		t.Fatal(err)
	}
	res := e.Evaluate(v, 0.1, core.EstimateOptions{})
	if len(res) != 2 || res[0].Group != "acme" || res[1].Group != "globex" {
		t.Fatalf("groups %+v", res)
	}
	for _, r := range res {
		if r.Err != "" {
			t.Fatalf("group %q: %s", r.Group, r.Err)
		}
	}
	if res[0].Est.Value < res[1].Est.Value {
		t.Fatalf("acme (100 distinct) estimated below globex (10): %+v", res)
	}
}

func TestEngineGroupEvictionLRU(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 2)
	v := register(t, e, "CREATE VIEW v AS s WINDOW 5m SLIDE 1m GROUP BY k")

	ev0 := e.met.groupEvictions.Value()
	observe(e, "g1:s", 1, 1)
	observe(e, "g2:s", 2, 1)
	observe(e, "g1:s", 3, 1) // refresh g1: g2 is now least recent
	observe(e, "g3:s", 4, 1) // evicts g2
	if got := e.met.groupEvictions.Value() - ev0; got != 1 {
		t.Fatalf("evictions %d", got)
	}
	res := e.Evaluate(v, 0.1, core.EstimateOptions{})
	if len(res) != 2 || res[0].Group != "g1" || res[1].Group != "g3" {
		t.Fatalf("live groups %+v", res)
	}
	// A reappearing key starts from empty state.
	observe(e, "g2:s", 9, 1)
	res = e.Evaluate(v, 0.1, core.EstimateOptions{})
	var g2 *GroupResult
	for i := range res {
		if res[i].Group == "g2" {
			g2 = &res[i]
		}
	}
	if g2 == nil || g2.Err != "" {
		t.Fatalf("g2 after reappearance: %+v", res)
	}
	if g2.Est.Value > 2 {
		t.Fatalf("reappeared group did not start fresh: estimate %v", g2.Est.Value)
	}
}

func TestEngineVersionStamps(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 0)
	v := register(t, e, "CREATE VIEW v AS a WINDOW 3m SLIDE 1m")

	v0 := v.Version()
	observe(e, "a", 1, 1)
	if v.Version() == v0 {
		t.Fatal("observe did not bump version")
	}
	v1 := v.Version()

	// Rotation over empty buckets changes nothing visible.
	clk.Advance(time.Minute)
	e.RotateAll(clk.Now())
	if v.Version() != v1 {
		t.Fatal("empty rotation bumped version")
	}
	// Rotation that evicts the only non-empty bucket does.
	clk.Advance(10 * time.Minute)
	e.RotateAll(clk.Now())
	if v.Version() == v1 {
		t.Fatal("eviction did not bump version")
	}
}

func TestEngineRotateAllEvicts(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 0)
	v := register(t, e, "CREATE VIEW v AS a WINDOW 2m SLIDE 1m")
	observe(e, "a", 7, 1)

	res := e.Evaluate(v, 0.1, core.EstimateOptions{})
	if res[0].Err != "" || res[0].Est.Value == 0 {
		t.Fatalf("pre-eviction %+v", res)
	}
	clk.Advance(5 * time.Minute)
	e.RotateAll(clk.Now())
	res = e.Evaluate(v, 0.1, core.EstimateOptions{})
	if res[0].Err != "" {
		t.Fatalf("post-eviction %+v", res)
	}
	if res[0].Est.Value != 0 {
		t.Fatalf("window aged out but estimate %v", res[0].Est.Value)
	}
}

func TestEngineCounts(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 0)
	register(t, e, "CREATE VIEW v1 AS a WINDOW 5m SLIDE 1m")
	register(t, e, "CREATE VIEW v2 AS s WINDOW 5m SLIDE 1m GROUP BY k")

	observe(e, "a", 1, 1)
	observe(e, "t1:s", 1, 1)
	observe(e, "t2:s", 1, 1)

	views, buckets, groups := e.Counts()
	if views != 2 {
		t.Fatalf("views %d", views)
	}
	if buckets != 3 { // v1's one live bucket + one per live group of v2
		t.Fatalf("buckets %d", buckets)
	}
	if groups != 2 {
		t.Fatalf("groups %d", groups)
	}
}

func TestEngineMetricsCounters(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 0)
	register(t, e, "CREATE VIEW v AS a WINDOW 2m SLIDE 1m")

	observe(e, "a", 1, 1)
	observe(e, "a", 2, 1)
	if got := e.met.updates.Value(); got != 2 {
		t.Fatalf("cq_view_updates_total %d", got)
	}
	clk.Advance(time.Minute)
	e.RotateAll(clk.Now())
	if got := e.met.windowRotations.Value(); got == 0 {
		t.Fatal("cq_window_rotations_total stayed 0")
	}
	clk.Advance(10 * time.Minute)
	e.RotateAll(clk.Now())
	if got := e.met.windowEvictions.Value(); got == 0 {
		t.Fatal("cq_window_evictions_total stayed 0")
	}
}

// Grouped windowed observation must equal the windowed reference per
// group — groups are fully independent rings.
func TestEngineGroupedWindowDifferential(t *testing.T) {
	clk := newFakeClock()
	e := testEngine(t, clk, 0)
	v := register(t, e, "CREATE VIEW v AS s WINDOW 3m SLIDE 1m GROUP BY k")

	start := clk.Now()
	var byGroup = map[string][]timedUpdate{}
	for i := 0; i < 300; i++ {
		clk.Advance(2 * time.Second)
		g := "g1"
		if i%3 == 0 {
			g = "g2"
		}
		u := timedUpdate{at: clk.Now(), stream: "s", elem: uint64(i % 53), delta: 1}
		byGroup[g] = append(byGroup[g], u)
		if err := observe(e, g+":s", u.elem, u.delta); err != nil {
			t.Fatal(err)
		}
	}
	_ = start
	e.RotateAll(clk.Now())
	spec := v.Spec()
	for g, ups := range byGroup {
		st := v.groups.Get(g)
		if st == nil {
			t.Fatalf("group %q missing", g)
		}
		merged, err := st.ring.Merged()
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFams(t, spec, clk.Now(), ups)
		for name, f := range want {
			if got, ok := merged[name]; !ok || !got.Equal(f) {
				t.Fatalf("group %q stream %q differs from reference", g, name)
			}
		}
	}
}

// An all-time view holds no state: updates to its streams never reach
// the engine's rings, and EvaluateFamilies estimates it over the
// embedder's families — per group by the same split rule that routes
// windowed updates, with absent streams backfilled as empty sets, and
// unbounded by MaxGroups (1 here), since an all-time group frees nothing.
func TestEngineAllTimeViewsHoldNoState(t *testing.T) {
	e := testEngine(t, newFakeClock(), 1)
	flat := register(t, e, "CREATE VIEW flat AS a - b")
	per := register(t, e, "CREATE VIEW per AS s | u GROUP BY k")

	fams := map[string]*core.Family{}
	for _, name := range []string{"a", "g1:s", "g1:u", "g2:s", "g3:x", "s"} {
		fams[name] = mustFam(t)
		for i := 0; i < 40+len(name); i++ {
			fams[name].Update(uint64(i*7+len(name)), 1)
			if err := observe(e, name, uint64(i), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.MergeDelta(name, fams[name]); err != nil {
			t.Fatal(err)
		}
	}
	if views, buckets, groups := e.Counts(); views != 2 || buckets != 0 || groups != 0 {
		t.Fatalf("counts %d views, %d buckets, %d groups", views, buckets, groups)
	}
	if n := e.met.updates.Value(); n != 0 || len(e.Evaluate(per, 0.1, core.EstimateOptions{})) != 0 {
		t.Fatalf("all-time views took %d updates into ring state", n)
	}

	want := func(q string, fs map[string]*core.Family) float64 {
		t.Helper()
		for _, name := range expr.Streams(expr.MustParse(q)) {
			if fs[name] == nil {
				fs[name] = mustFam(t)
			}
		}
		est, err := mustQuery(t, q).Estimate(fs, 0.1, true, core.EstimateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return est.Value
	}
	res := e.EvaluateFamilies(flat, fams, 0.1, core.EstimateOptions{})
	if len(res) != 1 || res[0].Group != "" || res[0].Err != "" {
		t.Fatalf("flat: %+v", res)
	}
	if w := want("a - b", map[string]*core.Family{"a": fams["a"]}); res[0].Est.Value != w || w == 0 {
		t.Fatalf("flat estimate %v, reference %v", res[0].Est.Value, w)
	}
	if _, ok := fams["b"]; ok {
		t.Fatal("backfill wrote into the caller's map")
	}
	res = e.EvaluateFamilies(per, fams, 0.1, core.EstimateOptions{})
	if len(res) != 2 || res[0].Group != "g1" || res[1].Group != "g2" {
		t.Fatalf("per groups %+v", res)
	}
	for _, r := range res {
		ref := map[string]*core.Family{"s": fams[r.Group+":s"]}
		if f := fams[r.Group+":u"]; f != nil {
			ref["u"] = f
		}
		if w := want("s | u", ref); r.Err != "" || r.Est.Value != w {
			t.Fatalf("group %q: %+v, reference %v", r.Group, r, w)
		}
	}
}

func TestEngineRequiresNewFamily(t *testing.T) {
	if _, err := NewEngine(Options{}); err == nil {
		t.Fatal("NewEngine accepted nil NewFamily")
	}
}
