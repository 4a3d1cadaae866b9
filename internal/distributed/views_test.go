package distributed

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"setsketch/internal/datagen"
	"setsketch/internal/obs"
)

func mustCreateView(t *testing.T, c *Coordinator, stmt string) {
	t.Helper()
	if _, err := c.CreateView(stmt); err != nil {
		t.Fatalf("CreateView(%q): %v", stmt, err)
	}
}

func TestCreateDropListViews(t *testing.T) {
	c, _ := NewCoordinator(testCoins)
	mustCreateView(t, c, "CREATE VIEW ab AS A | B")
	mustCreateView(t, c, "CREATE VIEW per AS logins WINDOW 5m SLIDE 1m GROUP BY tenant EMIT ISTREAM")

	if _, err := c.CreateView("CREATE VIEW ab AS A & B"); err == nil {
		t.Error("duplicate view accepted")
	}
	if _, err := c.CreateView("CREATE VIEW bad AS A &"); err == nil {
		t.Error("malformed expression accepted")
	}
	if _, err := c.CreateView("DROP VIEW ab"); err == nil {
		t.Error("CreateView accepted a DROP statement")
	}

	stmts := c.ViewStatements()
	want := []string{
		"CREATE VIEW ab AS (A | B)",
		"CREATE VIEW per AS logins WINDOW 5m SLIDE 1m GROUP BY tenant EMIT ISTREAM",
	}
	if strings.Join(stmts, "\n") != strings.Join(want, "\n") {
		t.Fatalf("catalog:\n%s\nwant:\n%s", strings.Join(stmts, "\n"), strings.Join(want, "\n"))
	}
	if err := c.DropView("ab"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropView("ab"); err == nil {
		t.Error("double drop accepted")
	}
	if got := c.ViewStatements(); len(got) != 1 || !strings.Contains(got[0], "per") {
		t.Fatalf("catalog after drop: %v", got)
	}
}

// TestWatchViewRounds: an all-time view estimates exactly what an
// ad-hoc query of its expression reports, whether it was created
// before the traffic or after it: it reads the coordinator's families,
// which hold the streams' whole history.
func TestWatchViewRounds(t *testing.T) {
	c, _ := NewCoordinator(testCoins)
	mustCreateView(t, c, "CREATE VIEW va AS A")
	var ups []datagen.Update
	for i := 0; i < 3000; i++ {
		ups = append(ups, datagen.Update{Stream: "A", Elem: uint64(i * 131), Delta: 1})
	}
	if err := c.ApplyUpdates("edge", ups); err != nil {
		t.Fatal(err)
	}
	mustCreateView(t, c, "CREATE VIEW late AS A")
	if err := c.ApplyUpdates("edge", inserts("A", 1<<40)); err != nil {
		t.Fatal(err)
	}
	w, err := c.Watch(WatchSpec{Views: []string{"va", "late"}, Eps: 0.2, EveryUpdates: 1 << 60, Buffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c.Tick()
	adhoc, err := c.Estimate("A", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if adhoc.Value < 2000 {
		t.Fatalf("ad-hoc estimate %v for 3001 distinct elements", adhoc.Value)
	}
	for _, view := range []string{"va", "late"} {
		res := <-w.C
		if res.View != view || res.Group != "" || res.Err != "" {
			t.Fatalf("unexpected result: %+v", res)
		}
		if res.Est != adhoc {
			t.Errorf("view %s estimate %+v, ad-hoc estimate %+v", view, res.Est, adhoc)
		}
	}
}

// TestWatchAllTimeViewRoundSkip: a watcher on all-time views skips a
// round in which nothing it reads changed, and never one after an
// update to a referenced stream, a new group's first stream, or a
// change to the view catalog.
func TestWatchAllTimeViewRoundSkip(t *testing.T) {
	reg := obs.NewRegistry()
	c, _ := NewCoordinator(testCoins)
	c.SetObservability(reg, nil)
	skipped := reg.Counter("watch_rounds_skipped_total", "")
	mustCreateView(t, c, "CREATE VIEW ab AS A | B")
	mustCreateView(t, c, "CREATE VIEW per AS L GROUP BY tenant")
	watch := func(view string) *Watcher {
		w, err := c.Watch(WatchSpec{Views: []string{view}, Eps: 0.2, EveryUpdates: 1 << 60, Buffer: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		return w
	}
	flat, grouped := watch("ab"), watch("per")
	apply := func(stream string, elem uint64) {
		t.Helper()
		if err := c.ApplyUpdates("edge", inserts(stream, elem)); err != nil {
			t.Fatal(err)
		}
	}
	drain := func(w *Watcher) int {
		for n := 0; ; n++ {
			select {
			case res := <-w.C:
				if res.Err != "" {
					t.Fatalf("round error: %+v", res)
				}
			default:
				return n
			}
		}
	}
	round := func(step string, wantSkipped uint64, wantFlat, wantGrouped int) {
		t.Helper()
		before := skipped.Value()
		c.Tick()
		if got := skipped.Value() - before; got != wantSkipped {
			t.Errorf("%s: %d rounds skipped, want %d", step, got, wantSkipped)
		}
		if got := drain(flat); got != wantFlat {
			t.Errorf("%s: ungrouped view delivered %d results, want %d", step, got, wantFlat)
		}
		if got := drain(grouped); got != wantGrouped {
			t.Errorf("%s: grouped view delivered %d results, want %d", step, got, wantGrouped)
		}
	}
	apply("A", 1)
	apply("B", 2)
	apply("acme:L", 3)
	round("first round", 0, 1, 1)
	round("nothing changed", 2, 0, 0)
	apply("X", 4) // no view reads X; the grouped stamp is the whole state's
	round("unread stream", 1, 0, 1)
	apply("A", 5)
	round("referenced stream", 0, 1, 1)
	round("nothing changed again", 2, 0, 0)
	apply("globex:L", 6)
	round("new group", 1, 0, 2)
	if err := c.DropView("ab"); err != nil {
		t.Fatal(err)
	}
	mustCreateView(t, c, "CREATE VIEW ab AS A & B")
	round("view re-created", 0, 1, 2)
}

// TestAllTimeViewsTakeNoViewPath: with only all-time views registered,
// batches and deltas never take vmu and never reach the view engine:
// each update is applied once, to the coordinator's own family. A
// windowed view turns the view path back on.
func TestAllTimeViewsTakeNoViewPath(t *testing.T) {
	reg := obs.NewRegistry()
	c, _ := NewCoordinator(testCoins)
	c.SetObservability(reg, nil)
	mustCreateView(t, c, "CREATE VIEW a1 AS A")
	mustCreateView(t, c, "CREATE VIEW a2 AS A | B")
	mustCreateView(t, c, "CREATE VIEW per AS L GROUP BY tenant")
	if c.hasWindows.Load() {
		t.Fatal("all-time views turned the window path on")
	}
	var ups []datagen.Update
	for i := 0; i < 200; i++ {
		ups = append(ups, datagen.Update{Stream: "A", Elem: uint64(i), Delta: 1},
			datagen.Update{Stream: "acme:L", Elem: uint64(i), Delta: 1})
	}
	delta, _ := testCoins.NewFamily()
	delta.Insert(7)
	done := make(chan error, 1)
	c.vmu.Lock() // a batch that wanted the view path would block here
	go func() {
		err := c.ApplyUpdates("edge", ups)
		if err == nil {
			err = c.ApplyDelta("edge", "B", delta, 1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		c.vmu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		c.vmu.Unlock()
		t.Fatal("a batch waited for vmu with only all-time views registered")
	}
	// 200 distinct elements: one counter update each, read by two views.
	stamp := make([]uint64, 1)
	if c.streamVersions([]string{"A"}, stamp); stamp[0] != 1+200 {
		t.Errorf("stream A took %d counter updates for 200 distinct elements", stamp[0]-1)
	}
	if n := reg.Counter("cq_view_updates_total", "").Value(); n != 0 {
		t.Errorf("cq_view_updates_total = %d", n)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"cq_views 3", "cq_window_buckets 0", "cq_groups 0"} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition lacks %q", line)
		}
	}
	mustCreateView(t, c, "CREATE VIEW recent AS A WINDOW 1m")
	if !c.hasWindows.Load() {
		t.Fatal("a windowed view left the window path off")
	}
	if err := c.DropView("recent"); err != nil {
		t.Fatal(err)
	}
	if c.hasWindows.Load() {
		t.Fatal("dropping the only windowed view left the window path on")
	}
}

// TestWatchViewMissingStream: a view over a stream that has never
// appeared evaluates as the empty set, not an error.
func TestWatchViewMissingStream(t *testing.T) {
	c, _ := NewCoordinator(testCoins)
	mustCreateView(t, c, "CREATE VIEW ghost AS NeverSeen")
	w, err := c.Watch(WatchSpec{Views: []string{"ghost"}, EveryUpdates: 1 << 60, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c.Tick()
	res := <-w.C
	if res.Err != "" {
		t.Fatalf("missing stream should be empty set, got error %q", res.Err)
	}
	if res.Est.Value != 0 {
		t.Errorf("empty view estimated %v, want 0", res.Est.Value)
	}
}

// TestWatchViewGroupedISTREAM drives two tenants through a grouped
// ISTREAM view: the first round emits both groups, a round after
// updates to only one tenant emits only that group, and an unchanged
// round emits nothing.
func TestWatchViewGroupedISTREAM(t *testing.T) {
	c, _ := NewCoordinator(testCoins)
	mustCreateView(t, c, "CREATE VIEW per AS logins GROUP BY tenant EMIT ISTREAM")
	w, err := c.Watch(WatchSpec{Views: []string{"per"}, Eps: 0.2, EveryUpdates: 1 << 60, Buffer: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	feed := func(tenant string, base, n int) {
		t.Helper()
		var ups []datagen.Update
		for i := 0; i < n; i++ {
			ups = append(ups, datagen.Update{Stream: tenant + ":logins", Elem: uint64(base + i), Delta: 1})
		}
		if err := c.ApplyUpdates("edge", ups); err != nil {
			t.Fatal(err)
		}
	}
	feed("acme", 0, 200)
	feed("globex", 1000, 120)

	c.Tick()
	got := map[string]WatchResult{}
	for i := 0; i < 2; i++ {
		res := <-w.C
		got[res.Group] = res
	}
	for _, g := range []string{"acme", "globex"} {
		res, ok := got[g]
		if !ok {
			t.Fatalf("no first-round result for group %q (got %v)", g, got)
		}
		if res.Err != "" || res.Est.Value <= 0 || res.Delta != res.Est.Value {
			t.Errorf("group %q first emit: %+v", g, res)
		}
	}

	// Only acme changes: the next round must emit acme alone, with the
	// delta of the change.
	prevAcme := got["acme"].Est.Value
	feed("acme", 5000, 150)
	c.Tick()
	res := <-w.C
	if res.Group != "acme" || res.Err != "" {
		t.Fatalf("second round: %+v", res)
	}
	if res.Delta != res.Est.Value-prevAcme {
		t.Errorf("delta %v, want %v", res.Delta, res.Est.Value-prevAcme)
	}
	select {
	case extra := <-w.C:
		t.Fatalf("unchanged group emitted: %+v", extra)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestViewCatalogWALRecovery is the continuous-query half of the core
// durability property: after a crash (no clean close, fsynced appends
// only) the recovered coordinator has the identical view catalog, and
// an unwindowed view's contents — rebuilt from replayed updates —
// estimate identically.
func TestViewCatalogWALRecovery(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewCoordinator(testCoins)
	l1 := openTestLog(t, dir)
	c1.AttachWAL(l1)

	mustCreateView(t, c1, "CREATE VIEW va AS A | B")
	mustCreateView(t, c1, "CREATE VIEW dropped AS A")
	mustCreateView(t, c1, "CREATE VIEW per AS logins WINDOW 10m SLIDE 2m GROUP BY tenant")
	testWorkload(t, c1)
	if err := c1.DropView("dropped"); err != nil {
		t.Fatal(err)
	}
	// No close: simulate kill -9.

	c2, _ := NewCoordinator(testCoins)
	l2 := openTestLog(t, dir)
	defer l2.Close()
	if _, err := c2.Recover(l2); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, c1, c2)
	w1, w2 := c1.ViewStatements(), c2.ViewStatements()
	if strings.Join(w1, "\n") != strings.Join(w2, "\n") {
		t.Fatalf("view catalog diverged:\n%s\nvs\n%s", strings.Join(w1, "\n"), strings.Join(w2, "\n"))
	}
	if len(w2) != 2 {
		t.Fatalf("recovered catalog: %v", w2)
	}

	// The unwindowed view's contents must estimate identically.
	viewEst := func(c *Coordinator) float64 {
		t.Helper()
		w, err := c.Watch(WatchSpec{Views: []string{"va"}, Eps: 0.1, EveryUpdates: 1 << 60, Buffer: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		c.Tick()
		res := <-w.C
		if res.Err != "" {
			t.Fatalf("view round error: %s", res.Err)
		}
		return res.Est.Value
	}
	if e1, e2 := viewEst(c1), viewEst(c2); e1 != e2 {
		t.Errorf("view estimates diverge after recovery: %v vs %v", e1, e2)
	}
	l1.Close()
}

// TestViewCatalogSnapshotRecovery: the catalog travels in the snapshot,
// and RecView records past the snapshot replay on top of it.
func TestViewCatalogSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewCoordinator(testCoins)
	l1 := openTestLog(t, dir)
	c1.AttachWAL(l1)

	mustCreateView(t, c1, "CREATE VIEW va AS A")
	mustCreateView(t, c1, "CREATE VIEW vb AS B")
	testWorkload(t, c1)
	if err := c1.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	// Catalog changes after the snapshot: replayed from the WAL suffix.
	mustCreateView(t, c1, "CREATE VIEW vc AS A & B")
	if err := c1.DropView("vb"); err != nil {
		t.Fatal(err)
	}

	c2, _ := NewCoordinator(testCoins)
	l2 := openTestLog(t, dir)
	defer l2.Close()
	rs, err := c2.Recover(l2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotSeq == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	w1, w2 := c1.ViewStatements(), c2.ViewStatements()
	if strings.Join(w1, "\n") != strings.Join(w2, "\n") {
		t.Fatalf("view catalog diverged:\n%s\nvs\n%s", strings.Join(w1, "\n"), strings.Join(w2, "\n"))
	}
	// All-time views read the recovered families, so they estimate
	// what they did before the crash: exactly their ad-hoc estimates.
	names := []string{"va", "vc"}
	if v1, v2 := viewResults(c1, names), viewResults(c2, names); !reflect.DeepEqual(v1, v2) || len(v2) != 2 {
		t.Fatalf("view estimates diverged after recovery:\n%+v\nvs\n%+v", v1, v2)
	}
	for name, expr := range map[string]string{"va": "A", "vc": "A & B"} {
		adhoc, err := c2.Estimate(expr, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if got := viewResults(c2, names)[name]; got[0].Est != adhoc || got[0].Err != "" {
			t.Errorf("view %s after recovery: %+v, ad-hoc %+v", name, got, adhoc)
		}
	}
	l1.Close()
}

// TestViewProtocolEndToEnd exercises the wire surface: create and list
// views over TCP, subscribe a watch to a grouped view, stream updates
// through a session, and receive per-group results.
func TestViewProtocolEndToEnd(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()

	admin, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.CreateView("CREATE VIEW per AS logins GROUP BY tenant"); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateView("CREATE VIEW per AS logins"); err == nil {
		t.Error("duplicate view accepted over the wire")
	}
	if err := admin.CreateView("CREATE VIEW bad AS ("); err == nil {
		t.Error("malformed statement accepted over the wire")
	}
	stmts, err := admin.ListViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 || stmts[0] != "CREATE VIEW per AS logins GROUP BY tenant" {
		t.Fatalf("ListViews: %v", stmts)
	}

	watchCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watchCli.Close()
	events, err := watchCli.Subscribe(WatchRequest{Views: []string{"per"}, Eps: 0.2, EveryUpdates: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := watchCli.Subscribe(WatchRequest{Views: []string{"nope"}, EveryUpdates: 1}); err == nil {
		t.Error("watch on unknown view accepted")
	}

	siteCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer siteCli.Close()
	sess, err := siteCli.OpenStream("edge", testCoins)
	if err != nil {
		t.Fatal(err)
	}
	var ups []datagen.Update
	for i := 0; i < 200; i++ {
		tenant := "acme"
		if i%4 == 0 {
			tenant = "globex"
		}
		ups = append(ups, datagen.Update{Stream: tenant + ":logins", Elem: uint64(i), Delta: 1})
	}
	if _, err := sess.SendUpdates(ups); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	got := map[string]WatchEvent{}
	for len(got) < 2 {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("watch stream closed early (got %v)", got)
			}
			if ev.Err != "" {
				t.Fatalf("watch error: %s", ev.Err)
			}
			if ev.View != "per" {
				t.Fatalf("unexpected event: %+v", ev)
			}
			got[ev.Group] = ev
		case <-deadline:
			t.Fatalf("timed out waiting for group results (got %v)", got)
		}
	}
	if got["acme"].Est.Value <= got["globex"].Est.Value {
		t.Errorf("acme (150 elems) should exceed globex (50): %v vs %v",
			got["acme"].Est.Value, got["globex"].Est.Value)
	}

	if err := admin.DropView("per"); err != nil {
		t.Fatal(err)
	}
	stmts, err = admin.ListViews()
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 0 {
		t.Fatalf("catalog after drop: %v", stmts)
	}
}
