package distributed

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

// historyCoins are testCoins' shape with few copies: the contract is
// bit-identity, which any copy count exercises, and fifty seeds of
// snapshots and recoveries stay quick.
var historyCoins = Coins{Config: testCoins.Config, Seed: testCoins.Seed, Copies: 8}

// TestViewHistoryContract pins QUERIES.md's promise that an all-time
// view covers the full stream history. Each seed interleaves raw
// batches from two sites, CREATE/DROP VIEW of ungrouped and grouped
// all-time views before and after traffic, snapshots, and in-process
// crashes (coordinator and WAL abandoned unflushed, the directory
// reopened and recovered). After every operation each all-time view
// must estimate, bit for bit, what its compiled query estimates over
// the coordinator's own families.
func TestViewHistoryContract(t *testing.T) {
	exprs := []string{
		"A",
		"A | B",
		"(A & C) - B",
		"A | Q", // Q never appears: an empty set
		"L | M GROUP BY tenant",
		"L - M GROUP BY tenant",
	}
	for seed := uint64(1); seed <= 50; seed++ {
		dir := t.TempDir()
		rng := hashing.NewRNG(seed)
		c := newReplayCoord(t, historyCoins, 0)
		l := openLog(t, dir, historyCoins)
		c.AttachWAL(l)
		var prev []datagen.Update
		var y, next int
		for op := 0; op < 24; op++ {
			switch r := rng.Intn(20); {
			case r < 10:
				prev = randomBatch(rng, 1+rng.Intn(48), 1<<10, prev, &y)
				if err := c.ApplyUpdates([]string{"s1", "s2"}[rng.Intn(2)], prev); err != nil {
					t.Fatal(err)
				}
			case r < 14:
				mustCreateView(t, c, fmt.Sprintf("CREATE VIEW v%d AS %s", next, exprs[rng.Intn(len(exprs))]))
				next++
			case r < 16:
				if views := c.Views(); len(views) > 0 {
					if err := c.DropView(views[rng.Intn(len(views))].Name); err != nil {
						t.Fatal(err)
					}
				}
			case r < 18:
				if err := c.WriteSnapshot(); err != nil {
					t.Fatal(err)
				}
			default:
				// Crash: the old log is never flushed or closed here;
				// recovery reads only what reached its files.
				crashed := l
				t.Cleanup(func() { crashed.Close() })
				c = newReplayCoord(t, historyCoins, 0)
				l = openLog(t, dir, historyCoins)
				if _, err := c.Recover(l); err != nil {
					t.Fatal(err)
				}
				c.AttachWAL(l)
			}
			checkAllTimeViews(t, c, fmt.Sprintf("seed %d op %d", seed, op))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAllTimeViews compares every all-time view's round result with
// its compiled query over the coordinator's families: an ungrouped
// view over its streams (and, when all exist, with Coordinator.Estimate
// itself), a grouped view per group over Family("⟨group⟩:⟨logical⟩").
// A referenced stream that does not exist is an empty set.
func checkAllTimeViews(t *testing.T, c *Coordinator, at string) {
	t.Helper()
	const eps = 0.1
	empty, err := c.Coins().NewFamily()
	if err != nil {
		t.Fatal(err)
	}
	copies := map[string]*core.Family{}
	family := func(name string) *core.Family {
		f, ok := copies[name]
		if !ok {
			f = c.Family(name)
			copies[name] = f
		}
		return f
	}
	for _, spec := range c.Views() {
		if spec.Windowed() {
			continue
		}
		node := expr.MustParse(spec.Expr)
		q, err := core.CompileQuery(node)
		if err != nil {
			t.Fatal(err)
		}
		streams := expr.Streams(node)
		want := map[string]map[string]*core.Family{}
		if !spec.Grouped() {
			want[""] = map[string]*core.Family{}
			for _, s := range streams {
				if f := family(s); f != nil {
					want[""][s] = f
				}
			}
		} else {
			for _, name := range c.Streams() {
				group, logical, ok := strings.Cut(name, ":")
				if !ok || group == "" || !slices.Contains(streams, logical) {
					continue
				}
				if want[group] == nil {
					want[group] = map[string]*core.Family{}
				}
				want[group][logical] = family(name)
			}
		}
		_, got, ok := c.evaluateView(spec.Name, eps)
		if !ok || len(got) != len(want) {
			t.Fatalf("%s: view %s (%s) has %d groups, want %d", at, spec.Name, spec.Expr, len(got), len(want))
		}
		for _, r := range got {
			fams := want[r.Group]
			if fams == nil {
				t.Fatalf("%s: view %s reports unknown group %q", at, spec.Name, r.Group)
			}
			present := len(fams) == len(streams)
			for _, s := range streams {
				if fams[s] == nil {
					fams[s] = empty
				}
			}
			w, err := q.Estimate(fams, eps, true, core.EstimateOptions{})
			if r.Est != w || (err == nil) != (r.Err == "") {
				t.Fatalf("%s: view %s (%s) group %q = %+v %q, want %+v %v", at, spec.Name, spec.Expr, r.Group, r.Est, r.Err, w, err)
			}
			if !spec.Grouped() && present {
				adhoc, err := c.Estimate(spec.Expr, eps)
				if err != nil || adhoc != r.Est {
					t.Fatalf("%s: view %s = %+v, ad-hoc %s = %+v %v", at, spec.Name, r.Est, spec.Expr, adhoc, err)
				}
			}
		}
	}
}
