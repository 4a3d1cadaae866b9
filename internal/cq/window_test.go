package cq

import (
	"testing"
	"time"

	"setsketch/internal/core"
)

var testCfg = core.Config{Buckets: 61, SecondLevel: 16, FirstWise: 8}

func testNewFam() (*core.Family, error) {
	return core.NewFamily(testCfg, 42, 64)
}

func mustFam(t testing.TB) *core.Family {
	t.Helper()
	f, err := testNewFam()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// probe computes the test coins' digests: a digest depends only on the
// coins, so any aligned family serves.
var probe = func() *core.Family {
	f, err := testNewFam()
	if err != nil {
		panic(err)
	}
	return f
}()

// observeRing applies one raw update to a ring's current bucket
// through its digest, as the coordinator's batch path does.
func observeRing(r *Ring, stream string, elem uint64, delta int64) error {
	return r.ObserveDigest(stream, probe.Digest(elem), delta)
}

// observe routes one raw update through the engine by its digest.
func observe(e *Engine, stream string, elem uint64, delta int64) error {
	return e.ObserveDigest(stream, probe.Digest(elem), delta)
}

// timedUpdate is one update with its arrival time, replayed both into
// the ring and into the from-scratch reference.
type timedUpdate struct {
	at     time.Time
	stream string
	elem   uint64
	delta  int64
}

// referenceFams builds from-scratch families from only the updates
// still inside the window that a ring rotated to `now` covers: the
// current bucket's interval plus the N−1 before it.
func referenceFams(t testing.TB, spec ViewSpec, now time.Time, ups []timedUpdate) map[string]*core.Family {
	t.Helper()
	out := make(map[string]*core.Family)
	var lo time.Time
	windowed := spec.Windowed()
	if windowed {
		lo = now.Truncate(spec.Slide).Add(-time.Duration(spec.Buckets()-1) * spec.Slide)
	}
	for _, u := range ups {
		if u.at.After(now) {
			continue
		}
		if windowed && u.at.Truncate(spec.Slide).Before(lo) {
			continue
		}
		f, ok := out[u.stream]
		if !ok {
			f = mustFam(t)
			out[u.stream] = f
		}
		f.Update(u.elem, u.delta)
	}
	return out
}

// checkDifferential replays updates (already time-sorted) through a
// ring, rotating as the clock advances, then asserts the merged window
// families are bit-identical to the from-scratch reference at several
// checkpoints — including ones far past the last update, where every
// bucket has been evicted.
func checkDifferential(t testing.TB, spec ViewSpec, start time.Time, ups []timedUpdate, checkpoints []time.Time) {
	t.Helper()
	r := NewRing(spec, start, testNewFam)
	i := 0
	for _, now := range checkpoints {
		for i < len(ups) && !ups[i].at.After(now) {
			r.RotateTo(ups[i].at)
			if err := observeRing(r, ups[i].stream, ups[i].elem, ups[i].delta); err != nil {
				t.Fatal(err)
			}
			i++
		}
		r.RotateTo(now)
		got, err := r.Merged()
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFams(t, spec, now, ups)
		if len(got) < len(want) {
			t.Fatalf("at %v: merged has %d streams, reference %d", now, len(got), len(want))
		}
		for name, g := range got {
			w, ok := want[name]
			if !ok {
				// The ring may retain an all-zero family (created then
				// aged to empty content); it must equal an empty one.
				w = mustFam(t)
			}
			if !g.Equal(w) {
				t.Fatalf("at %v: stream %q: merged family differs from from-scratch reference", now, name)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Fatalf("at %v: stream %q missing from merged window", now, name)
			}
		}
	}
}

func TestWindowDifferentialSliding(t *testing.T) {
	spec := ViewSpec{Name: "v", Expr: "a | b", Window: 5 * time.Minute, Slide: time.Minute}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1_700_000_000, 0)
	var ups []timedUpdate
	for i := 0; i < 600; i++ {
		at := start.Add(time.Duration(i) * 2 * time.Second)
		stream := "a"
		if i%3 == 0 {
			stream = "b"
		}
		delta := int64(1)
		if i%7 == 0 {
			delta = -1 // deletions ride the same linear path
		}
		ups = append(ups, timedUpdate{at: at, stream: stream, elem: uint64(i % 97), delta: delta})
	}
	var checks []time.Time
	for m := 0; m <= 25; m++ {
		checks = append(checks, start.Add(time.Duration(m)*time.Minute+17*time.Second))
	}
	// Far future: everything evicted.
	checks = append(checks, start.Add(2*time.Hour))
	checkDifferential(t, spec, start, ups, checks)
}

func TestWindowDifferentialTumbling(t *testing.T) {
	spec := ViewSpec{Name: "v", Expr: "a", Window: time.Minute}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1_700_000_000, 30)
	var ups []timedUpdate
	for i := 0; i < 200; i++ {
		ups = append(ups, timedUpdate{
			at:     start.Add(time.Duration(i) * 5 * time.Second),
			stream: "a", elem: uint64(i), delta: 1,
		})
	}
	var checks []time.Time
	for s := 0; s <= 1100; s += 37 {
		checks = append(checks, start.Add(time.Duration(s)*time.Second))
	}
	checkDifferential(t, spec, start, ups, checks)
}

// Digest updates must land exactly like raw updates: a digest is just
// the precomputed hash row of the same linear counter update, so the
// digest-fed window equals the reference built with Family.Update.
func TestRingDigestMatchesRaw(t *testing.T) {
	spec := ViewSpec{Name: "v", Expr: "a", Window: 4 * time.Minute, Slide: time.Minute}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1_700_000_000, 0)
	dig := NewRing(spec, start, testNewFam)
	var ups []timedUpdate
	for i := 0; i < 300; i++ {
		u := timedUpdate{at: start.Add(time.Duration(i) * time.Second), stream: "a", elem: uint64(i % 50), delta: 1}
		ups = append(ups, u)
		dig.RotateTo(u.at)
		if err := dig.ObserveDigest("a", probe.Digest(u.elem), u.delta); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dig.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if !got["a"].Equal(referenceFams(t, spec, ups[len(ups)-1].at, ups)["a"]) {
		t.Fatal("digest-fed ring differs from raw-fed reference")
	}
}

// MergeDelta must be equivalent to applying the delta's updates
// directly into the same bucket.
func TestRingMergeDelta(t *testing.T) {
	spec := ViewSpec{Name: "v", Expr: "a", Window: 2 * time.Minute, Slide: time.Minute}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1_700_000_000, 0)
	r := NewRing(spec, start, testNewFam)
	delta := mustFam(t)
	ref := mustFam(t)
	for i := 0; i < 40; i++ {
		delta.Update(uint64(i), 2)
		ref.Update(uint64(i), 2)
	}
	if err := r.MergeDelta("a", delta); err != nil {
		t.Fatal(err)
	}
	got, err := r.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if !got["a"].Equal(ref) {
		t.Fatal("merged delta differs from direct updates")
	}
}

// The merged estimate itself must be identical, not merely the
// counters: the whole point of the linearity argument.
func TestWindowEstimateMatchesReference(t *testing.T) {
	spec := ViewSpec{Name: "v", Expr: "a | b", Window: 3 * time.Minute, Slide: time.Minute}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	q := mustQuery(t, spec.Expr)
	start := time.Unix(1_700_000_000, 0)
	r := NewRing(spec, start, testNewFam)
	var ups []timedUpdate
	for i := 0; i < 400; i++ {
		stream := "a"
		if i%2 == 0 {
			stream = "b"
		}
		u := timedUpdate{at: start.Add(time.Duration(i) * time.Second), stream: stream, elem: uint64(i % 131), delta: 1}
		ups = append(ups, u)
		r.RotateTo(u.at)
		if err := observeRing(r, u.stream, u.elem, u.delta); err != nil {
			t.Fatal(err)
		}
	}
	now := ups[len(ups)-1].at
	r.RotateTo(now)
	merged, err := r.Merged()
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceFams(t, spec, now, ups)
	var opts core.EstimateOptions
	got, err := q.Estimate(merged, 0.1, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Estimate(ref, 0.1, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Fatalf("windowed estimate %v != reference %v", got.Value, want.Value)
	}
}

// FuzzWindowDifferential drives a ring with fuzzer-chosen updates and
// clock steps and checks bit-identity against the reference at the
// final instant.
func FuzzWindowDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(5), uint8(1))
	f.Add([]byte{0xff, 0x00, 0x80, 0x21}, uint8(3), uint8(3))
	f.Add([]byte{9}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, script []byte, windowMin, slideMin uint8) {
		w := time.Duration(windowMin%16+1) * time.Minute
		s := time.Duration(slideMin%16+1) * time.Minute
		if w%s != 0 {
			t.Skip()
		}
		spec := ViewSpec{Name: "v", Expr: "a | b", Window: w, Slide: s}
		if err := spec.Validate(); err != nil {
			t.Skip()
		}
		start := time.Unix(1_700_000_000, 0)
		r := NewRing(spec, start, testNewFam)
		now := start
		var ups []timedUpdate
		for _, b := range script {
			// High bits advance the clock (0–3 slides plus a remainder);
			// low bits choose stream/element/sign.
			now = now.Add(time.Duration(b>>6) * s).Add(time.Duration(b&0x0f) * 7 * time.Second)
			stream := "a"
			if b&0x10 != 0 {
				stream = "b"
			}
			delta := int64(1)
			if b&0x20 != 0 {
				delta = -1
			}
			u := timedUpdate{at: now, stream: stream, elem: uint64(b % 37), delta: delta}
			ups = append(ups, u)
			r.RotateTo(u.at)
			if err := observeRing(r, u.stream, u.elem, u.delta); err != nil {
				t.Fatal(err)
			}
		}
		r.RotateTo(now)
		got, err := r.Merged()
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFams(t, spec, now, ups)
		for name, g := range got {
			w, ok := want[name]
			if !ok {
				w = mustFam(t)
			}
			if !g.Equal(w) {
				t.Fatalf("stream %q: merged differs from reference", name)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Fatalf("stream %q missing from merged", name)
			}
		}
	})
}
