package setsketch

import (
	"bytes"
	"errors"
	"testing"

	"setsketch/internal/hashing"
)

func newInsertOnly(t testing.TB, opts Options) *InsertOnlyProcessor {
	t.Helper()
	p, err := NewInsertOnlyProcessor(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInsertOnlyMatchesCounterProcessor: on the same insert stream and
// options, estimates from the two processors are identical, at about
// 1/33 the memory.
func TestInsertOnlyMatchesCounterProcessor(t *testing.T) {
	opts := testOptions()
	counter := newProcessor(t, opts)
	bits := newInsertOnly(t, opts)
	rng := hashing.NewRNG(12)
	for i := 0; i < 3000; i++ {
		e := rng.Uint64n(1 << 28)
		stream := "A"
		if i%3 != 0 {
			stream = "B"
		}
		mustUpdate(t, counter, stream, e, 1)
		if err := bits.Insert(stream, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"A | B", "A & B", "A - B", "A ^ B"} {
		ce, cerr := counter.Estimate(q, 0.2)
		be, berr := bits.Estimate(q, 0.2)
		if (cerr == nil) != (berr == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", q, cerr, berr)
		}
		if cerr == nil && ce.Value != be.Value {
			t.Errorf("%s: counter %.2f vs bits %.2f", q, ce.Value, be.Value)
		}
	}
	cu, err := counter.EstimateUnion([]string{"A", "B"}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	bu, err := bits.EstimateUnion([]string{"A", "B"}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if cu.Value != bu.Value {
		t.Errorf("union: counter %.2f vs bits %.2f", cu.Value, bu.Value)
	}
	// s = 16: 8·61·17 B of counters against 31 words of bits per copy.
	if ratio := float64(counter.MemoryBytes()) / float64(bits.MemoryBytes()); ratio < 30 || ratio > 36 {
		t.Errorf("memory ratio %.1f, want ≈ 33", ratio)
	}
}

func TestInsertOnlyRejectsDeletions(t *testing.T) {
	p := newInsertOnly(t, Options{Copies: 8, SecondLevel: 8, FirstWise: 4, Seed: 1})
	if err := p.Insert("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("A", 1); !errors.Is(err, ErrInsertOnly) {
		t.Errorf("Delete err = %v, want ErrInsertOnly", err)
	}
	if err := p.Update("A", 1, -1); !errors.Is(err, ErrInsertOnly) {
		t.Errorf("negative Update err = %v, want ErrInsertOnly", err)
	}
	if err := p.Update("A", 1, 0); err != nil {
		t.Errorf("zero Update err = %v", err)
	}
	if err := p.Update("A", 2, 5); err != nil {
		t.Errorf("positive Update err = %v", err)
	}
	if got := p.Streams(); len(got) != 1 || got[0] != "A" {
		t.Errorf("Streams = %v", got)
	}
}

func TestInsertOnlySnapshotRestore(t *testing.T) {
	opts := Options{Copies: 64, SecondLevel: 8, FirstWise: 4, Seed: 9}
	site1 := newInsertOnly(t, opts)
	site2 := newInsertOnly(t, opts)
	whole := newInsertOnly(t, opts)
	rng := hashing.NewRNG(13)
	for i := 0; i < 2000; i++ {
		e := rng.Uint64n(1 << 24)
		if err := whole.Insert("S", e); err != nil {
			t.Fatal(err)
		}
		site := site1
		if i%2 == 0 {
			site = site2
		}
		if err := site.Insert("S", e); err != nil {
			t.Fatal(err)
		}
	}
	coord := newInsertOnly(t, opts)
	for _, site := range []*InsertOnlyProcessor{site1, site2} {
		var buf bytes.Buffer
		if err := site.Snapshot("S", &buf); err != nil {
			t.Fatal(err)
		}
		if err := coord.Restore("S", &buf); err != nil {
			t.Fatal(err)
		}
	}
	ec, err := coord.EstimateDistinct("S", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	ew, err := whole.EstimateDistinct("S", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Value != ew.Value {
		t.Errorf("distributed %v vs centralized %v", ec.Value, ew.Value)
	}
	if err := coord.Snapshot("missing", &bytes.Buffer{}); err == nil {
		t.Error("snapshot of unknown stream succeeded")
	}
	if err := coord.Restore("S", bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("restore of junk succeeded")
	}
}

func TestInsertOnlyOptionValidation(t *testing.T) {
	if _, err := NewInsertOnlyProcessor(Options{Copies: 0, SecondLevel: 8, FirstWise: 4, Seed: 1}); err == nil {
		t.Error("zero copies accepted")
	}
	if _, err := NewInsertOnlyProcessor(Options{Copies: 8, SecondLevel: 0, FirstWise: 4, Seed: 1}); err == nil {
		t.Error("zero second level accepted")
	}
	p, err := NewInsertOnlyProcessor(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Options() != DefaultOptions() {
		t.Error("zero options did not default")
	}
	if _, err := p.Estimate("A &", 0.1); err == nil {
		t.Error("garbage expression accepted")
	}
	if _, err := p.EstimateUnion([]string{"missing"}, 0.1); err == nil {
		t.Error("unknown stream accepted")
	}
}
