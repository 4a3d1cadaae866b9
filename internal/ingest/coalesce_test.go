package ingest

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

var coalCoins = struct {
	cfg    core.Config
	seed   uint64
	copies int
}{core.Config{Buckets: 16, SecondLevel: 8, FirstWise: 3}, 0x5eed, 5}

// coalBatches decodes a fuzz tape into update batches, two bytes per
// update: byte 0 picks the stream (bits 0–1, three streams), the
// element (bits 2–6, a 32-element domain that forces repeats and exact
// cancellations) and, in bit 7, whether the batch ends after this
// update; byte 1 picks the delta in [−3, +4] \ {0}.
func coalBatches(tape []byte) [][]datagen.Update {
	var batches [][]datagen.Update
	var cur []datagen.Update
	for ; len(tape) >= 2; tape = tape[2:] {
		a, b := tape[0], tape[1]
		v := int64(b%8) - 3
		if v == 0 {
			v = 4
		}
		cur = append(cur, datagen.Update{Stream: string(rune('A' + a&3%3)), Elem: uint64(a >> 2 & 31), Delta: v})
		if a&0x80 != 0 {
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

func newCoalCache(size int) *DigestCache {
	if size < 0 {
		return nil
	}
	return NewDigestCache(size, coalCoins.seed, new(obs.Counter), new(obs.Counter), new(obs.Counter))
}

// applyEntries replays resolved entries into per-stream families.
func applyEntries(t *testing.T, fams map[string]*core.Family, entries []wal.DigestUpdate) {
	t.Helper()
	for _, en := range entries {
		f, ok := fams[en.Stream]
		if !ok {
			var err error
			if f, err = core.NewFamily(coalCoins.cfg, coalCoins.seed, coalCoins.copies); err != nil {
				t.Fatal(err)
			}
			fams[en.Stream] = f
		}
		f.UpdateDigest(en.Digest, en.Delta)
	}
}

// sameFamilies requires got to hold every stream of want with equal
// counters — a stream whose updates all cancelled may be absent from
// got only if want's family is empty — and no stream want lacks.
func sameFamilies(t *testing.T, label string, got, want map[string]*core.Family) {
	t.Helper()
	empty, _ := core.NewFamily(coalCoins.cfg, coalCoins.seed, coalCoins.copies)
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			g = empty
		}
		if !g.Equal(w) {
			t.Fatalf("%s: stream %q differs from direct Family.Update", label, name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Fatalf("%s: stream %q was never updated", label, name)
		}
	}
}

// FuzzCoalesce pins the one coalescer every raw-update path shares:
//   - folding one batch yields exactly wal.DigestUpdates' entries, in
//     order, digest words included;
//   - folding several batches keeps exactly the keys some batch left a
//     nonzero net delta, in first-touch order;
//   - applying the entries — one batch per fold, as the ingest engine
//     and the coordinator sessions do, and all batches in one fold
//     resolved in small chunks, as recovery does — rebuilds the
//     families direct Family.Update builds, with no cache, a thrashing
//     16-slot cache, and the engine's default cache.
func FuzzCoalesce(f *testing.F) {
	f.Fuzz(func(t *testing.T, tape []byte) {
		batches := coalBatches(tape)
		scratch, err := core.NewFamily(coalCoins.cfg, coalCoins.seed, coalCoins.copies)
		if err != nil {
			t.Fatal(err)
		}
		direct := make(map[string]*core.Family)
		for _, b := range batches {
			for _, u := range b {
				d, ok := direct[u.Stream]
				if !ok {
					d, _ = core.NewFamily(coalCoins.cfg, coalCoins.seed, coalCoins.copies)
					direct[u.Stream] = d
				}
				d.Update(u.Elem, u.Delta)
			}
		}

		// One batch: entry for entry the reference fold.
		co := NewCoalescer(coalCoins.cfg, coalCoins.seed, coalCoins.copies, newCoalCache(16))
		for bi, b := range batches {
			co.Add(b)
			got := co.Take()
			co.Resolve(got)
			want := wal.DigestUpdates(scratch, b)
			if len(got) != len(want) {
				t.Fatalf("batch %d: %d entries, wal.DigestUpdates has %d", bi, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Stream != w.Stream || g.Elem != w.Elem || g.Delta != w.Delta || fmt.Sprint(g.Digest) != fmt.Sprint(w.Digest) {
					t.Fatalf("batch %d entry %d: %+v, wal.DigestUpdates %+v", bi, i, g, w)
				}
			}
		}

		// Several batches: the kept keys are the ones some batch left
		// nonzero, in first-touch order.
		type key struct {
			stream string
			elem   uint64
		}
		var order []key
		live := make(map[key]bool)
		for _, b := range batches {
			net := make(map[key]int64)
			for _, u := range b {
				k := key{u.Stream, u.Elem}
				if _, seen := live[k]; !seen {
					live[k] = false
					order = append(order, k)
				}
				net[k] += u.Delta
			}
			for k, v := range net {
				live[k] = live[k] || v != 0
			}
		}
		var wantKept []key
		for _, k := range order {
			if live[k] {
				wantKept = append(wantKept, k)
			}
		}
		for _, b := range batches {
			co.Add(b)
		}
		if co.Len() != len(order) {
			t.Fatalf("holding %d keys, the input touched %d", co.Len(), len(order))
		}
		kept := co.Take()
		if len(kept) != len(wantKept) {
			t.Fatalf("kept %d entries, %d keys were left nonzero by some batch", len(kept), len(wantKept))
		}
		for i, k := range wantKept {
			if kept[i].Stream != k.stream || kept[i].Elem != k.elem {
				t.Fatalf("kept entry %d is (%s, %d), want (%s, %d)", i, kept[i].Stream, kept[i].Elem, k.stream, k.elem)
			}
		}
		if co.Len() != 0 {
			t.Fatalf("Take left %d keys behind", co.Len())
		}

		// Applying: per-batch folds and one chunked multi-batch fold.
		for _, size := range []int{-1, 16, Options{}.withDefaults(1).DigestCache} {
			co := NewCoalescer(coalCoins.cfg, coalCoins.seed, coalCoins.copies, newCoalCache(size))
			perBatch := make(map[string]*core.Family)
			for _, b := range batches {
				co.Add(b)
				entries := co.Take()
				co.Resolve(entries)
				applyEntries(t, perBatch, entries)
			}
			sameFamilies(t, fmt.Sprintf("cache %d, per-batch folds", size), perBatch, direct)

			for _, b := range batches {
				co.Add(b)
			}
			folded := make(map[string]*core.Family)
			entries := co.Take()
			for len(entries) > 0 {
				chunk := entries[:min(len(entries), 3)]
				entries = entries[len(chunk):]
				co.Resolve(chunk)
				applyEntries(t, folded, chunk)
			}
			sameFamilies(t, fmt.Sprintf("cache %d, one chunked fold", size), folded, direct)
		}
	})
}

// TestGenCoalesceCorpus regenerates FuzzCoalesce's seed corpus.
func TestGenCoalesceCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	// up packs one update: stream 0–2, element 0–31, delta byte, and
	// whether the batch ends after it.
	up := func(stream, elem int, delta byte, end bool) []byte {
		a := byte(stream) | byte(elem)<<2
		if end {
			a |= 0x80
		}
		return []byte{a, delta}
	}
	const plus1, minus1, plus4 = 4, 2, 7 // delta bytes: int64(b%8) − 3
	var cancelInside, cancelAcross, cancelLater, mixed []byte
	// One batch: +1 −1 on one key (dropped), repeats folded on another.
	cancelInside = append(cancelInside, up(0, 5, plus1, false)...)
	cancelInside = append(cancelInside, up(0, 5, minus1, false)...)
	cancelInside = append(cancelInside, up(1, 5, plus1, false)...)
	cancelInside = append(cancelInside, up(1, 5, plus4, true)...)
	// Two batches: the second cancels the first's net, so the key is
	// kept though its total is zero.
	cancelAcross = append(cancelAcross, up(2, 9, plus1, true)...)
	cancelAcross = append(cancelAcross, up(2, 9, minus1, false)...)
	cancelAcross = append(cancelAcross, up(0, 9, plus1, true)...)
	// Three batches: nets +1, −1, then 0 — kept though neither the total
	// nor the last batch's net is nonzero.
	cancelLater = append(cancelLater, up(1, 3, plus1, true)...)
	cancelLater = append(cancelLater, up(1, 3, minus1, true)...)
	cancelLater = append(cancelLater, up(1, 3, plus1, false)...)
	cancelLater = append(cancelLater, up(1, 3, minus1, true)...)
	// Many batches over the whole domain: slot collisions in the
	// 16-slot cache, hits across batches.
	for i := 0; i < 96; i++ {
		mixed = append(mixed, up(i%3, i*7%32, byte(i%8), i%10 == 9)...)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzCoalesce")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, tape := range map[string][]byte{
		"seed-cancel-inside": cancelInside,
		"seed-cancel-across": cancelAcross,
		"seed-cancel-later":  cancelLater,
		"seed-mixed":         mixed,
	} {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(tape)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
