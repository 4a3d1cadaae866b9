package distributed

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/cq"
	"setsketch/internal/datagen"
	"setsketch/internal/hashing"
	"setsketch/internal/wal"
)

// smallCoins keep hashing cheap enough to push more than
// replayFlushKeys distinct keys through one recovery.
var smallCoins = Coins{
	Config: core.Config{Buckets: 16, SecondLevel: 8, FirstWise: 3},
	Seed:   5,
	Copies: 4,
}

// midCoins are testCoins' shape with fewer copies, so the randomized
// differential test stays quick under the race detector.
var midCoins = Coins{Config: testCoins.Config, Seed: testCoins.Seed, Copies: 32}

// replayTestClock is the fixed window clock of every coordinator in
// these tests, so live and recovered views put updates in the same
// bucket.
var replayTestClock = time.Unix(1_700_000_000, 0)

// newReplayCoord returns a fresh coordinator with the given digest
// cache setting and the fixed view clock.
func newReplayCoord(t *testing.T, coins Coins, cache int) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(coins)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDigestCache(cache)
	if err := c.SetCQOptions(cq.Options{Now: func() time.Time { return replayTestClock }}); err != nil {
		t.Fatal(err)
	}
	return c
}

func openLog(t *testing.T, dir string, coins Coins) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{
		Config: coins.Config, Seed: coins.Seed, Copies: coins.Copies, Sync: wal.SyncNever,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// recoverFrom recovers a fresh coordinator from the log in dir.
func recoverFrom(t *testing.T, dir string, coins Coins, cache int) (*Coordinator, RecoveryStats) {
	t.Helper()
	c := newReplayCoord(t, coins, cache)
	l := openLog(t, dir, coins)
	defer l.Close()
	rs, err := c.Recover(l)
	if err != nil {
		t.Fatal(err)
	}
	return c, rs
}

// requireSameBytes asserts the two coordinators' families serialize to
// identical bytes, on top of requireSameState's checks.
func requireSameBytes(t *testing.T, want, got *Coordinator) {
	t.Helper()
	requireSameState(t, want, got)
	for _, name := range want.Streams() {
		var wb, gb bytes.Buffer
		if _, err := want.Family(name).WriteTo(&wb); err != nil {
			t.Fatal(err)
		}
		if _, err := got.Family(name).WriteTo(&gb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Fatalf("stream %q serializes differently after recovery", name)
		}
	}
}

// viewResults evaluates the named views as a watch round does.
func viewResults(c *Coordinator, names []string) map[string][]cq.GroupResult {
	out := make(map[string][]cq.GroupResult, len(names))
	for _, n := range names {
		if _, res, ok := c.evaluateView(n, 0.1); ok {
			out[n] = res
		}
	}
	return out
}

// randomBatch draws one raw batch over plain and grouped streams with
// deletions and exact cancellations: within the batch, against a
// batch of the recent past, and on streams that only ever cancel. Z
// cancels inside one batch, so it never exists; each y⟨k⟩:L is
// inserted by one batch and cancelled by a later one, so it exists
// with zero counters, and so does its group in grouped views.
func randomBatch(rng *hashing.RNG, n int, domain uint64, prev []datagen.Update, y *int) []datagen.Update {
	streams := []string{"A", "B", "C", "g1:L", "g2:L", "g3:M"}
	b := make([]datagen.Update, 0, n+4)
	for len(b) < n {
		switch r := rng.Intn(10); {
		case r < 6:
			b = append(b, datagen.Update{
				Stream: streams[rng.Intn(len(streams))],
				Elem:   rng.Uint64n(domain),
				Delta:  int64(rng.Intn(3)) - 1 + int64(rng.Intn(2)),
			})
		case r < 8 && len(b) > 0:
			u := b[rng.Intn(len(b))]
			b = append(b, datagen.Update{Stream: u.Stream, Elem: u.Elem, Delta: -u.Delta})
		case len(prev) > 0:
			if u := prev[rng.Intn(len(prev))]; u.Stream[0] != 'Z' && u.Stream[0] != 'y' {
				b = append(b, datagen.Update{Stream: u.Stream, Elem: u.Elem, Delta: -u.Delta})
			}
		}
	}
	e := rng.Uint64n(domain)
	b = append(b, datagen.Update{Stream: "Z", Elem: e, Delta: 1}, datagen.Update{Stream: "Z", Elem: e, Delta: -1})
	if rng.Intn(6) == 0 { // odd *y: y⟨*y/2⟩:L holds one element
		b = append(b, datagen.Update{Stream: fmt.Sprintf("y%d:L", *y/2), Elem: 7, Delta: int64(1 - 2*(*y%2))})
		*y++
	}
	return b
}

// TestRecoveryMatchesLiveState is the differential check on the
// coalescing replay: a randomized log of raw batches, synopsis deltas,
// CREATE/DROP VIEW and a mid-log snapshot must recover into a fresh
// coordinator whose families serialize to the live ones' bytes, and
// whose all-time views, and windowed views created past the snapshot,
// evaluate identically under a fixed clock. The small-coins cases run more than replayFlushKeys
// distinct keys through one stretch of update records, forcing
// mid-suffix flushes.
func TestRecoveryMatchesLiveState(t *testing.T) {
	for _, tc := range []struct {
		name    string
		coins   Coins
		cache   int
		batch   int
		stretch int // consecutive raw batches after the mixed phase
		domain  uint64
	}{
		{"cache", midCoins, 0, 64, 8, 1 << 10},
		{"nocache", midCoins, -1, 64, 8, 1 << 10},
		{"flush/cache", smallCoins, 0, 512, 600, 1 << 40},
		{"flush/nocache", smallCoins, -1, 512, 600, 1 << 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			live := newReplayCoord(t, tc.coins, tc.cache)
			l := openLog(t, dir, tc.coins)
			live.AttachWAL(l)

			rng := hashing.NewRNG(uint64(len(tc.name)) + 11)
			var prev []datagen.Update
			var y int
			raw := func() []datagen.Update {
				b := randomBatch(rng, 1+rng.Intn(tc.batch), tc.domain, prev, &y)
				if err := live.ApplyUpdates(fmt.Sprintf("s%d", rng.Intn(3)), b); err != nil {
					t.Fatal(err)
				}
				prev = b
				return b
			}
			views := []string{
				"CREATE VIEW v%d AS A | B",
				"CREATE VIEW v%d AS (A & C) EXCEPT B",
				"CREATE VIEW v%d AS L | M GROUP BY tenant",
				"CREATE VIEW v%d AS L WINDOW 10m SLIDE 2m GROUP BY tenant",
			}
			postSnap := map[string]bool{} // views created past the snapshot
			snapped := false
			nextView := 0
			mixed := func(steps int) {
				for i := 0; i < steps; i++ {
					switch r := rng.Intn(20); {
					case r < 14:
						raw()
					case r < 17:
						delta, _ := tc.coins.NewFamily()
						stream := []string{"A", "C", "g1:L", "g4:M"}[rng.Intn(4)]
						n := 1 + rng.Intn(40)
						for j := 0; j < n; j++ {
							delta.Update(rng.Uint64n(tc.domain), int64(rng.Intn(3))-1)
						}
						if err := live.ApplyDelta("d", stream, delta, uint64(n)); err != nil {
							t.Fatal(err)
						}
					case r < 19:
						name := fmt.Sprintf("v%d", nextView)
						mustCreateView(t, live, fmt.Sprintf(views[nextView%len(views)], nextView))
						nextView++
						if snapped {
							postSnap[name] = true
						}
					default:
						names := live.ViewStatements()
						if len(names) == 0 {
							continue
						}
						name := strings.Fields(names[rng.Intn(len(names))])[2]
						if err := live.DropView(name); err != nil {
							t.Fatal(err)
						}
						delete(postSnap, name)
					}
				}
			}
			mixed(60)
			if err := live.WriteSnapshot(); err != nil {
				t.Fatal(err)
			}
			snapped = true
			mixed(60)
			type key struct {
				stream string
				elem   uint64
			}
			stretchKeys := map[key]bool{}
			for i := 0; i < tc.stretch; i++ {
				for _, u := range raw() {
					stretchKeys[key{u.Stream, u.Elem}] = true
				}
			}
			mixed(20)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			got, rs := recoverFrom(t, dir, tc.coins, tc.cache)
			if rs.SnapshotSeq == 0 || rs.Replayed.Records == 0 {
				t.Fatalf("recovery did not exercise snapshot + suffix: %+v", rs)
			}
			if tc.coins == smallCoins && len(stretchKeys) <= replayFlushKeys {
				t.Fatalf("the update stretch holds only %d keys: no flush is forced by size", len(stretchKeys))
			}
			if tc.cache < 0 && rs.DigestMisses != rs.Coalesced {
				t.Errorf("cache off: %d digest misses for %d entries", rs.DigestMisses, rs.Coalesced)
			}
			requireSameBytes(t, live, got)
			for _, s := range got.Streams() {
				if s == "Z" {
					t.Fatal("recovery created stream Z, whose every batch cancelled")
				}
			}
			if w, g := live.ViewStatements(), got.ViewStatements(); !reflect.DeepEqual(w, g) {
				t.Fatalf("view catalog diverged:\n%v\nvs\n%v", w, g)
			}
			var names []string
			for n := range postSnap {
				names = append(names, n)
			}
			if len(names) == 0 {
				t.Fatal("no view was created past the snapshot")
			}
			for _, spec := range live.Views() {
				if !spec.Windowed() && !postSnap[spec.Name] {
					names = append(names, spec.Name)
				}
			}
			if w, g := viewResults(live, names), viewResults(got, names); !reflect.DeepEqual(w, g) {
				t.Fatalf("view evaluations diverged after recovery:\n%+v\nvs\n%+v", w, g)
			}
		})
	}
}

// goldenRecDigests is a RecDigests body as older binaries wrote it (the
// same pinned bytes as internal/wal's golden test): seq 8, site
// "edge1", count 2, one entry {A, 100, +2} with the digest words
// 0x0102030405060708 and 0x1112131415161718.
const goldenRecDigests = "0208000000000000000565646765310202010141010064000000000000000408070605040302011817161514131211"

// digestsBody lays out a RecDigests body field by field in the format
// older binaries wrote; TestRecDigestsLogRecoversLikeRecUpdates checks
// it against goldenRecDigests.
func digestsBody(seq uint64, site string, count uint64, entries []wal.DigestUpdate) []byte {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	b := binary.LittleEndian.AppendUint64([]byte{wal.RecDigests}, seq)
	b = str(b, site)
	b = binary.AppendUvarint(b, count)
	words := 0
	if len(entries) > 0 {
		words = len(entries[0].Digest)
	}
	b = binary.AppendUvarint(b, uint64(words))
	var tab []string
	idx := map[string]int{}
	for _, e := range entries {
		if _, ok := idx[e.Stream]; !ok {
			idx[e.Stream] = len(tab)
			tab = append(tab, e.Stream)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(tab)))
	for _, s := range tab {
		b = str(b, s)
	}
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(idx[e.Stream]))
		b = binary.LittleEndian.AppendUint64(b, e.Elem)
		b = binary.AppendVarint(b, e.Delta)
		for _, w := range e.Digest {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// TestRecDigestsLogRecoversLikeRecUpdates: a log older binaries wrote —
// every batch a RecDigests record — must still recover, bit-identically
// to the same batches logged as RecUpdates, and without hashing.
func TestRecDigestsLogRecoversLikeRecUpdates(t *testing.T) {
	golden := digestsBody(8, "edge1", 2, []wal.DigestUpdate{
		{Stream: "A", Elem: 100, Delta: 2, Digest: core.Digest{0x0102030405060708, 0x1112131415161718}},
	})
	if got := hex.EncodeToString(golden); got != goldenRecDigests {
		t.Fatalf("hand-framed RecDigests body drifted from the pinned bytes:\n got %s\nwant %s", got, goldenRecDigests)
	}

	g, err := datagen.NewLoadGen(datagen.LoadSpec{
		Streams: []string{"A", "B"}, Domain: datagen.DomainUniform,
		Support: 1 << 9, Theta: 1.0, Deletes: 0.3,
	}, hashing.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]datagen.Update
	for i := 0; i < 16; i++ {
		batches = append(batches, g.Updates(128))
	}

	updDir := t.TempDir()
	live := newReplayCoord(t, testCoins, 0)
	l := openLog(t, updDir, testCoins)
	live.AttachWAL(l)
	for _, b := range batches {
		if err := live.ApplyUpdates("edge", b); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	digDir := t.TempDir()
	openLog(t, digDir, testCoins).Close() // an empty segment whose first seq is 1
	segs, err := filepath.Glob(filepath.Join(digDir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	scratch, _ := testCoins.NewFamily()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for i, b := range batches {
		body := digestsBody(uint64(i+1), "edge", uint64(len(b)), wal.DigestUpdates(scratch, b))
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(body, castagnoli))
		if _, err := f.Write(append(frame, body...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fromUpd, _ := recoverFrom(t, updDir, testCoins, 0)
	fromDig, rs := recoverFrom(t, digDir, testCoins, 0)
	if rs.Replayed.Records != uint64(len(batches)) || rs.Coalesced != 0 || rs.DigestMisses != 0 {
		t.Fatalf("RecDigests replay: %+v, want %d records and no hashing", rs, len(batches))
	}
	requireSameBytes(t, fromUpd, fromDig)
	requireSameBytes(t, live, fromDig)
}

// TestRecoveryStatsHashBill pins the replay's two new counts on a known
// log: coalesced entries applied, and digests hashed for them.
func TestRecoveryStatsHashBill(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cache      int
		wantMisses uint64
	}{
		// The first flush misses on all five entries (element 1 twice:
		// lookups precede installs); the second hits element 1.
		{"cache", 0, 5},
		{"nocache", -1, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			live := newReplayCoord(t, testCoins, tc.cache)
			l := openLog(t, dir, testCoins)
			live.AttachWAL(l)
			apply := func(ups ...datagen.Update) {
				t.Helper()
				if err := live.ApplyUpdates("s", ups); err != nil {
					t.Fatal(err)
				}
			}
			u := func(stream string, elem uint64, delta int64) datagen.Update {
				return datagen.Update{Stream: stream, Elem: elem, Delta: delta}
			}
			apply(u("A", 1, 1), u("A", 2, 1), u("B", 1, 1), u("E", 9, 1), u("A", 1, 1))
			apply(u("A", 2, -1), u("A", 3, 1), u("B", 1, -1), u("B", 1, 1), u("E", 9, -1))
			// The delta flushes the five keys above: A:1 +2, A:2 0 and
			// E:9 0 (each applied by the first batch), B:1 +1, A:3 +1.
			delta, _ := testCoins.NewFamily()
			delta.Insert(4)
			if err := live.ApplyDelta("d", "C", delta, 1); err != nil {
				t.Fatal(err)
			}
			// The end of the log flushes A:1 +1; D:5 cancels inside its
			// batch, so neither the live path nor replay applies it.
			apply(u("A", 1, 1), u("D", 5, 1), u("D", 5, -1))
			l.Close()

			got, rs := recoverFrom(t, dir, testCoins, tc.cache)
			if rs.Coalesced != 6 || rs.DigestMisses != tc.wantMisses {
				t.Errorf("coalesced %d, digest misses %d; want 6, %d", rs.Coalesced, rs.DigestMisses, tc.wantMisses)
			}
			requireSameBytes(t, live, got)
			if want := "A,B,C,E"; strings.Join(got.Streams(), ",") != want {
				t.Errorf("recovered streams %v, want %s", got.Streams(), want)
			}
		})
	}
}
