package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
)

func writeSeed(t *testing.T, target, name string, b []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(b)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGenSeedCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	// A full 256-update batch, the shape the coordinator logs: three
	// streams, repeated elements, insertions and deletions.
	batch := make([]datagen.Update, 256)
	for i := range batch {
		batch[i] = datagen.Update{Stream: string(rune('A' + i%3)), Elem: uint64(i*7919) % 97, Delta: int64(1 - 2*(i%5/4))}
	}
	recs := map[string]*Record{
		"seed-updates-multi": {Seq: 10, Type: RecUpdates, Site: "edge-1", Count: 4, Updates: []datagen.Update{
			{Stream: "A", Elem: 5, Delta: 1}, {Stream: "B", Elem: 9, Delta: -3},
			{Stream: "A", Elem: 5, Delta: -1}, {Stream: "C", Elem: 1 << 40, Delta: 7},
		}},
		"seed-updates-256":  {Seq: 13, Type: RecUpdates, Site: "edge-1", Count: 256, Updates: batch},
		"seed-view-unicode": {Seq: 12, Type: RecView, View: "v∪", Statement: "CREATE VIEW v∪ AS (A ∪ B)"},
	}
	bodies := make(map[string][]byte)
	for name, rec := range recs {
		body, err := encodeBody(rec)
		if err != nil {
			t.Fatal(err)
		}
		bodies[name] = body
	}
	// RecDigests is read-only, so its seed is the pinned body an older
	// binary wrote: seq 11, one entry {A, 5, +2} with digest words 1..8.
	var err error
	bodies["seed-digest-long"], err = hex.DecodeString("020b0000000000000001730108010141010005000000000000000401000000000000000200000000000000030000000000000004000000000000000500000000000000060000000000000007000000000000000800000000000000")
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range bodies {
		writeSeed(t, "FuzzDecodeBody", name, body)
		writeSeed(t, "FuzzDecodeBody", name+"-truncated", body[:len(body)/2])
	}

	cfg := core.Config{Buckets: 16, SecondLevel: 4, FirstWise: 3}
	famA, err := core.NewFamily(cfg, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	famA.Insert(42)
	famB, err := core.NewFamily(cfg, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	famB.Update(9, -2)
	snap, err := encodeSnapshot(20, 33, map[string]int{"s1": 2, "s2": 5},
		map[string]*core.Family{"A": famA, "B": famB},
		[]string{"CREATE VIEW v AS (A | B)", "CREATE VIEW w AS (A & B)"})
	if err != nil {
		t.Fatal(err)
	}
	writeSeed(t, "FuzzDecodeSnapshotManifest", "seed-snapshot-two-streams", snap)
	writeSeed(t, "FuzzDecodeSnapshotManifest", "seed-snapshot-truncated", snap[:len(snap)/2])
	writeSeed(t, "FuzzDecodeSnapshotManifest", "seed-manifest",
		encodeManifest(20, 33, "snap-000020.dat", int64(len(snap)), 7, 1))
}
