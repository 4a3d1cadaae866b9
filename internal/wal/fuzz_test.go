package wal

import (
	"encoding/hex"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
)

// FuzzDecodeBody throws arbitrary bytes at the record decoder: it must
// never panic or over-allocate, only return a record or an error. Valid
// encodings are seeded so the fuzzer explores the interesting interior
// of the format, and any successfully decoded record must survive an
// encode/decode round trip (no decoded state the encoder cannot
// express).
func FuzzDecodeBody(f *testing.F) {
	seeds := []*Record{
		{Seq: 1, Type: RecUpdates, Site: "s", Count: 2,
			Updates: []datagen.Update{{Stream: "A", Elem: 5, Delta: 1}, {Stream: "B", Elem: 9, Delta: -3}}},
		{Seq: 3, Type: RecDelta, Site: "s", Stream: "A", Count: 4, Synopsis: []byte{1, 2, 3, 4}},
		{Seq: 4, Type: RecMark, Site: "s"},
		{Seq: 5, Type: RecView, View: "v", Statement: "CREATE VIEW v AS (A | B)"},
	}
	for _, rec := range seeds {
		body, err := encodeBody(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	digests, err := hex.DecodeString(goldenRecDigests)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(digests)
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeBody(b)
		if err != nil {
			return
		}
		if rec.Type == RecDigests {
			// Read-only: decoded for old logs, never re-encoded.
			if _, err := encodeBody(rec); err == nil {
				t.Fatal("encodeBody accepted the read-only RecDigests type")
			}
			return
		}
		// Anything else the decoder accepts, the encoder must be able to
		// express, and the re-encoding must decode to the same shape.
		// (Byte equality is not required: uvarints and unreferenced
		// stream-table entries admit non-canonical inputs.)
		back, err := encodeBody(rec)
		if err != nil {
			t.Fatalf("re-encode of decoded record failed: %v", err)
		}
		rec2, err := decodeBody(back)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if rec2.Seq != rec.Seq || rec2.Type != rec.Type || rec2.Site != rec.Site ||
			rec2.Count != rec.Count || len(rec2.Updates) != len(rec.Updates) ||
			rec2.View != rec.View || rec2.Statement != rec.Statement {
			t.Fatalf("round trip changed the record: %+v vs %+v", rec2, rec)
		}
	})
}

// FuzzDecodeSnapshotManifest fuzzes the two snapshot parsers the same
// way: corrupt or truncated input must fail cleanly, never panic.
func FuzzDecodeSnapshotManifest(f *testing.F) {
	cfg := core.Config{Buckets: 8, SecondLevel: 4, FirstWise: 3}
	fam, err := core.NewFamily(cfg, 1, 2)
	if err != nil {
		f.Fatal(err)
	}
	fam.Insert(42)
	snap, err := encodeSnapshot(3, 10, map[string]int{"s": 2}, map[string]*core.Family{"A": fam}, []string{"CREATE VIEW v AS (A | A)"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(encodeManifest(3, 10, "snap-x.dat", int64(len(snap)), 7, 1))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		decodeSnapshot(b)
		decodeManifest(b)
	})
}
