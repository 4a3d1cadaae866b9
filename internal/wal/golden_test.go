package wal

import (
	"encoding/hex"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
)

// goldenRecDigests is a RecDigests body as older binaries wrote it: seq
// 8, site "edge1", count 2, one entry {A, 100, +2} with the two digest
// words 0x0102030405060708 and 0x1112131415161718.
const goldenRecDigests = "0208000000000000000565646765310202010141010064000000000000000408070605040302011817161514131211"

// TestWALGoldenBytes pins the on-disk formats — segment header, record
// bodies of every type, and the snapshot manifest — to byte-recorded
// golden values, mirroring core's TestSerializeGoldenBytes. If any of
// these fail, the durability formats changed: that needs a version
// bump (and migration thinking), not a golden update.
func TestWALGoldenBytes(t *testing.T) {
	cfg := core.Config{Buckets: 16, SecondLevel: 8, FirstWise: 3}

	t.Run("segment-header", func(t *testing.T) {
		got := hex.EncodeToString(encodeSegmentHeader(cfg, 0x5eed, 4, 1))
		const want = "5357414c01100008000300ed5e0000000000000400000001000000000000007272d062"
		if got != want {
			t.Errorf("segment header changed:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("rec-updates", func(t *testing.T) {
		body, err := encodeBody(&Record{
			Seq: 7, Type: RecUpdates, Site: "edge1", Count: 3,
			Updates: []datagen.Update{
				{Stream: "A", Elem: 100, Delta: 1},
				{Stream: "B", Elem: 200, Delta: -2},
				{Stream: "A", Elem: 100, Delta: 1},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		const want = "010700000000000000056564676531030201410142030064000000000000000201c8000000000000000300640000000000000002"
		if got := hex.EncodeToString(body); got != want {
			t.Errorf("RecUpdates body changed:\n got %s\nwant %s", got, want)
		}
	})

	// RecDigests is read-only: logs written by older binaries must
	// still decode to the record they hold, and nothing encodes it.
	t.Run("rec-digests", func(t *testing.T) {
		body, err := hex.DecodeString(goldenRecDigests)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != 8 || rec.Type != RecDigests || rec.Site != "edge1" || rec.Count != 2 ||
			len(rec.Digests) != 1 {
			t.Fatalf("RecDigests decode changed: %+v", rec)
		}
		d := rec.Digests[0]
		if d.Stream != "A" || d.Elem != 100 || d.Delta != 2 ||
			len(d.Digest) != 2 || d.Digest[0] != 0x0102030405060708 || d.Digest[1] != 0x1112131415161718 {
			t.Fatalf("RecDigests entry changed: %+v", d)
		}
		if _, err := encodeBody(rec); err == nil {
			t.Fatal("encodeBody accepted the read-only RecDigests type")
		}
	})

	t.Run("rec-delta", func(t *testing.T) {
		body, err := encodeBody(&Record{
			Seq: 9, Type: RecDelta, Site: "edge1", Stream: "A", Count: 5,
			Synopsis: []byte{0xde, 0xad, 0xbe, 0xef},
		})
		if err != nil {
			t.Fatal(err)
		}
		const want = "03090000000000000005656467653101410504deadbeef"
		if got := hex.EncodeToString(body); got != want {
			t.Errorf("RecDelta body changed:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("rec-mark", func(t *testing.T) {
		body, err := encodeBody(&Record{Seq: 10, Type: RecMark, Site: "edge1"})
		if err != nil {
			t.Fatal(err)
		}
		const want = "040a00000000000000056564676531"
		if got := hex.EncodeToString(body); got != want {
			t.Errorf("RecMark body changed:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("rec-view", func(t *testing.T) {
		body, err := encodeBody(&Record{
			Seq: 11, Type: RecView, View: "v",
			Statement: "CREATE VIEW v AS (A | B)",
		})
		if err != nil {
			t.Fatal(err)
		}
		const want = "050b0000000000000001761843524541544520564945572076204153202841207c204229"
		if got := hex.EncodeToString(body); got != want {
			t.Errorf("RecView body changed:\n got %s\nwant %s", got, want)
		}
	})

	t.Run("manifest", func(t *testing.T) {
		got := hex.EncodeToString(encodeManifest(12, 3456, "snap-00000000000000000012.dat", 9999, 0xdeadbeef, 2))
		const want = "534d414e010c00000000000000800d0000000000001d736e61702d30303030303030303030303030303030303031322e6461740f27000000000000efbeadde020000006946e574"
		if got != want {
			t.Errorf("manifest changed:\n got %s\nwant %s", got, want)
		}
	})

	// Every golden body must also decode back to itself.
	t.Run("decode-inverse", func(t *testing.T) {
		recs := []*Record{
			{Seq: 7, Type: RecUpdates, Site: "edge1", Count: 3,
				Updates: []datagen.Update{{Stream: "A", Elem: 100, Delta: 1}}},
			{Seq: 9, Type: RecDelta, Site: "edge1", Stream: "A", Count: 5, Synopsis: []byte{1, 2, 3}},
			{Seq: 10, Type: RecMark, Site: "edge1"},
			{Seq: 11, Type: RecView, View: "v", Statement: "CREATE VIEW v AS (A | B)"},
		}
		for _, rec := range recs {
			body, err := encodeBody(rec)
			if err != nil {
				t.Fatal(err)
			}
			back, err := decodeBody(body)
			if err != nil {
				t.Fatalf("type %d: %v", rec.Type, err)
			}
			if back.Seq != rec.Seq || back.Type != rec.Type || back.Site != rec.Site ||
				back.Count != rec.Count || len(back.Updates) != len(rec.Updates) ||
				back.Stream != rec.Stream ||
				back.View != rec.View || back.Statement != rec.Statement {
				t.Fatalf("type %d: decode mismatch: %+v vs %+v", rec.Type, back, rec)
			}
		}
	})
}
