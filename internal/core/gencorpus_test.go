package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestGenSeedCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate testdata/fuzz seeds")
	}
	// write stores one seed: args are the fuzz arguments as Go literals.
	write := func(target, name string, args ...string) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := "go test fuzz v1\n" + strings.Join(args, "\n") + "\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bytesArg := func(b []byte) string { return "[]byte(" + strconv.Quote(string(b)) + ")" }

	fam, err := NewFamily(Config{Buckets: 32, SecondLevel: 6, FirstWise: 4}, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 20; e++ {
		fam.Update(e, int64(e%5)-2)
	}
	var buf bytes.Buffer
	if _, err := fam.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	write("FuzzReadFamily", "seed-populated-family", bytesArg(b))
	write("FuzzReadFamily", "seed-truncated-family", bytesArg(b[:len(b)/2]))
	corrupt := append([]byte(nil), b...)
	corrupt[len(corrupt)/3] ^= 0xff
	write("FuzzReadFamily", "seed-corrupt-family", bytesArg(corrupt))
	write("FuzzReadFamily", "seed-pair-sum-mismatch", bytesArg(pairSumMismatchPayload(t)))

	// FuzzQueryViewMaintained tapes are 4-byte ops [op, element, delta,
	// range] over a 4-copy family with a 2-copy Truncate view.
	const (
		update, rangeDigest, updateDigest, wholeBatch, batch = 0, 1, 2, 3, 4
		merge, mergeRange, reset, clone, viaTruncate, read   = 5, 6, 7, 8, 9, 10
	)
	// span is the range byte of copies [lo, hi); delta bytes 4, 5, 2
	// and 3 are the deltas +1, +2, −1 and +4.
	span := func(lo, hi int) byte {
		for b := 0; b < 256; b++ {
			if l := b % 5; l == lo && l+(b>>4)%(5-l) == hi {
				return byte(b)
			}
		}
		t.Fatalf("no range byte for [%d, %d)", lo, hi)
		return 0
	}
	view := func(name string, seed uint64, buckets, s uint8, ops ...[4]byte) {
		var tape []byte
		for _, op := range ops {
			tape = append(tape, op[:]...)
		}
		write("FuzzQueryViewMaintained", name,
			"uint64("+strconv.FormatUint(seed, 10)+")",
			"uint8("+strconv.Itoa(int(buckets))+")",
			"uint8("+strconv.Itoa(int(s))+")",
			bytesArg(tape))
	}
	// Every op at the served shape (61 buckets, s = 32), reading after
	// each kind of write.
	view("seed-every-op", 1, 60, 31,
		[4]byte{update, 5, 4, 0}, [4]byte{read},
		[4]byte{rangeDigest, 6, 5, span(1, 3)}, [4]byte{read},
		[4]byte{updateDigest, 7, 3, 0}, [4]byte{read},
		[4]byte{wholeBatch, 8, 4, span(2, 4)}, [4]byte{read},
		[4]byte{batch, 9, 5, span(0, 4)}, [4]byte{read},
		[4]byte{merge}, [4]byte{read},
		[4]byte{mergeRange, 0, 0, span(1, 2)}, [4]byte{read},
		[4]byte{reset}, [4]byte{read},
		[4]byte{update, 10, 4, 0}, [4]byte{clone}, [4]byte{update, 11, 4, 0}, [4]byte{read},
		[4]byte{viaTruncate, 12, 4, 0}, [4]byte{read},
		[4]byte{viaTruncate, 13, 4, span(0, 4)}, [4]byte{read},
		[4]byte{viaTruncate, 14, 4, 0}, [4]byte{read},
		[4]byte{viaTruncate, 15, 4, 0}, [4]byte{read})
	// One bucket, one second-level pair: inserts and deletes drive the
	// only bucket empty and back between reads.
	view("seed-tiny-shape", 7, 0, 0,
		[4]byte{update, 3, 4, 0}, [4]byte{read},
		[4]byte{update, 3, 2, 0}, [4]byte{read},
		[4]byte{batch, 3, 4, span(0, 4)}, [4]byte{read},
		[4]byte{wholeBatch, 3, 2, span(0, 4)}, [4]byte{wholeBatch, 4, 2, span(0, 4)},
		[4]byte{wholeBatch, 10, 4, span(0, 4)}, [4]byte{read})
	// Two signature words per bucket (s = 58), several reads with no
	// write between them, and merges on top of updates.
	view("seed-wide-signature", 99, 60, 57,
		[4]byte{batch, 1, 5, span(0, 4)}, [4]byte{read}, [4]byte{read},
		[4]byte{merge}, [4]byte{rangeDigest, 2, 2, span(3, 4)}, [4]byte{read},
		[4]byte{mergeRange, 0, 0, span(0, 1)}, [4]byte{batch, 30, 2, span(1, 3)}, [4]byte{read})
	// Writes through the Truncate view, parent writes to the copies the
	// view does not hold, and reads that refresh the Truncate view
	// before the parent (element byte 1).
	view("seed-truncate-writes", 3, 19, 7,
		[4]byte{read},
		[4]byte{viaTruncate, 4, 5, 0}, [4]byte{viaTruncate, 6, 4, 0}, [4]byte{read, 1},
		[4]byte{viaTruncate, 5, 2, span(1, 2)}, [4]byte{read},
		[4]byte{rangeDigest, 1, 4, span(2, 4)}, [4]byte{read, 1},
		[4]byte{update, 9, 4, 0}, [4]byte{read, 1},
		[4]byte{viaTruncate, 7, 4, 0}, [4]byte{read},
		[4]byte{clone}, [4]byte{viaTruncate, 8, 5, 0}, [4]byte{read, 1})

	// FuzzEstimateMatchesReference: shape packs r−1 (bits 0–3), ε
	// (4–5), s = 16 (6) and the 65-stream shape (7); node is a prefix
	// expression (0x80|op applies op, else leaf s0(b mod 4)); tape is
	// [stream, element, kind] with kinds 0/1 insert 1 + (kind>>2)%3
	// copies, 2 delete one, 3 cancel the element.
	est := func(name string, seed uint64, shape uint8, node []byte, ups ...[3]byte) {
		var tape []byte
		for _, u := range ups {
			tape = append(tape, u[:]...)
		}
		write("FuzzEstimateMatchesReference", name,
			"uint64("+strconv.FormatUint(seed, 10)+")",
			"uint8("+strconv.Itoa(int(shape))+")",
			bytesArg(node), bytesArg(tape))
	}
	// Element e is in s00–s02 by its low three bits, in s03 when
	// e%5 == 0; every seventh loses one copy from s00.
	var overlap [][3]byte
	for e := byte(0); e < 64; e++ {
		for k := byte(0); k < 3; k++ {
			if e>>k&1 == 1 {
				overlap = append(overlap, [3]byte{k, e, 4 * (e % 3)})
			}
		}
		if e%5 == 0 {
			overlap = append(overlap, [3]byte{3, e, 0})
		}
		if e%7 == 0 {
			overlap = append(overlap, [3]byte{0, e, 2})
		}
	}
	// (s00 − s01) & s02 at r = 12, s = 16, with deletions.
	est("seed-three-streams", 5, 0x4b, []byte{0x81, 0x82, 0, 1, 2}, overlap...)
	// s00 ^ s01 at r = 16, ε = 0.9, s = 2: undetected collisions.
	est("seed-low-s", 8, 0x3f, []byte{0x83, 0, 1}, overlap...)
	// One copy: witness scans that often find nothing.
	est("seed-one-copy", 2, 0x40, []byte{0x80, 0x82, 0, 1, 0x81, 2, 3}, overlap...)
	// Every element inserted and then cancelled: empty union.
	est("seed-cancelled", 3, 0x47, []byte{0x82, 0, 1},
		[3]byte{0, 1, 8}, [3]byte{1, 2, 0}, [3]byte{0, 1, 3}, [3]byte{1, 2, 2})
	// The 65-stream shape: (s00 − s01) | ((s00 | … | s63) − s64).
	var wide [][3]byte
	for e := byte(0); e < 130; e++ {
		wide = append(wide, [3]byte{e % 65, e, 0})
	}
	est("seed-wide", 4, 0xc7, []byte{0x82, 0, 1}, append(wide, overlap...)...)
}
