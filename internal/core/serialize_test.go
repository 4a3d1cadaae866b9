package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"testing/quick"

	"setsketch/internal/hashing"
)

func TestSerializeRoundTrip(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 8, FirstWise: 4}
	f := mustFamily(t, cfg, 1234, 8)
	rng := hashing.NewRNG(1)
	for i := 0; i < 500; i++ {
		f.Update(rng.Uint64n(1<<20), int64(rng.Intn(5)+1))
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadFamily(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatal("round-tripped family differs")
	}
	// The reconstructed family must be fully functional: updating both
	// with the same element keeps them equal (hash functions restored).
	got.Insert(999)
	f.Insert(999)
	if !got.Equal(f) {
		t.Fatal("round-tripped family has different hash functions")
	}
}

func TestSerializeEmptyFamily(t *testing.T) {
	f := mustFamily(t, DefaultConfig(), 9, 4)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Varint encoding keeps an empty 4-copy default family small.
	if buf.Len() > 20000 {
		t.Errorf("empty family serialized to %d bytes; varint compression broken", buf.Len())
	}
	got, err := ReadFamily(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatal("empty family round trip failed")
	}
}

func TestSerializeNegativeCounters(t *testing.T) {
	// Counters can be transiently negative at a site that only saw the
	// deletions of a distributed stream; zig-zag varints must survive.
	f := mustFamily(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 3, 2)
	f.Update(5, -10)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFamily(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(f) {
		t.Fatal("negative counters corrupted by round trip")
	}
}

func TestReadFamilyRejectsCorruption(t *testing.T) {
	f := mustFamily(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 3, 2)
	f.Insert(1)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	corrupted := append([]byte(nil), pristine...)
	corrupted[len(corrupted)/2] ^= 0xff
	if _, err := ReadFamily(bytes.NewReader(corrupted)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("corrupted payload: err = %v, want ErrBadFormat", err)
	}

	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(pristine); cut += 7 {
		if _, err := ReadFamily(bytes.NewReader(pristine[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}

	// Wrong magic.
	bad := append([]byte("NOPE"), pristine[4:]...)
	if _, err := ReadFamily(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic: err = %v, want ErrBadFormat", err)
	}

	// Wrong version.
	badVer := append([]byte(nil), pristine...)
	badVer[4] = 99
	if _, err := ReadFamily(bytes.NewReader(badVer)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad version: err = %v, want ErrBadFormat", err)
	}
}

// pairSumMismatchPayload returns a well-formed, checksum-valid encoding
// of an empty family except that copy 0's first pair reads (1, 0)
// against a bucket total of 0 — a state no update sequence reaches.
func pairSumMismatchPayload(t testing.TB) []byte {
	t.Helper()
	cfg := Config{Buckets: 8, SecondLevel: 4, FirstWise: 3}
	f := mustFamily(t, cfg, 5, 2)
	b := f.AppendTo(nil)
	// Every counter of an empty family is the one-byte varint 0; the
	// first pair's side 0 follows the magic, header, copy count, and
	// copy 0's totals. Zig-zag 2 is +1.
	b[4+15+4+cfg.Buckets] = 2
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[4:len(b)-4]))
	return b
}

// TestDecodersRejectPairSumMismatch: memory stores one side of each
// pair and derives the other from the bucket total, so a payload whose
// pair does not sum to its total has no in-memory form. Both decoders
// must refuse it rather than silently keep side 1 only.
func TestDecodersRejectPairSumMismatch(t *testing.T) {
	b := pairSumMismatchPayload(t)
	if _, err := DecodeFamily(b); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "sums to") {
		t.Errorf("DecodeFamily: err = %v, want ErrBadFormat for the pair sum", err)
	}
	if _, err := ReadFamily(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "sums to") {
		t.Errorf("ReadFamily: err = %v, want ErrBadFormat for the pair sum", err)
	}
}

func TestSerializedSizeScalesWithContent(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 32, FirstWise: 8}
	empty := mustFamily(t, cfg, 1, 64)
	full := mustFamily(t, cfg, 1, 64)
	rng := hashing.NewRNG(2)
	for i := 0; i < 20000; i++ {
		full.Insert(rng.Uint64n(1 << 24))
	}
	var be, bf bytes.Buffer
	if _, err := empty.WriteTo(&be); err != nil {
		t.Fatal(err)
	}
	if _, err := full.WriteTo(&bf); err != nil {
		t.Fatal(err)
	}
	if bf.Len() <= be.Len() {
		t.Errorf("full family (%d B) not larger than empty (%d B)", bf.Len(), be.Len())
	}
	raw := 8 * (61 + 61*32*2) * 64 * 2 // totals+counts, 64 copies, int64
	if bf.Len() >= raw {
		t.Errorf("varint encoding (%d B) not smaller than raw counters (%d B)", bf.Len(), raw)
	}
}

// TestSerializeQuickRoundTrip property-checks round-tripping over
// random update batches.
func TestSerializeQuickRoundTrip(t *testing.T) {
	cfg := Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}
	f := func(elems []uint16, deltas []int8, seed uint16, copies uint8) bool {
		r := int(copies%4) + 1
		fam, err := NewFamily(cfg, uint64(seed), r)
		if err != nil {
			return false
		}
		for i, e := range elems {
			d := int64(1)
			if i < len(deltas) {
				d = int64(deltas[i])
			}
			fam.Update(uint64(e), d)
		}
		var buf bytes.Buffer
		if _, err := fam.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFamily(&buf)
		if err != nil {
			return false
		}
		return got.Equal(fam)
	}
	if err := quickCheck(t, f); err != nil {
		t.Error(err)
	}
}

// quickCheck wraps testing/quick with a bounded count.
func quickCheck(t *testing.T, f any) error {
	t.Helper()
	return quick.Check(f, &quick.Config{MaxCount: 40})
}

func TestSerializeDeterministic(t *testing.T) {
	f := mustFamily(t, Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 3, 2)
	f.Insert(42)
	var b1, b2 bytes.Buffer
	if _, err := f.WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("serialization is not deterministic")
	}
}

// TestSerializeGoldenBytes pins the wire format to byte-recorded
// golden values captured before the flat counter-layout refactor. The
// flat arena is an in-memory detail: WriteTo must keep emitting the
// copy-by-copy varint stream that sketchtool files and the distributed
// protocol already hold. If this test fails, the on-disk/wire format
// changed — that needs a version bump, not a golden update.
func TestSerializeGoldenBytes(t *testing.T) {
	// Small shape: exact bytes.
	f := mustFamily(t, Config{Buckets: 8, SecondLevel: 4, FirstWise: 3}, 0x5eed, 3)
	for e := uint64(0); e < 40; e++ {
		f.Update(e, int64(e%5)+1)
	}
	for e := uint64(0); e < 40; e += 4 {
		f.Update(e, -1)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const goldenHex = "324c485301080004000300ed5e00000000000003000000920126100a0a000000583a464c920100444e12140e1826000c1a08080c041000020e000a0a000a000a00000a0a000a000a0000000000000000000000000000000000000000000000000084011e26000a0a00003a4a4e364c3842421e000a140c120c1212141a0c10160e180000000000000000000a000a000a000a000a000a02080208000000000000000000000000000000007c24201602000004403c28542c505e1e10141c081a0a1014140c0e120818120e0c0a04120412120400020002000202000000000000000000000000000000000000040400040000043d0acb81"
	if got := hex.EncodeToString(buf.Bytes()); got != goldenHex {
		t.Errorf("serialized bytes changed:\n got %s\nwant %s", got, goldenHex)
	}

	// Paper shape (61 buckets, s = 32, t = 8): too large to embed, so
	// pin its SHA-256.
	g := mustFamily(t, DefaultConfig(), 7, 4)
	for e := uint64(100); e < 160; e++ {
		g.Insert(e)
	}
	for e := uint64(100); e < 120; e++ {
		g.Delete(e)
	}
	var buf2 bytes.Buffer
	if _, err := g.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf2.Bytes())
	const goldenSum = "cda57cb7f104567a78ac8df6bcb97dbb86d1d17c70b6962cdc9c966e2110ffdd"
	if got := hex.EncodeToString(sum[:]); got != goldenSum {
		t.Errorf("paper-shape serialization sha256 = %s, want %s", got, goldenSum)
	}

	// And both must still round-trip through ReadFamily into families
	// the estimators can use (the consumers of sketchtool files).
	for _, b := range []*bytes.Buffer{&buf, &buf2} {
		got, err := ReadFamily(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
