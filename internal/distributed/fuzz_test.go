package distributed

import (
	"bytes"
	"slices"
	"testing"

	"setsketch/internal/datagen"
)

// FuzzDecodeUpdateBatch throws arbitrary bytes at the update-batch
// decoder, the first thing a session applies to a peer's payload: it
// must never panic, only return updates or an error. Valid encodings
// are seeded so the fuzzer explores the interior of the format. Any
// payload the decoder accepts must survive an encode/decode round trip
// exactly (no decoded state the encoder cannot express); bytes need
// not match, because uvarints admit non-minimal encodings.
func FuzzDecodeUpdateBatch(f *testing.F) {
	for _, batch := range [][]datagen.Update{
		nil,
		{{Stream: "A", Elem: 5, Delta: 1}},
		{{Stream: "A", Elem: 5, Delta: 1}, {Stream: "B", Elem: 1 << 63, Delta: -3}, {Stream: "", Elem: 0, Delta: 0}},
	} {
		p := appendUpdateBatch(nil, 7, batch)
		seq, got, err := decodeUpdateBatch(p, nil, (&interner{}).intern)
		if err != nil || seq != 7 || !slices.Equal(got, batch) {
			f.Fatalf("seed round trip: seq %d, %v, err %v; want 7, %v", seq, got, err, batch)
		}
		f.Add(p)
	}
	f.Add(appendDeltaHeader(nil, 1, "A", 2))
	f.Add(appendAck(nil, 1, 2))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		seq, ups, err := decodeUpdateBatch(p, nil, (&interner{}).intern)
		if err != nil {
			return
		}
		back := appendUpdateBatch(nil, seq, ups)
		if len(back) > len(p) {
			t.Fatalf("canonical re-encoding is %d bytes, longer than the %d accepted", len(back), len(p))
		}
		seq2, ups2, err := decodeUpdateBatch(back, nil, (&interner{}).intern)
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if seq2 != seq || !slices.Equal(ups2, ups) {
			t.Fatalf("round trip changed the batch: seq %d %v vs %d %v", seq2, ups2, seq, ups)
		}
	})
}

// FuzzDecodeDelta does the same for the fixed-layout session payloads:
// the delta header (the synopsis after it is core.DecodeFamily's, which
// FuzzReadFamily covers), and the heartbeat and ack fields it shares
// its prefix with. A decode never panics, and whatever it accepts
// re-encodes to the bytes it consumed.
func FuzzDecodeDelta(f *testing.F) {
	seeds := []struct {
		seq, count uint64
		stream     string
		synopsis   []byte
	}{
		{1, 0, "", nil},
		{2, 300, "A", []byte{1, 2, 3, 4}},
		{1 << 63, 1, "a-longer-stream-name", []byte{0xff}},
	}
	for _, s := range seeds {
		p := append(appendDeltaHeader(nil, s.seq, s.stream, s.count), s.synopsis...)
		seq, count, stream, synopsis, err := decodeDelta(p)
		if err != nil || seq != s.seq || count != s.count || string(stream) != s.stream || !bytes.Equal(synopsis, s.synopsis) {
			f.Fatalf("seed round trip: %d %d %q %v, err %v; want %+v", seq, count, stream, synopsis, err, s)
		}
		f.Add(p)
	}
	f.Add(appendAck(nil, 3, 4))
	f.Add(appendUpdateBatch(nil, 5, []datagen.Update{{Stream: "A", Elem: 5, Delta: 1}}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, p []byte) {
		if seq, count, stream, synopsis, err := decodeDelta(p); err == nil {
			back := append(appendDeltaHeader(nil, seq, string(stream), count), synopsis...)
			seq2, count2, stream2, synopsis2, err := decodeDelta(back)
			if err != nil {
				t.Fatalf("re-encoded delta does not decode: %v", err)
			}
			if seq2 != seq || count2 != count || !bytes.Equal(stream2, stream) || !bytes.Equal(synopsis2, synopsis) {
				t.Fatalf("round trip changed the delta: %d %d %q %v vs %d %d %q %v",
					seq2, count2, stream2, synopsis2, seq, count, stream, synopsis)
			}
		}
		if seq, accepted, err := decodeAck(p); err == nil {
			if back := appendAck(nil, seq, accepted); !bytes.Equal(back, p[:len(back)]) {
				t.Fatalf("ack %d/%d re-encodes to %x, decoded from %x", seq, accepted, back, p)
			}
		}
		if seq, err := decodeHeartbeat(p); err == nil {
			if back := appendHeartbeat(nil, seq); !bytes.Equal(back, p[:len(back)]) {
				t.Fatalf("heartbeat %d re-encodes to %x, decoded from %x", seq, back, p)
			}
		}
	})
}
