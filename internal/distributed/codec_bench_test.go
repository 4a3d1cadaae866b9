package distributed

import (
	"bytes"
	"testing"

	"setsketch/internal/datagen"
)

// Frame-codec benchmarks: the per-batch cost of the binary session
// encoding on both ends, isolated from the network. Together with the
// alloc pins in alloc_test.go these keep the zero-alloc wire path from
// bit-rotting: check.sh smokes them on every run. The wire cost in a
// live session is the repository benchmark's
// distributed.wire_us_per_batch probe (bash bench/run.sh -trace 1).

// BenchmarkUpdateBatchEncodeFrame: build one 64-update batch frame in a
// reused buffer (the client's SendUpdates encode half).
func BenchmarkUpdateBatchEncodeFrame(b *testing.B) {
	ups := sessionTestUpdates()
	var frame []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = append(frame[:0], msgUpdateBatch, 0, 0, 0, 0)
		frame = appendUpdateBatch(frame, uint64(i), ups)
		if _, err := finishFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(ups))/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkUpdateBatchDecodeFrame: read the frame off a connection
// buffer and decode it through the stream-name interner (the server's
// receive half).
func BenchmarkUpdateBatchDecodeFrame(b *testing.B) {
	payload := appendUpdateBatch(nil, 7, sessionTestUpdates())
	frame, err := appendFrame(nil, msgUpdateBatch, payload)
	if err != nil {
		b.Fatal(err)
	}
	var (
		fr    frameReader
		names interner
		ups   []datagen.Update
	)
	r := bytes.NewReader(frame)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		_, p, err := fr.read(r)
		if err != nil {
			b.Fatal(err)
		}
		_, decoded, err := decodeUpdateBatch(p, ups[:0], names.intern)
		if err != nil {
			b.Fatal(err)
		}
		ups = decoded[:0]
	}
	b.ReportMetric(float64(b.N*64)/b.Elapsed().Seconds(), "updates/s")
}
