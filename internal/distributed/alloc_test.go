package distributed

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"setsketch/internal/datagen"
)

// Allocation pins for the wire hot path, in the spirit of core's
// TestEstimateSerialAllocFree: the session frame codec, the framed
// read/write paths on both ends, and the coordinator's warm serial
// estimate must not allocate per operation. Regressions here silently
// tax every frame of every streaming session, so they fail loudly.

// ackConn is an in-memory net.Conn that answers every written session
// frame with a well-formed binary ack echoing the frame's sequence
// number — the minimal alloc-free peer for client-side pins.
type ackConn struct {
	ack [frameHeaderLen + 16]byte
	pos int
}

func (c *ackConn) Write(p []byte) (int, error) {
	if len(p) < frameHeaderLen+8 {
		return 0, io.ErrShortWrite
	}
	seq := binary.LittleEndian.Uint64(p[frameHeaderLen:])
	c.ack[0] = msgAck
	binary.BigEndian.PutUint32(c.ack[1:frameHeaderLen], 16)
	binary.LittleEndian.PutUint64(c.ack[frameHeaderLen:], seq)
	binary.LittleEndian.PutUint64(c.ack[frameHeaderLen+8:], 0)
	c.pos = 0
	return len(p), nil
}

func (c *ackConn) Read(p []byte) (int, error) {
	if c.pos >= len(c.ack) {
		return 0, io.EOF
	}
	n := copy(p, c.ack[c.pos:])
	c.pos += n
	return n, nil
}

func (c *ackConn) Close() error                       { return nil }
func (c *ackConn) LocalAddr() net.Addr                { return nil }
func (c *ackConn) RemoteAddr() net.Addr               { return nil }
func (c *ackConn) SetDeadline(t time.Time) error      { return nil }
func (c *ackConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *ackConn) SetWriteDeadline(t time.Time) error { return nil }

// nullConn discards writes; the server-side frame write target.
type nullConn struct{ ackConn }

func (c *nullConn) Write(p []byte) (int, error) { return len(p), nil }

func sessionTestUpdates() []datagen.Update {
	ups := make([]datagen.Update, 64)
	for i := range ups {
		ups[i] = datagen.Update{Stream: "ab", Elem: uint64(i * 977), Delta: 1}
		if i%2 == 1 {
			ups[i].Stream = "cd"
		}
	}
	return ups
}

// TestSessionFrameCodecAllocFree pins the client side: encoding and
// sending an update batch, a synopsis delta, or a heartbeat — including
// reading and decoding the ack — allocates nothing once the session's
// scratch buffers have grown to their working size.
func TestSessionFrameCodecAllocFree(t *testing.T) {
	sess := &StreamSession{c: &Client{conn: &ackConn{}}, site: "pin"}
	ups := sessionTestUpdates()
	fam, err := testCoins.NewFamily()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		fam.Update(i, 1)
	}
	// Warm the scratch buffers.
	if _, err := sess.SendUpdates(ups); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SendDelta("ab", fam, 100); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.SendUpdates(ups); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SendUpdates allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.SendDelta("ab", fam, 100); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SendDelta allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sess.Heartbeat(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Heartbeat allocates %.1f objects/op, want 0", allocs)
	}
}

// TestServerFramePathAllocFree pins the server side: reading a frame
// into the connection buffer, decoding an update batch through the
// stream-name interner, and framing + writing the binary ack are all
// allocation-free at steady state. (Reconstructing a delta's family is
// excluded — a decoded synopsis is a fresh *core.Family by design.)
func TestServerFramePathAllocFree(t *testing.T) {
	payload := appendUpdateBatch(nil, 7, sessionTestUpdates())
	frame, err := appendFrame(nil, msgUpdateBatch, payload)
	if err != nil {
		t.Fatal(err)
	}
	st := &connState{srv: &Server{met: newServerMetrics(nil)}, conn: &nullConn{}}
	r := bytes.NewReader(frame)

	runOnce := func() {
		r.Reset(frame)
		typ, p, err := st.fr.read(r)
		if err != nil || typ != msgUpdateBatch {
			t.Fatalf("frame read: type %#x, err %v", typ, err)
		}
		seq, ups, err := decodeUpdateBatch(p, st.ups[:0], st.names.intern)
		st.ups = ups[:0]
		if err != nil {
			t.Fatal(err)
		}
		reply, replyTyp := st.ackReply(seq)
		if err := st.write(replyTyp, reply); err != nil {
			t.Fatal(err)
		}
	}
	runOnce() // warm buffers and the interner
	if allocs := testing.AllocsPerRun(100, runOnce); allocs != 0 {
		t.Errorf("update-batch read+decode+ack allocates %.1f objects/op, want 0", allocs)
	}

	// Delta envelope: seq/count/stream/synopsis slicing is alloc-free.
	dpayload := appendDeltaHeader(nil, 9, "ab", 42)
	dpayload = append(dpayload, 0xde, 0xad)
	warmDelta := func() {
		seq, count, stream, syn, err := decodeDelta(dpayload)
		if err != nil || seq != 9 || count != 42 || string(stream) != "ab" || len(syn) != 2 {
			t.Fatalf("delta envelope decode broken: %d %d %q %d %v", seq, count, stream, len(syn), err)
		}
	}
	warmDelta()
	if allocs := testing.AllocsPerRun(100, warmDelta); allocs != 0 {
		t.Errorf("delta envelope decode allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCoordinatorEstimateSerialAllocFree extends core's serial-estimate
// pin across the coordinator: with the expression compiled (warm cache)
// and the occupancy views warm, a serial ad-hoc Estimate allocates
// nothing per call.
func TestCoordinatorEstimateSerialAllocFree(t *testing.T) {
	coord, err := NewCoordinator(testCoins)
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []string{"A", "B"} {
		fam, err := testCoins.NewFamily()
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			fam.Update(i*3%700, 1)
		}
		if err := coord.ApplyDelta("site", stream, fam, 1); err != nil {
			t.Fatal(err)
		}
	}
	const exprSrc = "A | B"
	if _, err := coord.Estimate(exprSrc, 0.15); err != nil {
		t.Fatal(err) // compile the expression, warm the views
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := coord.Estimate(exprSrc, 0.15); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm serial Estimate allocates %.1f objects/op, want 0", allocs)
	}
}
