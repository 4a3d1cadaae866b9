package distributed

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"setsketch/internal/datagen"
	"setsketch/internal/hashing"
	"setsketch/internal/ingest"
)

func sessionUpdates(seed uint64, n int) []datagen.Update {
	rng := hashing.NewRNG(seed)
	streams := []string{"A", "B"}
	ups := make([]datagen.Update, 0, n)
	for i := 0; i < n; i++ {
		ups = append(ups, datagen.Update{
			Stream: streams[rng.Uint64n(2)],
			Elem:   rng.Uint64n(1 << 22),
			Delta:  1,
		})
	}
	return ups
}

// TestStreamingSessionRawUpdates: sessions forwarding raw update
// batches yield coordinator synopses bit-identical to an in-process
// build of the same updates — the linearity exactness the protocol
// depends on — while each session stays open across batches and
// heartbeats.
// With several sessions, each on its own connection and site, all
// stream concurrently into one coordinator (run under -race by
// scripts/check.sh), so the concurrent session paths are covered too.
func TestStreamingSessionRawUpdates(t *testing.T) {
	ups := sessionUpdates(21, 2000)

	want := sketchUpdates(t, testCoins, ups)

	for _, sessions := range []int{1, 3} {
		t.Run(fmt.Sprintf("sessions=%d", sessions), func(t *testing.T) {
			coord, _ := NewCoordinator(testCoins)
			addr, shutdown := startServer(t, coord)
			defer shutdown()
			var wg sync.WaitGroup
			for k := 0; k < sessions; k++ {
				// Session k streams a contiguous share of the updates.
				part := ups[k*len(ups)/sessions : (k+1)*len(ups)/sessions]
				wg.Add(1)
				go func(k int, part []datagen.Update) {
					defer wg.Done()
					if err := streamRawUpdates(addr, fmt.Sprintf("edge-%d", k), part); err != nil {
						t.Errorf("session %d: %v", k, err)
					}
				}(k, part)
			}
			wg.Wait()
			for _, name := range []string{"A", "B"} {
				if got := coord.Family(name); got == nil || !got.Equal(want[name]) {
					t.Errorf("stream %q: streamed synopsis differs from the in-process build", name)
				}
			}
			if coord.Updates() != uint64(len(ups)) {
				t.Errorf("coordinator credited %d updates, want %d", coord.Updates(), len(ups))
			}
		})
	}
}

// streamRawUpdates opens its own connection and session as site and
// forwards ups in batches of 250 with a heartbeat after each; the
// session's final acked count must equal what it sent.
func streamRawUpdates(addr, site string, ups []datagen.Update) error {
	cli, err := Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	sess, err := cli.OpenStream(site, testCoins)
	if err != nil {
		return err
	}
	var accepted uint64
	for i := 0; i < len(ups); i += 250 {
		end := min(i+250, len(ups))
		if accepted, err = sess.SendUpdates(ups[i:end]); err != nil {
			return err
		}
		if _, err := sess.Heartbeat(); err != nil {
			return err
		}
	}
	if accepted != uint64(len(ups)) {
		return fmt.Errorf("session accepted %d updates, want %d", accepted, len(ups))
	}
	return nil
}

// TestStreamingSessionDeltas: an ingest engine flushing periodic
// deltas over a session reconstructs — by linearity, exactly — the
// synopsis a single delta of all updates produces.
func TestStreamingSessionDeltas(t *testing.T) {
	ups := sessionUpdates(22, 3000)

	refCoord, _ := NewCoordinator(testCoins)
	applyFamilies(t, refCoord, "ref", sketchUpdates(t, testCoins, ups), 1)

	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sess, err := cli.OpenStream("edge", testCoins)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := ingest.New(testCoins.Config, testCoins.Seed, testCoins.Copies,
		ingest.Options{Workers: 3, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var sinceFlush uint64
	for i, u := range ups {
		if err := eng.Update(u.Stream, u.Elem, u.Delta); err != nil {
			t.Fatal(err)
		}
		sinceFlush++
		if (i+1)%700 == 0 || i == len(ups)-1 {
			if err := sess.SendFlush(eng.Flush(), sinceFlush); err != nil {
				t.Fatal(err)
			}
			sinceFlush = 0
		}
	}
	for _, name := range []string{"A", "B"} {
		got, want := coord.Family(name), refCoord.Family(name)
		if got == nil || !got.Equal(want) {
			t.Errorf("stream %q: delta-streamed synopsis differs from a single delta", name)
		}
	}
	// Delta counts keep the coordinator's update accounting exact.
	if coord.Updates() != uint64(len(ups)) {
		t.Errorf("coordinator credited %d updates, want %d", coord.Updates(), len(ups))
	}
	// The estimates agree, since the underlying synopses are identical.
	got, err := coord.Estimate("A | B", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refCoord.Estimate("A | B", 0.2)
	if got.Value != want.Value {
		t.Errorf("streamed estimate %.1f != single-delta estimate %.1f", got.Value, want.Value)
	}
}

// TestSessionRejections: coins mismatch on hello, session frames
// before hello, and garbled session payloads all produce clean error
// replies without killing the server.
func TestSessionRejections(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Session frames before hello are rejected.
	sess := &StreamSession{c: cli, site: "rogue"}
	if _, err := sess.SendUpdates(sessionUpdates(1, 3)); err == nil ||
		!strings.Contains(err.Error(), "hello") {
		t.Errorf("pre-hello batch: err = %v, want hello-required rejection", err)
	}
	fam, _ := testCoins.NewFamily()
	if _, err := sess.SendDelta("A", fam, 1); err == nil ||
		!strings.Contains(err.Error(), "hello") {
		t.Errorf("pre-hello delta: err = %v, want hello-required rejection", err)
	}

	// Coins mismatch on hello is rejected.
	wrong := testCoins
	wrong.Seed = 1234
	if _, err := cli.OpenStream("edge", wrong); err == nil ||
		!strings.Contains(err.Error(), "coins mismatch") {
		t.Errorf("wrong-coins hello: err = %v, want coins mismatch", err)
	}
	wrong = testCoins
	wrong.Copies = testCoins.Copies / 2
	if _, err := cli.OpenStream("edge", wrong); err == nil ||
		!strings.Contains(err.Error(), "coins mismatch") {
		t.Errorf("wrong-copy-count hello: err = %v, want coins mismatch", err)
	}
	if _, err := cli.OpenStream("", testCoins); err == nil {
		t.Error("empty site name accepted")
	}

	// The connection is still usable for a correct handshake.
	good, err := cli.OpenStream("edge", testCoins)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.Heartbeat(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionProtocolErrorPaths: truncated frames, oversized frames,
// unknown types, and garbled payloads on a live session connection.
func TestSessionProtocolErrorPaths(t *testing.T) {
	// Truncated frame: header advertises more payload than arrives.
	short := strings.NewReader("\x05\x00\x00\x00\x10abc")
	if _, _, err := readFrame(short); err == nil {
		t.Error("truncated frame accepted")
	}
	// Truncated header.
	if _, _, err := readFrame(strings.NewReader("\x05\x00")); err == nil {
		t.Error("truncated header accepted")
	}

	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Oversized frame header on a session type: rejected client-side by
	// writeFrame, and a hand-built oversized header kills no server.
	if err := writeFrame(conn, msgUpdateBatch, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized session frame written")
	}

	// Garbled payloads for every session type produce error replies.
	for _, typ := range []byte{msgHello, msgUpdateBatch, msgDelta, msgHeartbeat, msgWatch} {
		if err := writeFrame(conn, typ, []byte{0xff, 0x01}); err != nil {
			t.Fatal(err)
		}
		replyTyp, _, err := readFrame(conn)
		if err != nil {
			t.Fatalf("type %#x: server hung up on garbage: %v", typ, err)
		}
		if replyTyp != msgError {
			t.Errorf("type %#x: reply %#x, want msgError", typ, replyTyp)
		}
	}

	// Unknown type still answered after session traffic.
	if err := writeFrame(conn, 0x66, nil); err != nil {
		t.Fatal(err)
	}
	if replyTyp, _, err := readFrame(conn); err != nil || replyTyp != msgError {
		t.Errorf("unknown type: reply %#x err %v", replyTyp, err)
	}
}

// TestWatchContinuousQuery: a standing query re-evaluates every N
// accepted updates and streams results over the network, and the ack
// sequence numbers line up.
func TestWatchContinuousQuery(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()

	watchCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer watchCli.Close()
	events, err := watchCli.Watch([]string{"A | B", "A & B"}, 0.2, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The connection is now dedicated: further requests fail fast.
	if _, err := watchCli.Streams(); err == nil {
		t.Error("request accepted on a watching connection")
	}

	siteCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer siteCli.Close()
	sess, err := siteCli.OpenStream("edge", testCoins)
	if err != nil {
		t.Fatal(err)
	}
	ups := sessionUpdates(30, 1500)
	for i := 0; i < len(ups); i += 250 {
		if _, err := sess.SendUpdates(ups[i : i+250]); err != nil {
			t.Fatal(err)
		}
	}

	// 1500 updates at every-500 → 3 rounds × 2 expressions.
	got := make(map[string]int)
	var lastUnion WatchEvent
	for i := 0; i < 6; i++ {
		select {
		case ev := <-events:
			if ev.Err != "" {
				t.Fatalf("watch event error: %s", ev.Err)
			}
			got[ev.Expr]++
			if ev.Expr == "A | B" {
				lastUnion = ev
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for watch results; got %v", got)
		}
	}
	if got["A | B"] != 3 || got["A & B"] != 3 {
		t.Errorf("rounds per expression = %v, want 3 each", got)
	}
	if lastUnion.Updates != 1500 || lastUnion.Epoch != 3 {
		t.Errorf("last union event at updates=%d epoch=%d, want 1500/3", lastUnion.Updates, lastUnion.Epoch)
	}
	if lastUnion.Est.Value <= 0 {
		t.Errorf("union estimate %.1f, want positive", lastUnion.Est.Value)
	}

	// Invalid watch registrations are rejected.
	badCli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer badCli.Close()
	if _, err := badCli.Watch([]string{"A &"}, 0.2, 100, 0); err == nil {
		t.Error("malformed watch expression accepted")
	}
	if _, err := badCli.Watch(nil, 0.2, 100, 0); err == nil {
		t.Error("empty watch accepted")
	}
	if _, err := badCli.Watch([]string{"A"}, 0.2, 0, 0); err == nil {
		t.Error("watch with no trigger accepted")
	}
}

// TestWatchSlowConsumerDropped: a watcher that stops draining its
// bounded queue is dropped — channel closed with a slow-consumer
// reason — while a healthy watcher on the same coordinator keeps
// receiving results; ingest never blocks.
func TestWatchSlowConsumerDropped(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	slow, err := coord.Watch(WatchSpec{
		Exprs: []string{"A"}, Eps: 0.3, EveryUpdates: 10, Buffer: 2, MaxDrops: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := coord.Watch(WatchSpec{
		Exprs: []string{"A"}, Eps: 0.3, EveryUpdates: 10, Buffer: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if coord.Watchers() != 2 {
		t.Fatalf("%d watchers registered, want 2", coord.Watchers())
	}

	// Nobody drains `slow`: buffer 2 fills, then 3 more drops trip it.
	rng := hashing.NewRNG(8)
	for round := 0; round < 10; round++ {
		ups := make([]datagen.Update, 10)
		for i := range ups {
			ups[i] = datagen.Update{Stream: "A", Elem: rng.Uint64n(1 << 20), Delta: 1}
		}
		if err := coord.ApplyUpdates("s", ups); err != nil {
			t.Fatal(err)
		}
	}
	if coord.Watchers() != 1 {
		t.Errorf("%d watchers left, want 1 (slow one dropped)", coord.Watchers())
	}
	if reason := slow.Reason(); !strings.Contains(reason, "slow consumer") {
		t.Errorf("drop reason = %q, want slow consumer", reason)
	}
	// The channel is closed after the buffered backlog.
	n := 0
	for range slow.C {
		n++
	}
	if n != 2 {
		t.Errorf("slow watcher got %d buffered results, want 2", n)
	}
	// The healthy watcher saw every round.
	if len(healthy.C) != 10 {
		t.Errorf("healthy watcher has %d results, want 10", len(healthy.C))
	}
	healthy.Close()
	if coord.Watchers() != 0 {
		t.Errorf("%d watchers after close, want 0", coord.Watchers())
	}
	// Closing twice is safe; delivering after close is a no-op.
	healthy.Close()
}

// TestWatchTickAndInterval: Tick forces a round for all watchers, and
// an interval-only watcher fires without any updates.
func TestWatchTickAndInterval(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	w, err := coord.Watch(WatchSpec{Exprs: []string{"A"}, EveryUpdates: 1 << 60})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	coord.Tick()
	select {
	case res := <-w.C:
		if res.Epoch != 1 {
			t.Errorf("tick round epoch = %d, want 1", res.Epoch)
		}
		// No stream "A" yet: the round reports the evaluation error.
		if res.Err == "" {
			t.Error("expected evaluation error for unknown stream")
		}
	case <-time.After(time.Second):
		t.Fatal("Tick produced no result")
	}

	iw, err := coord.Watch(WatchSpec{Exprs: []string{"A"}, Interval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer iw.Close()
	select {
	case <-iw.C:
	case <-time.After(2 * time.Second):
		t.Fatal("interval watcher never fired")
	}
}
