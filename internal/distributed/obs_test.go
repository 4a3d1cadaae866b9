package distributed

import (
	"net"
	"strings"
	"testing"
	"time"

	"setsketch/internal/obs"
)

// startObservedServer is startServer with a metrics registry attached
// to both the server and its coordinator.
func startObservedServer(t *testing.T, coord *Coordinator, reg *obs.Registry) (addr string, shutdown func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord.SetObservability(reg, nil)
	srv := NewServer(coord)
	srv.SetObservability(reg, nil)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return l.Addr().String(), func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	}
}

// TestSessionMetricsAckPath: one streaming session exercising every
// session frame type leaves exact per-type frame counts, session
// counters, and coordinator ingest counters in the registry, and a
// reconnecting site is counted as a reopen.
func TestSessionMetricsAckPath(t *testing.T) {
	reg := obs.NewRegistry()
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startObservedServer(t, coord, reg)
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
	ups := sessionUpdates(11, 100)
	if _, err := sess.SendUpdates(ups); err != nil {
		t.Fatal(err)
	}
	fams := sketchUpdates(t, testCoins, sessionUpdates(12, 50))
	for name, fam := range fams {
		if _, err := sess.SendDelta(name, fam, 0); err != nil {
			t.Fatal(err)
		}
	}
	deltas := uint64(len(fams))
	if _, err := sess.Heartbeat(); err != nil {
		t.Fatal(err)
	}

	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	recv := func(typ string) uint64 {
		return counter(obs.Label("stream_frames_received_total", "type", typ))
	}
	sent := func(typ string) uint64 {
		return counter(obs.Label("stream_frames_sent_total", "type", typ))
	}
	// The server counts a reply only after its conn.Write returns, so
	// the client can read the heartbeat's ack before the server has
	// counted it: wait for the last reply's accounting first.
	wantHandled := uint64(3 + deltas) // hello + batch + deltas + heartbeat
	handled := func() uint64 { return reg.Histogram("stream_handle_seconds", "", nil).Count() }
	for deadline := time.Now().Add(5 * time.Second); (sent("ack") < deltas+2 || handled() < wantHandled) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	for typ, want := range map[string]uint64{
		"hello": 1, "update_batch": 1, "delta": deltas, "heartbeat": 1, "unknown": 0,
	} {
		if got := recv(typ); got != want {
			t.Errorf("frames received type=%s = %d, want %d", typ, got, want)
		}
	}
	if got, want := sent("ack"), deltas+2; got != want {
		t.Errorf("acks sent = %d, want %d", got, want)
	}
	if got := sent("ok"); got != 1 {
		t.Errorf("ok frames sent = %d, want 1", got)
	}
	if got := sent("error"); got != 0 {
		t.Errorf("error frames sent = %d, want 0", got)
	}
	if got := counter("stream_sessions_opened_total"); got != 1 {
		t.Errorf("sessions opened = %d, want 1", got)
	}
	if got := counter("stream_session_reopens_total"); got != 0 {
		t.Errorf("session reopens = %d, want 0", got)
	}
	if got := counter("stream_heartbeats_total"); got != 1 {
		t.Errorf("heartbeats = %d, want 1", got)
	}
	if got := counter("coord_raw_update_batches_total"); got != 1 {
		t.Errorf("raw batches = %d, want 1", got)
	}
	if got := counter("coord_raw_updates_total"); got != 100 {
		t.Errorf("raw updates = %d, want 100", got)
	}
	if got := counter("coord_deltas_merged_total"); got != deltas {
		t.Errorf("deltas merged = %d, want %d", got, deltas)
	}
	// Every replied frame passed through the ack-latency histogram.
	if got := handled(); got != wantHandled {
		t.Errorf("handle latency observations = %d, want %d", got, wantHandled)
	}

	// A site that comes back is a reopen, not a fresh session.
	cli2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if _, err := cli2.OpenStream("edge", testCoins); err != nil {
		t.Fatal(err)
	}
	if got := counter("stream_session_reopens_total"); got != 1 {
		t.Errorf("session reopens after reconnect = %d, want 1", got)
	}
}

// TestWatchSlowConsumerMetrics: an undrained watcher accumulates
// delivered/dropped counts and is unregistered as a slow consumer,
// visible both on the Watcher and in the watch_* counters.
func TestWatchSlowConsumerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	coord, _ := NewCoordinator(testCoins)
	coord.SetObservability(reg, nil)
	w, err := coord.Watch(WatchSpec{
		Exprs: []string{"A"}, Eps: 0.2, EveryUpdates: 1, Buffer: 1, MaxDrops: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := coord.ApplyUpdates("s", sessionUpdates(uint64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for open := true; open; {
		select {
		case _, ok := <-w.C:
			open = ok
		case <-deadline:
			t.Fatal("watcher channel never closed")
		}
	}
	if !strings.Contains(w.Reason(), "slow consumer") {
		t.Errorf("drop reason = %q, want slow consumer", w.Reason())
	}
	counter := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := counter("watch_rounds_total"); got != 3 {
		t.Errorf("watch rounds = %d, want 3", got)
	}
	if got := counter("watch_evaluations_total"); got != 3 {
		t.Errorf("watch evaluations = %d, want 3", got)
	}
	if got := counter("watch_results_delivered_total"); got != 1 {
		t.Errorf("results delivered = %d, want 1", got)
	}
	if got := counter("watch_results_dropped_total"); got != 2 {
		t.Errorf("results dropped = %d, want 2", got)
	}
	if got := counter("watch_slow_consumer_drops_total"); got != 1 {
		t.Errorf("slow-consumer drops = %d, want 1", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "watch_slow_consumer_drops_total 1") {
		t.Error("exposition missing slow-consumer drop count")
	}
}

// TestWatchTerminalEvent: when the coordinator ends a watch, the
// protocol client's event stream ends with a Terminal event carrying
// the server's reason instead of closing silently.
func TestWatchTerminalEvent(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	events, err := cli.Watch([]string{"A"}, 0.2, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if coord.Watchers() != 1 {
		t.Fatalf("watchers = %d, want 1", coord.Watchers())
	}
	coord.CloseWatchers("coordinator shutting down")

	var last WatchEvent
	sawTerminal := false
	deadline := time.After(5 * time.Second)
	for !sawTerminal {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("event channel closed without a terminal event (last %+v)", last)
			}
			last = ev
			sawTerminal = ev.Terminal
		case <-deadline:
			t.Fatal("no terminal event before deadline")
		}
	}
	if !strings.Contains(last.Err, "watch terminated: coordinator shutting down") {
		t.Errorf("terminal reason = %q, want coordinator shutdown reason", last.Err)
	}
	if _, ok := <-events; ok {
		t.Error("events delivered after the terminal event")
	}
}
