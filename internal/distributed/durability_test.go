package distributed

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/hashing"
	"setsketch/internal/wal"
)

func openTestLog(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{
		Config: testCoins.Config,
		Seed:   testCoins.Seed,
		Copies: testCoins.Copies,
		Sync:   wal.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// requireSameState asserts two coordinators hold bit-identical merged
// state: same streams, same counters in every family, same accounting.
func requireSameState(t *testing.T, want, got *Coordinator) {
	t.Helper()
	ws, gs := want.Streams(), got.Streams()
	if strings.Join(ws, ",") != strings.Join(gs, ",") {
		t.Fatalf("streams differ: %v vs %v", ws, gs)
	}
	for _, name := range ws {
		if !want.Family(name).Equal(got.Family(name)) {
			t.Fatalf("stream %q synopsis differs after recovery", name)
		}
	}
	if want.Updates() != got.Updates() {
		t.Fatalf("updates credited: want %d, got %d", want.Updates(), got.Updates())
	}
	wp, gp := want.Pushes(), got.Pushes()
	if len(wp) != len(gp) {
		t.Fatalf("site accounting differs: %v vs %v", wp, gp)
	}
	for site, n := range wp {
		if gp[site] != n {
			t.Fatalf("site %q accounting: want %d, got %d", site, n, gp[site])
		}
	}
}

// testWorkload drives a mixed mutation sequence — raw batches (the
// digest-packed WAL path with these coins), a 300-update synopsis
// delta, and a single-element delta — through a coordinator.
func testWorkload(t *testing.T, c *Coordinator) {
	t.Helper()
	rng := hashing.NewRNG(42)
	var ups []datagen.Update
	for i := 0; i < 400; i++ {
		stream := "A"
		if i%3 == 0 {
			stream = "B"
		}
		ups = append(ups, datagen.Update{Stream: stream, Elem: rng.Uint64n(1 << 20), Delta: 1})
	}
	if err := c.ApplyUpdates("edge1", ups[:200]); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyUpdates("edge1", ups[200:]); err != nil {
		t.Fatal(err)
	}
	delta, _ := testCoins.NewFamily()
	for i := 0; i < 300; i++ {
		delta.Insert(rng.Uint64n(1 << 20))
	}
	if err := c.ApplyDelta("edge2", "C", delta, 300); err != nil {
		t.Fatal(err)
	}
	single, _ := testCoins.NewFamily()
	single.Insert(7777)
	if err := c.ApplyDelta("edge3", "A", single, 1); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorWALRecovery is the core durability property: a fresh
// coordinator recovering from the WAL alone (no snapshot, no clean
// close of the log — only fsynced appends survive, as after kill -9)
// rebuilds bit-identical state.
func TestCoordinatorWALRecovery(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewCoordinator(testCoins)
	l1 := openTestLog(t, dir)
	c1.AttachWAL(l1)
	testWorkload(t, c1)
	// No l1.Close(): simulate a crash. SyncAlways means every acked
	// mutation is already on disk.

	c2, _ := NewCoordinator(testCoins)
	l2 := openTestLog(t, dir)
	defer l2.Close()
	rs, err := c2.Recover(l2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotSeq != 0 {
		t.Errorf("unexpected snapshot: covering seq %d", rs.SnapshotSeq)
	}
	if rs.Replayed.Records == 0 || rs.Replayed.FirstSeq != 1 {
		t.Errorf("replay stats: %+v", rs.Replayed)
	}
	requireSameState(t, c1, c2)

	// The recovered coordinator answers queries over the rebuilt state.
	e1, err := c1.Estimate("A | B | C", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c2.Estimate("A | B | C", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Value != e2.Value {
		t.Errorf("estimates diverge after recovery: %v vs %v", e1.Value, e2.Value)
	}
	l1.Close()
}

// TestApplyUpdatesDigestPathBitIdentical pins the live non-WAL raw
// update path: ApplyUpdates coalesces each batch and pays the hash bill
// once through the shared batch digest kernel, and the resulting
// synopses must be bit-identical to per-element direct updates.
func TestApplyUpdatesDigestPathBitIdentical(t *testing.T) {
	if err := testCoins.Validate(); err != nil {
		t.Fatal(err)
	}
	c, _ := NewCoordinator(testCoins)
	g, err := datagen.NewLoadGen(datagen.LoadSpec{
		Streams: []string{"A", "B"},
		Domain:  datagen.DomainUniform,
		Support: 1 << 10,
		Theta:   1.0,
		Deletes: 0.3,
	}, hashing.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	ups := g.Updates(4096)
	want := map[string]*core.Family{}
	for _, name := range []string{"A", "B"} {
		want[name], _ = testCoins.NewFamily()
		for _, u := range ups {
			if u.Stream == name {
				want[name].Update(u.Elem, u.Delta)
			}
		}
	}
	for i := 0; i < len(ups); i += 256 {
		end := i + 256
		if end > len(ups) {
			end = len(ups)
		}
		if err := c.ApplyUpdates("site", ups[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"A", "B"} {
		if !c.Family(name).Equal(want[name]) {
			t.Errorf("stream %q: batched digest path diverges from direct updates", name)
		}
	}
	if c.Updates() != uint64(len(ups)) {
		t.Errorf("updates credited: want %d, got %d", len(ups), c.Updates())
	}
}

// TestCoordinatorSnapshotRecovery: recovery = last snapshot + WAL
// suffix. The replay must start exactly past the snapshot's covering
// sequence, and the result must be bit-identical to the uninterrupted
// coordinator.
func TestCoordinatorSnapshotRecovery(t *testing.T) {
	dir := t.TempDir()
	c1, _ := NewCoordinator(testCoins)
	l1 := openTestLog(t, dir)
	c1.AttachWAL(l1)
	testWorkload(t, c1)
	if err := c1.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	covered := l1.LastSeq()
	testWorkload(t, c1) // post-snapshot suffix to replay

	c2, _ := NewCoordinator(testCoins)
	l2 := openTestLog(t, dir)
	defer l2.Close()
	rs, err := c2.Recover(l2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotSeq != covered {
		t.Errorf("recovered from snapshot seq %d, want %d", rs.SnapshotSeq, covered)
	}
	if rs.Replayed.FirstSeq != covered+1 {
		t.Errorf("replay started at seq %d, want %d", rs.Replayed.FirstSeq, covered+1)
	}
	requireSameState(t, c1, c2)
	l1.Close()
}

// TestWALAppendFailureNotApplied is the write-ahead guarantee from the
// failure side: when the log cannot accept the record, the mutation
// must not be applied (and the frame would not be acked).
func TestWALAppendFailureNotApplied(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCoordinator(testCoins)
	l := openTestLog(t, dir)
	l.Close() // appends now fail
	c.AttachWAL(l)

	err := c.ApplyUpdates("s", []datagen.Update{{Stream: "A", Elem: 1, Delta: 1}})
	if err == nil {
		t.Fatal("ApplyUpdates succeeded against a closed WAL")
	}
	fam, _ := testCoins.NewFamily()
	fam.Insert(1)
	if err := c.ApplyDelta("s", "A", fam, 1); err == nil {
		t.Fatal("ApplyDelta succeeded against a closed WAL")
	}
	if got := c.Updates(); got != 0 {
		t.Errorf("updates credited despite append failure: %d", got)
	}
	if streams := c.Streams(); len(streams) != 0 {
		t.Errorf("streams materialized despite append failure: %v", streams)
	}
}

// TestSnapshotterLoop: the periodic snapshotter writes a snapshot soon
// after mutations land, and skips rounds when nothing new was logged.
func TestSnapshotterLoop(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCoordinator(testCoins)
	l := openTestLog(t, dir)
	defer l.Close()
	c.AttachWAL(l)
	s := StartSnapshotter(c, 10*time.Millisecond, nil)
	defer s.Stop()
	if err := c.ApplyUpdates("s", []datagen.Update{{Stream: "A", Elem: 9, Delta: 1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.LastSnapshotSeq() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshotter never wrote a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := l.LastSnapshotSeq(); got != l.LastSeq() {
		t.Errorf("snapshot covers seq %d, last appended is %d", got, l.LastSeq())
	}
	// Nil snapshotter (interval <= 0) is inert and Stop-safe.
	var nilSnap *Periodic = StartSnapshotter(c, 0, nil)
	nilSnap.Stop()
}

// TestServerCloseDrainsSessions: closing the server with open
// streaming sessions — one idle, one sending — returns promptly
// (no waiting out IdleTimeout) and never tears a dispatch mid-flight:
// every batch either errors at the client or is fully applied.
func TestServerCloseDrainsSessions(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	srv := NewServer(coord)
	srv.IdleTimeout = time.Hour // drain must not wait this out
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	idle, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := idle.OpenStream("idle", testCoins); err != nil {
		t.Fatal(err)
	}

	busy, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	sess, err := busy.OpenStream("busy", testCoins)
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	var mu sync.Mutex
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		for i := uint64(0); ; i++ {
			n, err := sess.SendUpdates([]datagen.Update{{Stream: "A", Elem: i, Delta: 1}})
			if err != nil {
				return
			}
			mu.Lock()
			acked = n
			mu.Unlock()
		}
	}()

	time.Sleep(20 * time.Millisecond) // let some batches through
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Close took %v with an idle session open", elapsed)
	}
	<-senderDone
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := coord.Updates(); got < acked {
		t.Errorf("coordinator credited %d updates, but %d were acked", got, acked)
	}
}
