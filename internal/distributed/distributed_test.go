package distributed

import (
	"bytes"
	"errors"
	"math"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/hashing"
	"setsketch/internal/ingest"
)

var testCoins = Coins{
	Config: core.Config{Buckets: 61, SecondLevel: 16, FirstWise: 8},
	Seed:   99,
	Copies: 256,
}

// sketchUpdates sketches ups serially into one family per stream from
// the coins: the in-process reference a site's synopses are built
// against.
func sketchUpdates(t testing.TB, coins Coins, ups []datagen.Update) map[string]*core.Family {
	t.Helper()
	fams := map[string]*core.Family{}
	for _, u := range ups {
		f, ok := fams[u.Stream]
		if !ok {
			var err error
			if f, err = coins.NewFamily(); err != nil {
				t.Fatal(err)
			}
			fams[u.Stream] = f
		}
		f.Update(u.Elem, u.Delta)
	}
	return fams
}

// applyFamilies merges each family into the coordinator as one delta
// from site, in sorted stream order, crediting count updates to each.
func applyFamilies(t testing.TB, c *Coordinator, site string, fams map[string]*core.Family, count uint64) {
	t.Helper()
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := c.ApplyDelta(site, name, fams[name], count); err != nil {
			t.Fatalf("stream %q: %v", name, err)
		}
	}
}

// inserts renders elems as +1 updates to stream.
func inserts(stream string, elems ...uint64) []datagen.Update {
	ups := make([]datagen.Update, len(elems))
	for i, e := range elems {
		ups[i] = datagen.Update{Stream: stream, Elem: e, Delta: 1}
	}
	return ups
}

func TestCoinsValidate(t *testing.T) {
	if err := testCoins.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testCoins
	bad.Copies = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero copies accepted")
	}
	bad = testCoins
	bad.Config.SecondLevel = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewCoordinator(bad); err == nil {
		t.Error("NewCoordinator accepted bad coins")
	}
}

// TestDistributedMergeMatchesCentralized is the stored-coins guarantee:
// a stream split across two sites merges at the coordinator into
// exactly the synopsis a single observer would have built.
func TestDistributedMergeMatchesCentralized(t *testing.T) {
	var site1, site2 []datagen.Update
	central, _ := testCoins.NewFamily()

	rng := hashing.NewRNG(5)
	for i := 0; i < 3000; i++ {
		e := rng.Uint64n(1 << 24)
		central.Insert(e)
		if i%2 == 0 {
			site1 = append(site1, inserts("A", e)...)
		} else {
			site2 = append(site2, inserts("A", e)...)
		}
	}
	coord, _ := NewCoordinator(testCoins)
	applyFamilies(t, coord, "s1", sketchUpdates(t, testCoins, site1), uint64(len(site1)))
	applyFamilies(t, coord, "s2", sketchUpdates(t, testCoins, site2), uint64(len(site2)))
	merged := coord.Family("A")
	if merged == nil || !merged.Equal(central) {
		t.Fatal("distributed merge differs from centralized synopsis")
	}
	pushes := coord.Pushes()
	if pushes["s1"] != 1 || pushes["s2"] != 1 {
		t.Errorf("delta accounting: %v", pushes)
	}
	if coord.Updates() != 3000 {
		t.Errorf("credited %d updates, want 3000", coord.Updates())
	}
	if coord.Family("missing") != nil {
		t.Error("unknown stream returned a synopsis")
	}
}

// TestFlushPeriodicCollection: successive ingest-engine flushes carry
// disjoint increments whose additive merge equals the full-stream
// synopsis, and each flush leaves the site's synopsis empty.
func TestFlushPeriodicCollection(t *testing.T) {
	eng, err := ingest.New(testCoins.Config, testCoins.Seed, testCoins.Copies, ingest.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	coord, _ := NewCoordinator(testCoins)
	central, _ := testCoins.NewFamily()

	rng := hashing.NewRNG(17)
	for epoch := 0; epoch < 4; epoch++ {
		for i := 0; i < 500; i++ {
			e := rng.Uint64n(1 << 20)
			if err := eng.Update("A", e, 1); err != nil {
				t.Fatal(err)
			}
			central.Insert(e)
		}
		applyFamilies(t, coord, "s", eng.Flush(), 500)
	}
	merged := coord.Family("A")
	if merged == nil || !merged.Equal(central) {
		t.Fatal("merged periodic flushes differ from the full-stream synopsis")
	}
	empty, _ := testCoins.NewFamily()
	if !eng.Snapshot()["A"].Equal(empty) {
		t.Error("Flush did not reset the site synopsis")
	}
}

func TestCoordinatorRejectsWrongCoins(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	wrong := testCoins
	wrong.Seed = 123
	fam, _ := wrong.NewFamily()
	if err := coord.ApplyDelta("s", "A", fam, 1); !errors.Is(err, core.ErrNotAligned) {
		t.Errorf("wrong-coins delta: err = %v, want ErrNotAligned", err)
	}
	if err := coord.ApplyDelta("s", "A", nil, 1); err == nil {
		t.Error("nil synopsis accepted")
	}
	shorter := testCoins
	shorter.Copies = 8
	fam2, _ := shorter.NewFamily()
	if err := coord.ApplyDelta("s", "A", fam2, 1); !errors.Is(err, core.ErrNotAligned) {
		t.Errorf("wrong-copy-count delta: err = %v, want ErrNotAligned", err)
	}
}

func TestCoordinatorEstimate(t *testing.T) {
	// Two streams observed at two sites each; query |A & B| centrally.
	coord, _ := NewCoordinator(testCoins)
	sites := make([][]datagen.Update, 2)
	rng := hashing.NewRNG(6)
	const u, inter = 2048, 512
	for i := 0; i < u; i++ {
		e := rng.Uint64n(1 << 30)
		switch {
		case i < inter:
			sites[i%2] = append(sites[i%2], inserts("A", e)...)
			sites[i%2] = append(sites[i%2], inserts("B", e)...)
		case i%2 == 0:
			sites[i%2] = append(sites[i%2], inserts("A", e)...)
		default:
			sites[i%2] = append(sites[i%2], inserts("B", e)...)
		}
	}
	for k, ups := range sites {
		applyFamilies(t, coord, []string{"s1", "s2"}[k], sketchUpdates(t, testCoins, ups), 1)
	}
	est, err := coord.Estimate("A & B", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Plumbing test, not an accuracy test (accuracy is covered in
	// internal/core): allow generous statistical slack at r = 256.
	if rel := math.Abs(est.Value-inter) / inter; rel > 0.6 {
		t.Errorf("distributed intersection estimate %.0f, want ≈ %d", est.Value, inter)
	}
	if _, err := coord.Estimate("A &", 0.2); err == nil {
		t.Error("malformed query accepted")
	}
	if _, err := coord.Estimate("A & MISSING", 0.2); err == nil {
		t.Error("query over unknown stream accepted")
	}
}

// startServer runs a coordinator server on a loopback listener.
func startServer(t *testing.T, coord *Coordinator) (addr string, shutdown func()) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(coord)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return l.Addr().String(), func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	}
}

func TestNetworkEndToEnd(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()

	// Site side: summarize locally, ship the synopses over a session.
	var ups []datagen.Update
	rng := hashing.NewRNG(7)
	const u, inter = 1024, 256
	for i := 0; i < u; i++ {
		e := rng.Uint64n(1 << 28)
		switch {
		case i < inter:
			ups = append(ups, inserts("A", e)...)
			ups = append(ups, inserts("B", e)...)
		case i%2 == 0:
			ups = append(ups, inserts("A", e)...)
		default:
			ups = append(ups, inserts("B", e)...)
		}
	}
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sess, err := cli.OpenStream("edge", testCoins)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SendFlush(sketchUpdates(t, testCoins, ups), uint64(len(ups))); err != nil {
		t.Fatal(err)
	}

	names, err := cli.Streams()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Streams over network = %v", names)
	}

	est, err := cli.Query("A & B", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-inter) / inter; rel > 0.5 {
		t.Errorf("network intersection estimate %.0f, want ≈ %d", est.Value, inter)
	}
	if est.Copies != testCoins.Copies {
		t.Errorf("estimate diagnostics lost in transit: %+v", est)
	}

	// Remote errors must round-trip as errors, not garbage.
	if _, err := cli.Query("A & NOPE", 0.25); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("remote error lost: %v", err)
	}
	wrong := testCoins
	wrong.Seed = 5
	badFam, _ := wrong.NewFamily()
	if _, err := sess.SendDelta("A", badFam, 1); err == nil {
		t.Error("wrong-coins delta accepted over network")
	}
}

func TestNetworkConcurrentSites(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()

	const sites = 4
	var wg sync.WaitGroup
	errs := make(chan error, sites)
	for si := 0; si < sites; si++ {
		rng := hashing.NewRNG(uint64(si) + 100)
		var ups []datagen.Update
		for i := 0; i < 500; i++ {
			ups = append(ups, inserts("A", rng.Uint64n(1<<20))...)
		}
		fams := sketchUpdates(t, testCoins, ups)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			sess, err := cli.OpenStream("site", testCoins)
			if err != nil {
				errs <- err
				return
			}
			errs <- sess.SendFlush(fams, 500)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := coord.Pushes()["site"]; got != sites {
		t.Errorf("coordinator merged %d deltas, want %d", got, sites)
	}
	if got := coord.Updates(); got != sites*500 {
		t.Errorf("coordinator credited %d updates, want %d", got, sites*500)
	}
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Query("A", 0.3); err != nil {
		t.Fatalf("distinct-count query failed: %v", err)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	addr, shutdown := startServer(t, coord)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Unknown frame type must produce an error reply, not a hangup.
	if err := writeFrame(conn, 0x55, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	typ, _, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgError {
		t.Errorf("reply type %#x, want msgError", typ)
	}
	// Undecodable query payload: error reply.
	if err := writeFrame(conn, msgQuery, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, _, err = readFrame(conn)
	if err != nil || typ != msgError {
		t.Errorf("garbled query: type %#x err %v", typ, err)
	}
	// The retired one-shot push type (0x01) is an unknown request now.
	if err := writeFrame(conn, 0x01, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, _, err = readFrame(conn)
	if err != nil || typ != msgError {
		t.Errorf("retired push frame: type %#x err %v", typ, err)
	}
}

func TestFrameLimits(t *testing.T) {
	var sink deadWriter
	if err := writeFrame(&sink, msgQuery, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame written")
	}
	// A header advertising an oversized payload must be rejected before
	// any allocation.
	var hdr [5]byte
	hdr[0] = msgQuery
	hdr[1], hdr[2], hdr[3], hdr[4] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Error("oversized frame header accepted")
	}
}

func TestServerDoubleCloseAndReuse(t *testing.T) {
	coord, _ := NewCoordinator(testCoins)
	srv := NewServer(coord)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close errored")
	}
	// Serving a closed server fails fast.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := srv.Serve(l); err == nil {
		t.Error("Serve after Close succeeded")
	}
}

type deadWriter struct{}

func (deadWriter) Write(p []byte) (int, error) { return len(p), nil }
