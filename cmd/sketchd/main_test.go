package main

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/ingest"
)

// startCoordinator runs an in-process coordinator server matching the
// default coin flags with small copies for speed, and returns the
// coordinator so a test can read its merged families.
func startCoordinator(t *testing.T, coins distributed.Coins) (*distributed.Coordinator, string, func()) {
	t.Helper()
	coord, err := distributed.NewCoordinator(coins)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := distributed.NewServer(coord)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	return coord, l.Addr().String(), func() {
		srv.Close()
		<-done
	}
}

func testCoins() distributed.Coins {
	cfg := core.DefaultConfig()
	cfg.SecondLevel = 8
	return distributed.Coins{Config: cfg, Seed: 1, Copies: 64}
}

func writeUpdates(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "u.txt")
	content := ""
	for e := 0; e < 300; e++ {
		content += "A " + itoa(e) + " 1\n"
		if e >= 100 {
			content += "B " + itoa(e) + " 1\n"
		}
		if e%10 == 0 {
			content += "A " + itoa(e) + " -1\n"
		}
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// coinArgs renders the stored-coins flags matching testCoins.
func coinArgs() []string {
	return []string{"-copies", "64", "-s", "8", "-wise", "8", "-seed", "1"}
}

// buildInProcess sketches an update file serially into one family per
// stream: the reference both session modes must land on.
func buildInProcess(t *testing.T, coins distributed.Coins, path string) map[string]*core.Family {
	t.Helper()
	fams := map[string]*core.Family{}
	_, err := scanUpdateFile(path, func(u datagen.Update) error {
		f, ok := fams[u.Stream]
		if !ok {
			var err error
			if f, err = coins.NewFamily(); err != nil {
				return err
			}
			fams[u.Stream] = f
		}
		f.Update(u.Elem, u.Delta)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// TestPushQueryStreamsEndToEnd: a site that ships its whole synopsis in
// one go (sketch mode with the default flush threshold above the file
// size, so only the closing flush sends) lands the in-process build,
// and the query and streams commands answer over it.
func TestPushQueryStreamsEndToEnd(t *testing.T) {
	stream := writeUpdates(t)
	want := buildInProcess(t, testCoins(), stream)
	coord, addr, stop := startCoordinator(t, testCoins())
	defer stop()

	args := append([]string{"-addr", addr, "-site", "edge1", "-in", stream,
		"-workers", "1", "-log-level", "warn"}, coinArgs()...)
	if err := runStream(args); err != nil {
		t.Fatal(err)
	}
	for name, fam := range want {
		got := coord.Family(name)
		if got == nil || !bytes.Equal(got.AppendTo(nil), fam.AppendTo(nil)) {
			t.Errorf("stream %s differs from the in-process build", name)
		}
	}
	if err := runQuery([]string{"-addr", addr, "-expr", "A & B", "-eps", "0.3"}); err != nil {
		t.Fatal(err)
	}
	if err := runStreams([]string{"-addr", addr}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamEndToEnd: sketch mode (local ingest, several delta
// flushes) and forward mode (raw batches) land families byte-identical
// to an in-process build of the same file, and the query and streams
// commands answer over the result.
func TestStreamEndToEnd(t *testing.T) {
	stream := writeUpdates(t)
	want := buildInProcess(t, testCoins(), stream)
	for _, mode := range []string{"sketch", "forward"} {
		coord, addr, stop := startCoordinator(t, testCoins())
		args := append([]string{"-addr", addr, "-site", "edge1", "-in", stream,
			"-mode", mode, "-workers", "2", "-batch", "50", "-flush-updates", "120",
			"-admin", "127.0.0.1:0", "-log-level", "warn"}, coinArgs()...)
		if err := runStream(args); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if got := strings.Join(coord.Streams(), ","); got != "A,B" {
			t.Errorf("mode %s: streams %s, want A,B", mode, got)
		}
		for name, fam := range want {
			got := coord.Family(name)
			if got == nil || !bytes.Equal(got.AppendTo(nil), fam.AppendTo(nil)) {
				t.Errorf("mode %s: stream %s differs from the in-process build", mode, name)
			}
		}
		if err := runQuery([]string{"-addr", addr, "-expr", "A & B", "-eps", "0.3"}); err != nil {
			t.Fatalf("mode %s query: %v", mode, err)
		}
		if err := runStreams([]string{"-addr", addr}); err != nil {
			t.Fatalf("mode %s streams: %v", mode, err)
		}
		stop()
	}
}

func TestStreamErrors(t *testing.T) {
	_, addr, stop := startCoordinator(t, testCoins())
	defer stop()
	stream := writeUpdates(t)
	// Unknown mode.
	args := append([]string{"-addr", addr, "-in", stream, "-mode", "bogus"}, coinArgs()...)
	if err := runStream(args); err == nil {
		t.Error("unknown stream mode accepted")
	}
	// Mismatched coins are rejected at the hello handshake.
	args = []string{"-addr", addr, "-in", stream,
		"-copies", "64", "-s", "8", "-wise", "8", "-seed", "42"}
	if err := runStream(args); err == nil {
		t.Error("stream with mismatched coins succeeded")
	}
	// Watch requires at least one expression.
	if err := runWatch([]string{"-addr", addr}); err == nil {
		t.Error("watch without -expr succeeded")
	}
}

func TestQueryErrors(t *testing.T) {
	_, addr, stop := startCoordinator(t, testCoins())
	defer stop()
	if err := runQuery([]string{"-addr", addr}); err == nil {
		t.Error("query without -expr succeeded")
	}
	if err := runQuery([]string{"-addr", addr, "-expr", "MISSING"}); err == nil {
		t.Error("query over unknown stream succeeded")
	}
	if err := runQuery([]string{"-addr", "127.0.0.1:1", "-expr", "A"}); err == nil {
		t.Error("query against dead coordinator succeeded")
	}
	args := append([]string{"-addr", addr, "-in", "/nonexistent"}, coinArgs()...)
	if err := runStream(args); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stream of missing file: err = %v, want not-exist", err)
	}
}

// TestSecondLevelCap: s ≤ 58 is a configuration rule — each copy's
// bucket index and s second-level bits pack into one 64-bit digest
// word — so every entry point rejects s = 59 with an error naming the
// cap: core.Config.Validate, distributed.NewCoordinator, ingest.New
// (sketchd stream -mode sketch), and sketchd serve -s 59.
func TestSecondLevelCap(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SecondLevel = 58
	if err := cfg.Validate(); err != nil {
		t.Fatalf("s = 58 rejected: %v", err)
	}
	cfg.SecondLevel = 59
	check := func(where string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "SecondLevel = 59 exceeds 58") {
			t.Errorf("%s: s = 59 gave %v, want an error naming the cap of 58", where, err)
		}
	}
	check("Config.Validate", cfg.Validate())
	_, err := distributed.NewCoordinator(distributed.Coins{Config: cfg, Seed: 1, Copies: 4})
	check("NewCoordinator", err)
	_, err = ingest.New(cfg, 1, 4, ingest.Options{})
	check("ingest.New", err)
	done := make(chan error, 1)
	go func() { done <- runServe([]string{"-listen", "127.0.0.1:0", "-copies", "4", "-s", "59"}) }()
	select {
	case err := <-done:
		check("sketchd serve", err)
	case <-time.After(10 * time.Second):
		t.Fatal("sketchd serve -s 59 started serving")
	}
}
