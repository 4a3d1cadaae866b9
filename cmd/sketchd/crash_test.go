package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"setsketch/internal/datagen"
	"setsketch/internal/distributed"
	"setsketch/internal/obs"
	"setsketch/internal/wal"
)

// crashBatches is the known workload of the crash-recovery test:
// deterministic, overlapping streams so intersection/difference
// queries have non-trivial answers, split into uniform batches so the
// applied prefix after a crash can be measured in whole batches.
func crashBatches() [][]datagen.Update {
	const (
		batches   = 60
		batchSize = 50
	)
	out := make([][]datagen.Update, 0, batches)
	n := uint64(0)
	for b := 0; b < batches; b++ {
		ups := make([]datagen.Update, 0, batchSize)
		for i := 0; i < batchSize; i++ {
			e := n
			n++
			ups = append(ups, datagen.Update{Stream: "A", Elem: e % 1200, Delta: 1})
			if e%2 == 0 {
				ups = append(ups, datagen.Update{Stream: "B", Elem: (e + 300) % 1200, Delta: 1})
			}
			if e%5 == 0 {
				ups = append(ups, datagen.Update{Stream: "C", Elem: e % 400, Delta: 1})
			}
			if len(ups) >= batchSize {
				break
			}
		}
		out = append(out, ups[:batchSize:batchSize])
	}
	return out
}

// TestHelperDaemon is not a test: it is the daemon child process of
// TestCrashRecoveryBitIdentical (the standard re-exec helper-process
// pattern), so the parent has a real PID to kill -9. It serves with a
// WAL until killed, publishing its listen and admin addresses through
// a file the parent polls.
func TestHelperDaemon(t *testing.T) {
	walDir := os.Getenv("SKETCHD_HELPER_WAL_DIR")
	addrFile := os.Getenv("SKETCHD_HELPER_ADDR_FILE")
	if walDir == "" || addrFile == "" {
		t.Skip("helper process for the crash-recovery test; not a test")
	}
	// Optional shard/cache layout overrides, so the crash tests can
	// crash under one layout and recover under another.
	shards, _ := strconv.Atoi(os.Getenv("SKETCHD_HELPER_SHARDS"))
	dcache, _ := strconv.Atoi(os.Getenv("SKETCHD_HELPER_DIGEST_CACHE"))
	d, err := startDaemon(daemonConfig{
		Listen:           "127.0.0.1:0",
		AdminAddr:        "127.0.0.1:0",
		Coins:            testCoins(),
		Log:              obs.NewLogger(os.Stderr, obs.LevelWarn),
		WALDir:           walDir,
		Fsync:            "always",
		SegmentSize:      256 << 10, // small: the workload spans several segments
		SnapshotInterval: 75 * time.Millisecond,
		Shards:           shards,
		DigestCache:      dcache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	// Atomic publish so the parent never reads a partial write.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(d.Addr()+"\n"+d.AdminAddr()+"\n"), 0o644); err != nil {
		os.Exit(1)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		os.Exit(1)
	}
	d.Wait() // until SIGKILL
}

// startHelperDaemon re-execs the test binary as a daemon child on the
// given WAL dir and returns the process plus its listen/admin
// addresses. extraEnv entries ("KEY=value") configure the helper's
// daemon beyond the defaults.
func startHelperDaemon(t *testing.T, walDir string, extraEnv ...string) (*exec.Cmd, string, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperDaemon$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SKETCHD_HELPER_WAL_DIR="+walDir,
		"SKETCHD_HELPER_ADDR_FILE="+addrFile,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) == 2 {
				return cmd, lines[0], lines[1]
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("helper daemon never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// appliedUpdates reads coord_updates_credited_total from a daemon's
// admin endpoint: after recovery this is exactly the durable prefix.
func appliedUpdates(t *testing.T, adminAddr string) uint64 {
	t.Helper()
	status, _, body := httpGet(t, "http://"+adminAddr+"/metrics")
	if status != 200 {
		t.Fatalf("/metrics status %d", status)
	}
	return uint64(metricValue(t, body, "coord_updates_credited_total"))
}

// TestCrashRecoveryBitIdentical is the tentpole acceptance test: a
// daemon ingesting a known stream is hard-killed (SIGKILL) mid-batch,
// a torn final record is simulated on top, and after restart +
// exactly-once resume the estimates are bit-identical to an
// uninterrupted run over the same input.
//
// Exactly-once resume works because the layers compose: fsync=always
// means every acked batch is durable before its ack; the recovered
// daemon's coord_updates_credited_total therefore names the durable
// prefix in whole batches (each batch is one atomic WAL record), and
// the client resends everything after it.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	walDir := t.TempDir()
	batches := crashBatches()
	batchSize := uint64(len(batches[0]))

	// Crash under a sharded layout with the coordinator digest cache
	// armed; recover below under the unsharded layout with the cache
	// off. The WAL is layout-independent (FNV routing is a pure
	// function of the stream name), so recovery must rebuild identical
	// state regardless.
	cmd, addr, _ := startHelperDaemon(t, walDir,
		"SKETCHD_HELPER_SHARDS=4", "SKETCHD_HELPER_DIGEST_CACHE=1024")

	// Ingest until the connection dies under us: a goroutine SIGKILLs
	// the daemon once roughly half the workload is acked, so the kill
	// lands while batches are actively in flight.
	cli, err := distributed.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cli.OpenStream("edge1", testCoins())
	if err != nil {
		t.Fatal(err)
	}
	ackedCh := make(chan int, len(batches))
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		n := 0
		for range ackedCh {
			n++
			if n == len(batches)/2 {
				cmd.Process.Kill() // SIGKILL: no shutdown path runs
				return
			}
		}
	}()
	acked := 0
	for _, b := range batches {
		if _, err := sess.SendUpdates(b); err != nil {
			break
		}
		acked++
		ackedCh <- acked
	}
	close(ackedCh)
	<-killed
	cli.Close()
	cmd.Wait()
	if acked == 0 || acked == len(batches) {
		t.Fatalf("kill did not land mid-ingest: %d/%d batches acked", acked, len(batches))
	}

	// Simulate the torn write a real crash can leave: a partial frame
	// at the tail of the newest segment. Recovery must truncate it, not
	// fail.
	segs, err := filepath.Glob(filepath.Join(walDir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", walDir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00}); err != nil { // 3 of 8 header bytes
		t.Fatal(err)
	}
	f.Close()

	// Restart on the same WAL dir under a different shard layout;
	// recovery = snapshot + suffix replay.
	cmd2, addr2, admin2 := startHelperDaemon(t, walDir,
		"SKETCHD_HELPER_SHARDS=1", "SKETCHD_HELPER_DIGEST_CACHE=-1")
	applied := appliedUpdates(t, admin2)
	if applied%batchSize != 0 {
		t.Fatalf("recovered %d updates: not a whole number of %d-update batches", applied, batchSize)
	}
	appliedBatches := int(applied / batchSize)
	if appliedBatches < acked {
		t.Fatalf("durability lost acked work: %d batches acked, only %d recovered", acked, appliedBatches)
	}
	if appliedBatches > len(batches) {
		t.Fatalf("recovered %d batches, only %d were ever sent", appliedBatches, len(batches))
	}

	// Exactly-once resume: send everything past the durable prefix.
	cli2, err := distributed.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	sess2, err := cli2.OpenStream("edge1", testCoins())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[appliedBatches:] {
		if _, err := sess2.SendUpdates(b); err != nil {
			t.Fatal(err)
		}
	}

	// Uninterrupted control run over the identical input.
	control, err := distributed.NewCoordinator(testCoins())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := control.ApplyUpdates("edge1", b); err != nil {
			t.Fatal(err)
		}
	}

	for _, expr := range []string{"A & B", "A | B | C", "(A | B) - C"} {
		got, err := cli2.Query(expr, 0.2)
		if err != nil {
			t.Fatalf("query %q after recovery: %v", expr, err)
		}
		want, err := control.Estimate(expr, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value || got.StdError != want.StdError ||
			got.Union != want.Union || got.Level != want.Level ||
			got.Valid != want.Valid || got.Witnesses != want.Witnesses {
			t.Errorf("estimate %q diverges after crash recovery:\n got %+v\nwant %+v", expr, got, want)
		}
	}

	cmd2.Process.Kill()
	cmd2.Wait()
}

// TestViewCatalogSurvivesCrash: continuous views registered over the
// wire must survive kill -9 — the catalog rides the WAL (RecView
// records plus the snapshot's view list) and recovery re-registers it,
// after which the views evaluate over the replayed updates: the
// all-time view exactly as the ad-hoc query of its expression.
func TestViewCatalogSurvivesCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	walDir := t.TempDir()
	cmd, addr, _ := startHelperDaemon(t, walDir)

	cli, err := distributed.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"CREATE VIEW total AS (A | B)",
		"CREATE VIEW per AS logins WINDOW 10m SLIDE 1m GROUP BY tenant EMIT ISTREAM",
		"CREATE VIEW doomed AS A",
	}
	for _, s := range stmts {
		if err := cli.CreateView(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.DropView("doomed"); err != nil {
		t.Fatal(err)
	}
	sess, err := cli.OpenStream("edge1", testCoins())
	if err != nil {
		t.Fatal(err)
	}
	var ups []datagen.Update
	for i := 0; i < 500; i++ {
		ups = append(ups,
			datagen.Update{Stream: "A", Elem: uint64(i), Delta: 1},
			datagen.Update{Stream: "B", Elem: uint64(i + 250), Delta: 1},
			datagen.Update{Stream: "acme:logins", Elem: uint64(i), Delta: 1})
	}
	if _, err := sess.SendUpdates(ups); err != nil {
		t.Fatal(err)
	}

	cmd.Process.Kill() // SIGKILL: no shutdown path runs
	cmd.Wait()
	cli.Close()

	cmd2, addr2, _ := startHelperDaemon(t, walDir)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	cli2, err := distributed.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	got, err := cli2.ListViews()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"CREATE VIEW per AS logins WINDOW 10m SLIDE 1m GROUP BY tenant EMIT ISTREAM",
		"CREATE VIEW total AS (A | B)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("catalog after crash:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// The recovered views evaluate over the replayed updates: the
	// ungrouped view sees streams A and B, the grouped view its acme
	// group.
	adhoc, err := cli2.Query("A | B", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	events, err := cli2.Subscribe(distributed.WatchRequest{
		Views: []string{"total", "per"}, Eps: 0.2, EveryUpdates: 1, Interval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	seen := map[string]float64{}
	for len(seen) < 2 {
		select {
		case ev, ok := <-events:
			if !ok || ev.Terminal {
				t.Fatalf("watch ended early: %+v (seen %v)", ev, seen)
			}
			if ev.Err != "" {
				t.Fatalf("view round error after recovery: %s", ev.Err)
			}
			key := ev.View
			if ev.Group != "" {
				key += ":" + ev.Group
			}
			seen[key] = ev.Est.Value
		case <-deadline:
			t.Fatalf("timed out waiting for view rounds (seen %v)", seen)
		}
	}
	if seen["total"] != adhoc.Value || seen["per:acme"] <= 0 {
		t.Errorf("recovered views %v, ad-hoc A | B = %v", seen, adhoc.Value)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				done <- b.String()
				return
			}
		}
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatalf("inspect failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

// TestInspectWALCorruptSegment is the inspect acceptance criterion:
// on a deliberately corrupted segment, `sketchd inspect wal` reports
// the intact record count and the exact truncation point.
func TestInspectWALCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	coins := testCoins()
	l, err := wal.Open(dir, wal.Options{
		Config: coins.Config,
		Seed:   coins.Seed,
		Copies: coins.Copies,
		Sync:   wal.SyncAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	append1 := func(elem uint64) {
		t.Helper()
		if _, err := l.Append(&wal.Record{
			Type: wal.RecUpdates, Site: "edge", Count: 1,
			Updates: []datagen.Update{{Stream: "A", Elem: elem, Delta: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	segPath := func() string {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
		}
		return segs[0]
	}
	append1(1)
	append1(2)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(segPath())
	if err != nil {
		t.Fatal(err)
	}
	sizeAfter2 := st.Size()
	append1(3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the third record's body: its CRC no longer
	// matches, so records 1..2 are the intact prefix and recovery
	// truncates exactly where record 3's frame began.
	path := segPath()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= sizeAfter2 {
		t.Fatalf("segment did not grow past record 2: %d <= %d", len(data), sizeAfter2)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error {
		return runInspect([]string{"wal", "-dir", dir})
	})
	for _, want := range []string{
		"seq 1..2, 2 records",
		"CORRUPT:",
		fmt.Sprintf("intact through seq 2; recovery truncates at offset %d", sizeAfter2),
		"1 corrupt segment(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("inspect output missing %q:\n%s", want, out)
		}
	}

	// And recovery agrees: reopening truncates the corrupt suffix and
	// the log continues from seq 3.
	l2, err := wal.Open(dir, wal.Options{
		Config: coins.Config,
		Seed:   coins.Seed,
		Copies: coins.Copies,
		Sync:   wal.SyncAlways,
	})
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 2 {
		t.Errorf("reopened LastSeq = %d, want 2", got)
	}
	st, err = os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != sizeAfter2 {
		t.Errorf("reopen truncated to %d bytes, want %d", st.Size(), sizeAfter2)
	}
}

// TestInspectWALUndecodableRecord: a frame whose CRC passes but whose
// record type no version of this binary writes is reported as an
// undecodable record that recovery refuses, never as a truncation
// point.
func TestInspectWALUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	coins := testCoins()
	l, err := wal.Open(dir, wal.Options{Config: coins.Config, Seed: coins.Seed, Copies: coins.Copies})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(l.BuildUpdates("edge", []datagen.Update{{Stream: "A", Elem: 1, Delta: 1}})); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	off := len(data)
	body := binary.LittleEndian.AppendUint64([]byte{0x7f}, 2)
	data = binary.LittleEndian.AppendUint32(data, uint32(len(body)))
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(segs[0], append(data, body...), 0o644); err != nil {
		t.Fatal(err)
	}

	out := captureStdout(t, func() error {
		return runInspect([]string{"wal", "-dir", dir})
	})
	want := fmt.Sprintf("intact through seq 1; undecodable record at offset %d: recovery refuses the log", off)
	if !strings.Contains(out, want) || strings.Contains(out, "recovery truncates") {
		t.Errorf("inspect output does not report the undecodable record as %q:\n%s", want, out)
	}
}
