package wal

import (
	"os"
	"path/filepath"
	"testing"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
)

// TestInspectDir: a directory holding every record type, a snapshot,
// and a deliberately corrupted tail segment must be reported exactly —
// intact counts by type, the corruption error, and the truncation
// offset recovery would use.
func TestInspectDir(t *testing.T) {
	opts := testOptions()
	opts.Sync = SyncAlways
	dir := t.TempDir()
	l := mustOpen(t, dir, opts)
	ups := []datagen.Update{{Stream: "A", Elem: 1, Delta: 1}, {Stream: "B", Elem: 2, Delta: 1}}
	if _, err := l.Append(l.BuildUpdates("edge", ups)); err != nil {
		t.Fatal(err)
	}
	raw := &Record{Type: RecUpdates, Site: "edge", Count: 1,
		Updates: []datagen.Update{{Stream: "A", Elem: 9, Delta: 1}}}
	if _, err := l.Append(raw); err != nil {
		t.Fatal(err)
	}
	fam, _ := core.NewFamily(opts.Config, opts.Seed, opts.Copies)
	fam.Insert(42)
	var buf writerBuffer
	if _, err := fam.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	delta := &Record{Type: RecDelta, Site: "edge", Count: 3, Stream: "C", Synopsis: buf.b}
	if _, err := l.Append(delta); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&Record{Type: RecMark, Site: "edge"}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteSnapshot(l.LastSeq(), 3, map[string]int{"edge": 3}, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	tail := segs[len(segs)-1]
	st, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	intact := st.Size()
	f, err := os.OpenFile(tail, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil { // partial frame header
		t.Fatal(err)
	}
	f.Close()

	rep, err := InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dir != dir {
		t.Errorf("Dir = %q, want %q", rep.Dir, dir)
	}
	if len(rep.Segments) != len(segs) {
		t.Fatalf("reported %d segments, want %d", len(rep.Segments), len(segs))
	}
	var total uint64
	byType := make(map[byte]uint64)
	for _, s := range rep.Segments {
		total += s.Records
		for typ, n := range s.ByType {
			byType[typ] += n
		}
	}
	if total != 4 {
		t.Errorf("intact records = %d, want 4", total)
	}
	for typ, want := range map[byte]uint64{RecUpdates: 2, RecDelta: 1, RecMark: 1} {
		if byType[typ] != want {
			t.Errorf("records of type %s = %d, want %d", RecordTypeName(typ), byType[typ], want)
		}
	}
	last := rep.Segments[len(rep.Segments)-1]
	if last.Corrupt == "" {
		t.Error("corrupted tail segment not reported")
	}
	if last.TruncateAt != intact {
		t.Errorf("TruncateAt = %d, want %d", last.TruncateAt, intact)
	}
	if last.FirstSeq == 0 {
		t.Error("tail segment FirstSeq unreported despite readable header")
	}
	if len(rep.Snapshots) != 1 {
		t.Fatalf("reported %d snapshots, want 1", len(rep.Snapshots))
	}
	snap := rep.Snapshots[0]
	if snap.Err != "" {
		t.Errorf("intact snapshot reported unusable: %s", snap.Err)
	}
	if snap.Seq != 4 || snap.Updates != 3 {
		t.Errorf("snapshot = seq %d / %d updates, want 4 / 3", snap.Seq, snap.Updates)
	}

	// A snapshot whose data file is gone must be flagged, not fatal.
	if err := os.Remove(snap.DataPath); err != nil {
		t.Fatal(err)
	}
	rep, err = InspectDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshots[0].Err == "" {
		t.Error("snapshot with missing data file reported as usable")
	}
}

// TestRecordTypeName pins the display names used by inspect output.
func TestRecordTypeName(t *testing.T) {
	for typ, want := range map[byte]string{
		RecUpdates: "updates", RecDigests: "digests(read-only)",
		RecDelta: "delta", RecMark: "mark", 0xFF: "unknown",
	} {
		if got := RecordTypeName(typ); got != want {
			t.Errorf("RecordTypeName(%d) = %q, want %q", typ, got, want)
		}
	}
}

// TestSyncPolicyStrings pins the display names (ParseSyncPolicy's
// grammar is covered by TestParseSyncPolicy).
func TestSyncPolicyStrings(t *testing.T) {
	for pol, want := range map[SyncPolicy]string{
		SyncAlways: "always", SyncInterval: "interval", SyncNever: "never",
	} {
		if got := pol.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(pol), got, want)
		}
	}
	if got := SyncPolicy(99).String(); got != "SyncPolicy(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}
