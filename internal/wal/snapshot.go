package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/obs"
)

// Snapshots persist the coordinator's merged family state so recovery
// only replays the WAL suffix past the snapshot instead of the whole
// log. Each snapshot is two files, named by the covering WAL sequence
// number (the last record whose effect the snapshot includes):
//
//	snap-%020d.dat — the state
//	  magic   "SSNP"    4 bytes
//	  version u8        currently 2 (1 readable: it lacks the views section)
//	  seq     u64       covering WAL sequence number
//	  updates u64       stream updates credited at the snapshot point
//	  sites   uvarint n, then n × { name string, mutations uvarint }
//	  streams uvarint m, then m × { name string,
//	                                family uvarint len + core serialization }
//	  views   uvarint k, then k strings   (canonical CREATE VIEW statements;
//	                                       version ≥ 2 only)
//	  crc     u32       CRC32C over everything after the magic
//
//	snap-%020d.manifest — the commit record, written after the data
//	file is durable; recovery trusts only snapshots with a manifest
//	  magic   "SMAN"    4 bytes
//	  version u8        currently 1
//	  seq     u64
//	  updates u64
//	  data    string    data file name (relative to the directory)
//	  size    u64       data file size in bytes
//	  datacrc u32       CRC32C of the entire data file
//	  streams u32
//	  crc     u32       CRC32C over everything after the magic
//
// Both files are fsynced (and the directory fsynced after the rename)
// before the manifest appears, so a manifest's existence implies a
// complete, verifiable snapshot. A crash mid-snapshot leaves at most an
// orphaned .dat/.tmp file, which recovery ignores and the next
// successful snapshot cleans up.

const (
	snapMagic = "SSNP"
	maniMagic = "SMAN"
	// snapVersion 2 appends the continuous-view catalog (uvarint count,
	// then canonical statements) after the streams section. Version-1
	// data files (no views) remain readable; the manifest format is
	// unchanged and keeps its own version.
	snapVersion   = 2
	snapVersionV1 = 1
	maniVersion   = 1
	snapPrefix    = "snap-"
	snapSuffix    = ".dat"
	maniSuffix    = ".manifest"
	keepSnapshot  = 2 // newest snapshots retained after a successful write
)

// Snapshot is a loaded coordinator state snapshot.
type Snapshot struct {
	Seq     uint64 // covering WAL sequence number; replay resumes at Seq+1
	Updates uint64
	Sites   map[string]int
	Streams map[string]*core.Family
	// Views is the continuous-view catalog at the snapshot point:
	// canonical CREATE VIEW statements, sorted by view name (empty for
	// version-1 snapshots, written before views existed).
	Views []string
	Path  string
}

func snapDataPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix))
}

func snapManifestPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapPrefix, seq, maniSuffix))
}

// parseSnapshotName extracts the covering seq from a snapshot file name
// with the given suffix.
func parseSnapshotName(name, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	base := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), suffix)
	if len(base) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeSnapshot renders the data-file bytes.
func encodeSnapshot(seq, updates uint64, sites map[string]int, fams map[string]*core.Family, views []string) ([]byte, error) {
	var b []byte
	b = append(b, snapMagic...)
	b = append(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, updates)
	siteNames := make([]string, 0, len(sites))
	for n := range sites {
		siteNames = append(siteNames, n)
	}
	sort.Strings(siteNames)
	b = binary.AppendUvarint(b, uint64(len(siteNames)))
	for _, n := range siteNames {
		b = appendString(b, n)
		b = binary.AppendUvarint(b, uint64(sites[n]))
	}
	streamNames := make([]string, 0, len(fams))
	for n := range fams {
		streamNames = append(streamNames, n)
	}
	sort.Strings(streamNames)
	b = binary.AppendUvarint(b, uint64(len(streamNames)))
	var buf bytes.Buffer
	for _, n := range streamNames {
		b = appendString(b, n)
		buf.Reset()
		if _, err := fams[n].WriteTo(&buf); err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(buf.Len()))
		b = append(b, buf.Bytes()...)
	}
	b = binary.AppendUvarint(b, uint64(len(views)))
	for _, v := range views {
		b = appendString(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[4:], castagnoli))
	return b, nil
}

// decodeSnapshot parses a data file, verifying its checksum and every
// family's own checksum.
func decodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 4+1+8+8+4 || string(b[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: not a snapshot", ErrCorrupt)
	}
	body, tail := b[4:len(b)-4], b[len(b)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.Checksum(body, castagnoli) {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", ErrCorrupt)
	}
	c := &byteCursor{b: body}
	version := c.u8()
	if version != snapVersion && version != snapVersionV1 {
		return nil, fmt.Errorf("%w: unsupported snapshot version %d", ErrCorrupt, version)
	}
	snap := &Snapshot{
		Seq:     c.u64(),
		Updates: c.u64(),
		Sites:   make(map[string]int),
		Streams: make(map[string]*core.Family),
	}
	for i, n := 0, c.count(2); i < n && c.err == nil; i++ {
		name := c.str()
		snap.Sites[name] = int(c.uvarint())
	}
	for i, n := 0, c.count(2); i < n && c.err == nil; i++ {
		name := c.str()
		famBytes := c.bytes()
		if c.err != nil {
			break
		}
		fam, err := core.ReadFamily(bytes.NewReader(famBytes))
		if err != nil {
			return nil, fmt.Errorf("%w: stream %q: %v", ErrCorrupt, name, err)
		}
		snap.Streams[name] = fam
	}
	if version >= 2 {
		for i, n := 0, c.count(2); i < n && c.err == nil; i++ {
			snap.Views = append(snap.Views, c.str())
		}
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing snapshot bytes", ErrCorrupt, len(body)-c.off)
	}
	return snap, nil
}

// encodeManifest renders the manifest bytes for a written data file.
func encodeManifest(seq, updates uint64, dataName string, size int64, dataCRC uint32, streams int) []byte {
	var b []byte
	b = append(b, maniMagic...)
	b = append(b, maniVersion)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint64(b, updates)
	b = appendString(b, dataName)
	b = binary.LittleEndian.AppendUint64(b, uint64(size))
	b = binary.LittleEndian.AppendUint32(b, dataCRC)
	b = binary.LittleEndian.AppendUint32(b, uint32(streams))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[4:], castagnoli))
	return b
}

// Manifest is a parsed snapshot manifest.
type Manifest struct {
	Seq      uint64
	Updates  uint64
	DataName string
	DataSize int64
	DataCRC  uint32
	Streams  int
}

// decodeManifest parses and verifies a manifest file's bytes.
func decodeManifest(b []byte) (*Manifest, error) {
	if len(b) < 4+1+8+8+4 || string(b[:4]) != maniMagic {
		return nil, fmt.Errorf("%w: not a snapshot manifest", ErrCorrupt)
	}
	body, tail := b[4:len(b)-4], b[len(b)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.Checksum(body, castagnoli) {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	c := &byteCursor{b: body}
	if v := c.u8(); v != maniVersion {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrCorrupt, v)
	}
	m := &Manifest{Seq: c.u64(), Updates: c.u64(), DataName: c.str()}
	m.DataSize = int64(c.u64())
	m.DataCRC = c.u32()
	m.Streams = int(c.u32())
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing manifest bytes", ErrCorrupt, len(body)-c.off)
	}
	return m, nil
}

// writeDurable writes bytes to path via a temp file, fsyncs the file,
// renames it into place, and fsyncs the directory.
func writeDurable(path string, b []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteSnapshot persists the coordinator state covering WAL sequence
// seq: data file first, then manifest, both durable, then prunes
// segments and snapshots the new snapshot makes redundant. Callers
// must pass a seq no greater than LastSeq and state that includes the
// effect of every record up to seq.
// views is the continuous-view catalog as canonical statements.
func (l *Log) WriteSnapshot(seq, updates uint64, sites map[string]int, fams map[string]*core.Family, views []string) error {
	start := time.Now()
	data, err := encodeSnapshot(seq, updates, sites, fams, views)
	if err != nil {
		return err
	}
	dataPath := snapDataPath(l.dir, seq)
	if err := writeDurable(dataPath, data); err != nil {
		return err
	}
	mani := encodeManifest(seq, updates, filepath.Base(dataPath),
		int64(len(data)), crc32.Checksum(data, castagnoli), len(fams))
	if err := writeDurable(snapManifestPath(l.dir, seq), mani); err != nil {
		return err
	}
	l.met.snapshots.Inc()
	l.met.snapshotSecs.ObserveSince(start)
	l.mu.Lock()
	l.lastSnap = seq
	l.mu.Unlock()
	l.log.Info("snapshot written", "seq", seq, "streams", len(fams),
		"views", len(views), "bytes", len(data), "elapsed", time.Since(start).String())
	return l.prune(seq)
}

// LastSnapshotSeq returns the covering seq of the newest snapshot
// written through this log (0 if none this process).
func (l *Log) LastSnapshotSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSnap
}

// prune removes segments fully covered by the snapshot at seq (every
// record ≤ seq is redundant) and all but the newest keepSnapshot
// snapshots. Only sealed segments are candidates; the active segment
// always stays.
func (l *Log) prune(seq uint64) error {
	l.mu.Lock()
	var drop []segment
	for len(l.segs) > 1 {
		s := l.segs[0]
		if s.last == 0 || s.last > seq {
			break
		}
		drop = append(drop, s)
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()
	for _, s := range drop {
		if err := os.Remove(s.path); err != nil {
			return err
		}
		l.met.prunedSegs.Inc()
		l.log.Debug("pruned covered segment", "segment", filepath.Base(s.path), "last_seq", s.last)
	}
	// Old snapshots: keep the newest keepSnapshot manifests (and their
	// data files); delete the rest plus orphaned data files.
	manifests, err := listSnapshotSeqs(l.dir, maniSuffix)
	if err != nil {
		return err
	}
	keep := make(map[uint64]bool, keepSnapshot)
	for i := 0; i < len(manifests) && i < keepSnapshot; i++ {
		keep[manifests[len(manifests)-1-i]] = true
	}
	for _, s := range manifests {
		if keep[s] {
			continue
		}
		os.Remove(snapManifestPath(l.dir, s))
		os.Remove(snapDataPath(l.dir, s))
	}
	dataSeqs, err := listSnapshotSeqs(l.dir, snapSuffix)
	if err != nil {
		return err
	}
	for _, s := range dataSeqs {
		if !keep[s] {
			os.Remove(snapDataPath(l.dir, s))
		}
	}
	return nil
}

// listSnapshotSeqs returns the covering seqs of all snapshot files with
// the given suffix, ascending.
func listSnapshotSeqs(dir, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if s, ok := parseSnapshotName(e.Name(), suffix); ok {
			seqs = append(seqs, s)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// LoadLatestSnapshot returns the newest valid snapshot in dir, or nil
// if none exists. A snapshot whose manifest or data file fails
// verification is skipped (with a warning through log, which may be
// nil) and the next older one is tried — recovery then simply replays
// a longer WAL suffix.
func LoadLatestSnapshot(dir string, log *obs.Logger) (*Snapshot, error) {
	seqs, err := listSnapshotSeqs(dir, maniSuffix)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		snap, err := loadSnapshot(dir, seqs[i])
		if err != nil {
			log.Named("wal").Warn("skipping unusable snapshot",
				"seq", seqs[i], "err", err.Error())
			continue
		}
		return snap, nil
	}
	return nil, nil
}

// loadSnapshot loads and fully verifies the snapshot covering seq.
func loadSnapshot(dir string, seq uint64) (*Snapshot, error) {
	mb, err := os.ReadFile(snapManifestPath(dir, seq))
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(mb)
	if err != nil {
		return nil, err
	}
	db, err := os.ReadFile(filepath.Join(dir, filepath.Base(m.DataName)))
	if err != nil {
		return nil, err
	}
	if int64(len(db)) != m.DataSize {
		return nil, fmt.Errorf("%w: data file is %d bytes, manifest says %d", ErrCorrupt, len(db), m.DataSize)
	}
	if crc32.Checksum(db, castagnoli) != m.DataCRC {
		return nil, fmt.Errorf("%w: data file checksum does not match manifest", ErrCorrupt)
	}
	snap, err := decodeSnapshot(db)
	if err != nil {
		return nil, err
	}
	if snap.Seq != m.Seq {
		return nil, fmt.Errorf("%w: data covers seq %d, manifest says %d", ErrCorrupt, snap.Seq, m.Seq)
	}
	snap.Path = filepath.Join(dir, filepath.Base(m.DataName))
	return snap, nil
}
