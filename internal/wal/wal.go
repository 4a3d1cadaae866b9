package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
	"setsketch/internal/obs"
)

const (
	segMagic   = "SWAL"
	segVersion = 1
	// segHeaderSize is the fixed segment header: magic(4) version(1)
	// buckets(2) secondLevel(2) firstWise(2) seed(8) copies(4)
	// first(8) crc(4).
	segHeaderSize = 35
	// frameHeaderSize prefixes every record: length(4) crc(4).
	frameHeaderSize = 8

	segSuffix = ".wal"
)

// SyncPolicy controls when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged batch is
	// durable, at the cost of one fsync per append.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a wall-clock period (Options.SyncInterval):
	// a crash loses at most one interval of acknowledged work.
	SyncInterval
	// SyncNever leaves fsync to the OS page cache: fastest, loses
	// everything since the last rotation/snapshot on power failure.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -fsync flag grammar: "always", "never",
// or a duration (e.g. "100ms") selecting interval sync at that period.
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch s {
	case "always":
		return SyncAlways, 0, nil
	case "never":
		return SyncNever, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("wal: -fsync wants always, never, or a positive duration, got %q", s)
	}
	return SyncInterval, d, nil
}

// Options configures a Log. Config/Seed/Copies are the stored coins the
// log belongs to; they are stamped into every segment header so replay
// against mismatched coins fails loudly instead of corrupting state.
type Options struct {
	Config core.Config
	Seed   uint64
	Copies int

	// SegmentSize rotates to a new segment file once the current one
	// exceeds this many bytes (default 16 MiB).
	SegmentSize int64

	Sync         SyncPolicy
	SyncInterval time.Duration // default 100ms when Sync == SyncInterval

	Obs *obs.Registry
	Log *obs.Logger
}

const (
	defaultSegmentSize  = 16 << 20
	defaultSyncInterval = 100 * time.Millisecond
)

// segment is one on-disk segment file's metadata.
type segment struct {
	path  string
	first uint64 // seq of its first record
	last  uint64 // seq of its last record (0 while empty)
	size  int64
}

// walMetrics is the log's instrument set; per obs's contract every
// instrument works (uncollected) when no registry is attached.
type walMetrics struct {
	appends       *obs.Counter
	appendBytes   *obs.Counter
	appendSecs    *obs.Histogram
	fsyncs        *obs.Counter
	fsyncSecs     *obs.Histogram
	rotations     *obs.Counter
	tornTruncated *obs.Counter
	snapshots     *obs.Counter
	snapshotSecs  *obs.Histogram
	prunedSegs    *obs.Counter
	replayRecords *obs.Counter
	replaySecs    *obs.Histogram
}

func newWALMetrics(reg *obs.Registry) walMetrics {
	return walMetrics{
		appends: reg.Counter("wal_appends_total",
			"Records appended to the write-ahead log."),
		appendBytes: reg.Counter("wal_append_bytes_total",
			"Bytes appended to the write-ahead log (frames incl. headers)."),
		appendSecs: reg.Histogram("wal_append_seconds",
			"Append latency: encode + buffered write + any policy-mandated fsync.", nil),
		fsyncs: reg.Counter("wal_fsyncs_total",
			"fsync calls issued by the write-ahead log."),
		fsyncSecs: reg.Histogram("wal_fsync_seconds",
			"fsync latency of the write-ahead log.", nil),
		rotations: reg.Counter("wal_segment_rotations_total",
			"Segment files rotated out at the size threshold."),
		tornTruncated: reg.Counter("wal_torn_records_truncated_total",
			"Torn or corrupt tail records truncated during recovery."),
		snapshots: reg.Counter("wal_snapshots_total",
			"Coordinator state snapshots written."),
		snapshotSecs: reg.Histogram("wal_snapshot_seconds",
			"Snapshot write latency (serialize + fsync + manifest).", nil),
		prunedSegs: reg.Counter("wal_segments_pruned_total",
			"Segment files deleted because a snapshot covers them."),
		replayRecords: reg.Counter("wal_replay_records_total",
			"Records replayed during recovery (progress counter)."),
		replaySecs: reg.Histogram("wal_replay_seconds",
			"Total recovery replay latency.", nil),
	}
}

// Log is an append-only write-ahead log over a directory of segment
// files. It is safe for concurrent use; appends are serialized.
type Log struct {
	dir  string
	opts Options
	met  walMetrics
	log  *obs.Logger

	mu       sync.Mutex
	segs     []segment // all live segments, ascending by first seq
	f        *os.File  // active (last) segment
	w        *bufio.Writer
	nextSeq  uint64
	unsynced bool
	closed   bool

	stopSync chan struct{}
	syncDone chan struct{}

	// lastSnap tracks the covering seq of the newest snapshot written
	// through this Log, so no-op snapshot rounds can be skipped.
	lastSnap uint64
}

// Open opens (or creates) the log directory, validates every segment
// header against the stored coins, scans the final segment, and
// truncates a torn or checksum-failing tail record if the process died
// mid-append. A whole frame that does not decode (ErrFormat) is not a
// crash artifact: Open fails, naming the segment and offset, and
// leaves the file untouched. The returned log appends after the last
// intact record.
func Open(dir string, opts Options) (*Log, error) {
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.Copies < 1 {
		return nil, fmt.Errorf("wal: copies %d out of range", opts.Copies)
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if opts.SegmentSize < segHeaderSize+frameHeaderSize {
		return nil, fmt.Errorf("wal: segment size %d smaller than one frame", opts.SegmentSize)
	}
	if opts.Sync == SyncInterval && opts.SyncInterval <= 0 {
		opts.SyncInterval = defaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:  dir,
		opts: opts,
		met:  newWALMetrics(opts.Obs),
		log:  opts.Log.Named("wal"),
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	if reg := opts.Obs; reg != nil {
		reg.GaugeFunc("wal_segments",
			"Live write-ahead-log segment files.",
			func() float64 {
				l.mu.Lock()
				defer l.mu.Unlock()
				return float64(len(l.segs))
			})
		reg.GaugeFunc("wal_last_seq",
			"Highest sequence number appended to the write-ahead log.",
			func() float64 {
				l.mu.Lock()
				defer l.mu.Unlock()
				return float64(l.nextSeq - 1)
			})
		reg.GaugeFunc("wal_snapshot_last_seq",
			"Covering sequence number of the newest snapshot.",
			func() float64 {
				l.mu.Lock()
				defer l.mu.Unlock()
				return float64(l.lastSnap)
			})
	}
	if opts.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// segmentPath names the segment whose first record is seq.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", seq, segSuffix))
}

// parseSegmentName extracts the first-record seq from a segment file
// name, or ok=false for non-segment files.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	base := strings.TrimSuffix(name, segSuffix)
	if len(base) != 20 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment files of a directory ascending by
// first seq, without opening them.
func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		first, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, segment{path: filepath.Join(dir, e.Name()), first: first, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// scan reads the directory, verifies headers, determines the next
// sequence number from the final segment (truncating a torn tail), and
// opens the final segment for append.
func (l *Log) scan() error {
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i := range segs {
		if err := l.checkHeader(&segs[i]); err != nil {
			return err
		}
	}
	l.segs = segs
	if len(segs) == 0 {
		l.nextSeq = 1
		return l.openSegment(1)
	}
	// Non-final segments were sealed by rotation; trust their sizes and
	// derive last seqs from the neighbors. The final segment is scanned
	// record by record — it is the only one a crash can tear.
	for i := 0; i+1 < len(segs); i++ {
		l.segs[i].last = segs[i+1].first - 1
	}
	tail := &l.segs[len(l.segs)-1]
	last, end, scanErr := scanSegment(tail.path, nil)
	if scanErr != nil && !isFrameError(scanErr) {
		return fmt.Errorf("wal: segment %s: %w", filepath.Base(tail.path), scanErr)
	}
	if scanErr != nil {
		l.met.tornTruncated.Inc()
		l.log.Warn("truncating torn tail record",
			"segment", filepath.Base(tail.path), "offset", end, "err", scanErr.Error())
		if err := os.Truncate(tail.path, end); err != nil {
			return err
		}
	}
	tail.size = end
	tail.last = last
	if last == 0 { // empty final segment: first record will be its name
		l.nextSeq = tail.first
	} else {
		l.nextSeq = last + 1
	}
	f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	return nil
}

// checkHeader validates one segment's header against the log's coins.
func (l *Log) checkHeader(s *segment) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	cfg, seed, copies, first, err := readSegmentHeader(f)
	if err != nil {
		return fmt.Errorf("wal: segment %s: %w", filepath.Base(s.path), err)
	}
	if cfg != l.opts.Config || seed != l.opts.Seed || copies != l.opts.Copies {
		return fmt.Errorf("wal: segment %s was written with different stored coins (cfg %+v seed %d copies %d)",
			filepath.Base(s.path), cfg, seed, copies)
	}
	if first != s.first {
		return fmt.Errorf("wal: segment %s header claims first seq %d", filepath.Base(s.path), first)
	}
	return nil
}

// encodeSegmentHeader renders the fixed segment header.
func encodeSegmentHeader(cfg core.Config, seed uint64, copies int, first uint64) []byte {
	b := make([]byte, segHeaderSize)
	copy(b, segMagic)
	b[4] = segVersion
	binary.LittleEndian.PutUint16(b[5:], uint16(cfg.Buckets))
	binary.LittleEndian.PutUint16(b[7:], uint16(cfg.SecondLevel))
	binary.LittleEndian.PutUint16(b[9:], uint16(cfg.FirstWise))
	binary.LittleEndian.PutUint64(b[11:], seed)
	binary.LittleEndian.PutUint32(b[19:], uint32(copies))
	binary.LittleEndian.PutUint64(b[23:], first)
	binary.LittleEndian.PutUint32(b[31:], crc32.Checksum(b[4:31], castagnoli))
	return b
}

// readSegmentHeader parses and verifies a segment header.
func readSegmentHeader(r io.Reader) (core.Config, uint64, int, uint64, error) {
	var b [segHeaderSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return core.Config{}, 0, 0, 0, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if string(b[:4]) != segMagic {
		return core.Config{}, 0, 0, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, b[:4])
	}
	if got := binary.LittleEndian.Uint32(b[31:]); got != crc32.Checksum(b[4:31], castagnoli) {
		return core.Config{}, 0, 0, 0, fmt.Errorf("%w: header checksum mismatch", ErrCorrupt)
	}
	if b[4] != segVersion {
		return core.Config{}, 0, 0, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, b[4])
	}
	cfg := core.Config{
		Buckets:     int(binary.LittleEndian.Uint16(b[5:])),
		SecondLevel: int(binary.LittleEndian.Uint16(b[7:])),
		FirstWise:   int(binary.LittleEndian.Uint16(b[9:])),
	}
	seed := binary.LittleEndian.Uint64(b[11:])
	copies := int(binary.LittleEndian.Uint32(b[19:]))
	first := binary.LittleEndian.Uint64(b[23:])
	return cfg, seed, copies, first, nil
}

// openSegment creates a fresh segment whose first record will be seq
// and makes it the append target.
func (l *Log) openSegment(seq uint64) error {
	path := segmentPath(l.dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := encodeSegmentHeader(l.opts.Config, l.opts.Seed, l.opts.Copies, seq)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segs = append(l.segs, segment{path: path, first: seq, size: segHeaderSize})
	return nil
}

// scanSegment reads a segment's records, calling fn (when non-nil) for
// each decoded record. It returns the last intact seq (0 if none), the
// byte offset just past the last intact record, and the error that
// stopped the scan (nil at a clean EOF). A stop error of ErrTorn or
// ErrCorrupt at offset end means the file is valid up to end; ErrFormat
// means the frame at end passed its checksum but cannot be replayed.
func scanSegment(path string, fn func(*Record) error) (last uint64, end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if _, _, _, _, err := readSegmentHeader(br); err != nil {
		return 0, 0, err
	}
	end = segHeaderSize
	var hdr [frameHeaderSize]byte
	body := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return last, end, nil
			}
			return last, end, fmt.Errorf("%w: partial frame header: %v", ErrTorn, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || n > maxRecord {
			return last, end, fmt.Errorf("%w: frame length %d out of range", ErrCorrupt, n)
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return last, end, fmt.Errorf("%w: partial frame body: %v", ErrTorn, err)
		}
		if crc32.Checksum(body, castagnoli) != wantCRC {
			return last, end, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
		}
		rec, err := decodeBody(body)
		if err != nil {
			return last, end, fmt.Errorf("%w at offset %d", err, end)
		}
		if rec.Seq != last+1 && last != 0 {
			return last, end, fmt.Errorf("%w at offset %d: sequence jump %d -> %d", ErrFormat, end, last, rec.Seq)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return last, end, err
			}
		}
		last = rec.Seq
		end += frameHeaderSize + int64(n)
	}
}

// BuildUpdates renders a raw update batch as a WAL record holding the
// updates verbatim (the record aliases ups until it is appended); the
// replaying side coalesces and hashes them.
func (l *Log) BuildUpdates(site string, ups []datagen.Update) *Record {
	return &Record{Type: RecUpdates, Site: site, Count: uint64(len(ups)), Updates: ups}
}

// DigestUpdates coalesces a raw update batch per (stream, element),
// drops exact cancellations, and computes each survivor's packed
// digest through fam's batch kernel (one copy-major pass instead of a
// full hash-constant sweep per element — see core.Family.DigestBatch).
// It is the reference form of the batch-amortized update path, which
// ingest.Coalescer implements with reused buffers and a digest cache
// (FuzzCoalesce pins the two entry for entry), and of the RecDigests
// entries older binaries logged. The caller owns fam and its locking.
// Applying the returned entries in order is exactly equivalent to
// applying ups in order, by linearity of the sketch counters.
func DigestUpdates(fam *core.Family, ups []datagen.Update) []DigestUpdate {
	type key struct {
		stream string
		elem   uint64
	}
	idx := make(map[key]int, len(ups))
	entries := make([]DigestUpdate, 0, len(ups))
	for _, u := range ups {
		k := key{u.Stream, u.Elem}
		if i, ok := idx[k]; ok {
			entries[i].Delta += u.Delta
			continue
		}
		idx[k] = len(entries)
		entries = append(entries, DigestUpdate{Stream: u.Stream, Elem: u.Elem, Delta: u.Delta})
	}
	kept := entries[:0]
	for i := range entries {
		if entries[i].Delta == 0 {
			continue // exact cancellation: a no-op on every counter
		}
		kept = append(kept, entries[i])
	}
	if len(kept) > 0 {
		elems := make([]uint64, len(kept))
		for i := range kept {
			elems[i] = kept[i].Elem
		}
		digs := fam.DigestBatch(elems)
		for i := range kept {
			kept[i].Digest = digs[i]
		}
	}
	return kept
}

// Append assigns the next sequence number to rec, frames it, and writes
// it to the active segment, rotating first if the segment is full. With
// SyncAlways the record is on stable storage when Append returns.
func (l *Log) Append(rec *Record) (uint64, error) {
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	rec.Seq = l.nextSeq
	body, err := encodeBody(rec)
	if err != nil {
		return 0, err
	}
	frame := int64(frameHeaderSize + len(body))
	cur := &l.segs[len(l.segs)-1]
	if cur.size > segHeaderSize && cur.size+frame > l.opts.SegmentSize {
		if err := l.rotateLocked(rec.Seq); err != nil {
			return 0, err
		}
	}
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(body); err != nil {
		return 0, err
	}
	cur = &l.segs[len(l.segs)-1]
	cur.size += frame
	cur.last = rec.Seq
	l.nextSeq++
	l.unsynced = true
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	l.met.appends.Inc()
	l.met.appendBytes.Add(uint64(frame))
	l.met.appendSecs.ObserveSince(start)
	return rec.Seq, nil
}

// rotateLocked seals the active segment (flush + fsync, so sealed
// segments are always intact on disk) and opens a new one starting at
// seq.
func (l *Log) rotateLocked(seq uint64) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	if err := l.openSegment(seq); err != nil {
		return err
	}
	l.met.rotations.Inc()
	l.log.Debug("rotated segment", "first_seq", seq, "segments", len(l.segs))
	return nil
}

// syncLocked flushes buffered frames and fsyncs the active segment.
func (l *Log) syncLocked() error {
	if !l.unsynced {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.fsyncLocked(); err != nil {
		return err
	}
	l.unsynced = false
	return nil
}

func (l *Log) fsyncLocked() error {
	start := time.Now()
	err := l.f.Sync()
	l.met.fsyncs.Inc()
	l.met.fsyncSecs.ObserveSince(start)
	return err
}

// Sync forces buffered records to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// syncLoop services SyncInterval policy in the background.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			if err := l.Sync(); err != nil {
				l.log.Warn("interval fsync failed", "err", err.Error())
			}
		}
	}
}

// LastSeq returns the sequence number of the last appended record (0 if
// none yet).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// SegmentCount returns the number of live segment files.
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes, fsyncs, and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	l.mu.Unlock()
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	return err
}

// ReplayStats summarizes one recovery replay.
type ReplayStats struct {
	Records  uint64 // records applied
	Updates  uint64 // stream updates credited by those records
	FirstSeq uint64 // first seq applied (0 if none)
	LastSeq  uint64 // last seq applied (0 if none)
	Elapsed  time.Duration
}

// Replay iterates every record with seq >= from, in order, through fn.
// Call it after Open (which already truncated any torn tail) and
// before the first Append. A frame error in a sealed (non-final)
// segment, or an undecodable record (ErrFormat) in any segment, is
// fatal and returns the error.
func (l *Log) Replay(from uint64, fn func(*Record) error) (ReplayStats, error) {
	start := time.Now()
	l.mu.Lock()
	// Flush so a replay after appends observes them (tests); the
	// common recovery path replays before any append.
	if l.w != nil && l.unsynced {
		l.w.Flush()
	}
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	var stats ReplayStats
	for i, s := range segs {
		// Skip segments entirely before the replay point.
		if s.last != 0 && s.last < from {
			continue
		}
		_, _, err := scanSegment(s.path, func(rec *Record) error {
			if rec.Seq < from {
				return nil
			}
			if err := fn(rec); err != nil {
				return &callbackError{err}
			}
			stats.Records++
			stats.Updates += rec.Count
			if stats.FirstSeq == 0 {
				stats.FirstSeq = rec.Seq
			}
			stats.LastSeq = rec.Seq
			l.met.replayRecords.Inc()
			return nil
		})
		if err != nil {
			var cb *callbackError
			if errors.As(err, &cb) {
				return stats, cb.err
			}
			if i == len(segs)-1 && isFrameError(err) {
				// Open already truncated the torn tail, so a frame error
				// here only means appends raced this replay (tests); the
				// intact prefix is the whole log.
				break
			}
			return stats, fmt.Errorf("wal: replay %s: %w", filepath.Base(s.path), err)
		}
	}
	stats.Elapsed = time.Since(start)
	l.met.replaySecs.Observe(stats.Elapsed.Seconds())
	return stats, nil
}

// callbackError wraps an error raised by a replay callback so Replay
// can tell it apart from framing-layer corruption.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// isFrameError reports whether err originates from the framing layer
// (torn or corrupt record) rather than from elsewhere.
func isFrameError(err error) bool {
	return errors.Is(err, ErrTorn) || errors.Is(err, ErrCorrupt)
}
