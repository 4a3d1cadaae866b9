package wal

import (
	"errors"
	"os"
	"path/filepath"
)

// Inspection is read-only dumping of a WAL directory for the
// `sketchd inspect wal` subcommand and for tests: unlike Open it never
// truncates a torn tail or validates coins, it just reports what is on
// disk, including where corruption starts.

// SegmentReport describes one segment file as found on disk.
type SegmentReport struct {
	Path     string
	Size     int64
	FirstSeq uint64 // from the header (0 if the header is unreadable)
	LastSeq  uint64 // last intact record (0 if none)
	Records  uint64
	ByType   map[byte]uint64 // intact record counts by record type
	Bytes    int64           // bytes of intact frames (header excluded)

	// Corrupt is non-empty when the scan stopped before the end of the
	// file: the error description, with TruncateAt the byte offset of
	// the last intact record's end — the point recovery would truncate
	// to, unless Undecodable: then the frame there passed its checksum
	// but does not decode, and recovery refuses the log instead.
	Corrupt     string
	TruncateAt  int64
	Undecodable bool
}

// SnapshotReport describes one snapshot (by manifest) as found on disk.
type SnapshotReport struct {
	ManifestPath string
	DataPath     string
	Seq          uint64
	Updates      uint64
	Streams      int
	DataSize     int64

	// Err is non-empty when the manifest or data file fails
	// verification; recovery would skip this snapshot.
	Err string
}

// DirReport is the full read-only report over a WAL directory.
type DirReport struct {
	Dir       string
	Segments  []SegmentReport
	Snapshots []SnapshotReport // ascending by covering seq
}

// RecordTypeName names a record type for display.
func RecordTypeName(t byte) string {
	switch t {
	case RecUpdates:
		return "updates"
	case RecDigests:
		return "digests(read-only)"
	case RecDelta:
		return "delta"
	case RecMark:
		return "mark"
	case RecView:
		return "view"
	}
	return "unknown"
}

// InspectDir scans every segment and snapshot of a WAL directory
// without modifying anything.
func InspectDir(dir string) (*DirReport, error) {
	rep := &DirReport{Dir: dir}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		sr := SegmentReport{Path: s.path, Size: s.size, ByType: make(map[byte]uint64)}
		if f, err := os.Open(s.path); err == nil {
			if _, _, _, first, err := readSegmentHeader(f); err == nil {
				sr.FirstSeq = first
			}
			f.Close()
		}
		last, end, scanErr := scanSegment(s.path, func(rec *Record) error {
			sr.Records++
			sr.ByType[rec.Type]++
			return nil
		})
		sr.LastSeq = last
		sr.Bytes = end - segHeaderSize
		if scanErr != nil {
			sr.Corrupt = scanErr.Error()
			sr.TruncateAt = end
			sr.Undecodable = errors.Is(scanErr, ErrFormat)
		}
		rep.Segments = append(rep.Segments, sr)
	}
	seqs, err := listSnapshotSeqs(dir, maniSuffix)
	if err != nil {
		return nil, err
	}
	for _, seq := range seqs {
		sr := SnapshotReport{
			ManifestPath: snapManifestPath(dir, seq),
			Seq:          seq,
		}
		mb, err := os.ReadFile(sr.ManifestPath)
		if err != nil {
			sr.Err = err.Error()
			rep.Snapshots = append(rep.Snapshots, sr)
			continue
		}
		m, err := decodeManifest(mb)
		if err != nil {
			sr.Err = err.Error()
			rep.Snapshots = append(rep.Snapshots, sr)
			continue
		}
		sr.Updates = m.Updates
		sr.Streams = m.Streams
		sr.DataSize = m.DataSize
		sr.DataPath = filepath.Join(dir, filepath.Base(m.DataName))
		if _, err := loadSnapshot(dir, seq); err != nil {
			sr.Err = err.Error()
		}
		rep.Snapshots = append(rep.Snapshots, sr)
	}
	return rep, nil
}
