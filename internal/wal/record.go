// Package wal implements the durability subsystem: an append-only
// write-ahead log of update batches plus periodic snapshots of merged
// family state, together supporting exact crash recovery.
//
// Sketch families are linear synopses — every counter is a sum of
// per-update contributions — so replaying any suffix of the logged
// update batches over an earlier family state reconstructs the exact
// sketch, bit for bit. Recovery is therefore: load the newest valid
// snapshot, replay every WAL record after the snapshot's covering
// sequence number, and the coordinator is exactly where it crashed.
//
// The log is a directory of segment files, each a fixed header followed
// by CRC32C-framed records with monotonically increasing sequence
// numbers:
//
//	segment header (35 bytes)
//	  magic   "SWAL"      4 bytes
//	  version u8          currently 1
//	  buckets u16, secondLevel u16, firstWise u16   (stored coins)
//	  seed    u64
//	  copies  u32
//	  first   u64         sequence number of the first record
//	  crc     u32         CRC32C over version..first
//
//	record frame
//	  length  u32         body bytes
//	  crc     u32         CRC32C over the body
//	  body:
//	    type  u8
//	    seq   u64
//	    payload             type-specific, see below
//
// All integers are little-endian; strings are uvarint length + bytes.
// Segments rotate at a size threshold and are named by the sequence
// number of their first record (%020d.wal), so the set of segments
// covering a replay suffix is computable from file names alone.
//
//sketchvet:bitexact
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"setsketch/internal/core"
	"setsketch/internal/datagen"
)

// Record types. An update batch is logged as the raw ⟨stream, elem,
// ±v⟩ triples it arrived as — about 10 bytes per update — and recovery
// coalesces the replayed suffix and hashes each distinct element once.
// A synopsis delta is logged as the core serialization bytes it
// arrived in.
const (
	// RecUpdates is a raw update batch, verbatim:
	//
	//	site    string
	//	count   uvarint      updates credited toward watch triggers
	//	streams uvarint n, then n strings (referenced by index)
	//	entries uvarint m, then m × { stream uvarint, elem u64, delta zigzag }
	RecUpdates = byte(1)

	// RecDigests is read-only: older binaries logged update batches
	// digest-packed, coalesced to one net entry per (stream, element).
	// Logs they wrote still decode and replay; nothing encodes it.
	//
	//	site    string
	//	count   uvarint      updates credited (pre-coalescing batch size)
	//	words   uvarint      digest words per entry (= family copies)
	//	streams uvarint n, then n strings
	//	entries uvarint m, then m × { stream uvarint, elem u64,
	//	                              delta zigzag, words × u64 }
	RecDigests = byte(2)

	// RecDelta is one locally sketched synopsis delta:
	//
	//	site     string
	//	stream   string
	//	count    uvarint     local updates the delta summarizes
	//	synopsis uvarint len, then the core serialization bytes
	RecDelta = byte(3)

	// RecMark is a flush mark (site-local logs): every record at or
	// before it has been acknowledged downstream and is redundant.
	//
	//	site string
	RecMark = byte(4)

	// RecView is a continuous-view catalog change: a canonical
	// CREATE VIEW or DROP VIEW statement (see internal/cq). Replaying
	// the statement suffix over a snapshot's view list reconstructs the
	// catalog exactly, which is how views survive restarts.
	//
	//	view      string    view name
	//	statement string    canonical statement text
	RecView = byte(5)
)

// maxRecord bounds a decoded record body so corrupt length fields
// cannot force huge allocations. It comfortably exceeds the wire
// protocol's 64 MiB frame cap, and the RecDigests records of older
// binaries (1 KiB of digest words per entry at 128 copies).
const maxRecord = 256 << 20

// maxDigestWords bounds the per-entry digest width (= family copies,
// mirroring the serialization layer's copy-count cap).
const maxDigestWords = 1 << 20

// castagnoli is the CRC32C polynomial table used for all WAL framing.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record frame that failed its checksum; ErrTorn
// reports an incomplete frame at the end of a segment (the signature of
// a crash mid-append). Either at the tail of the final segment is
// truncated away on Open. ErrFormat reports a frame whose checksum
// passes but whose body does not decode or does not follow its
// predecessor — written whole, for example by another binary version —
// so it is never truncated: Open and Replay fail instead.
var (
	ErrCorrupt = errors.New("wal: corrupt record")
	ErrTorn    = errors.New("wal: torn record at end of segment")
	ErrFormat  = errors.New("wal: undecodable record")
)

// DigestUpdate is one coalesced, digest-resolved update (an entry of
// DigestUpdates, or of a RecDigests record): applying Digest with
// UpdateDigest is exactly equivalent to Delta copies of
// Update(Elem, ±1) by linearity.
type DigestUpdate struct {
	Stream string
	Elem   uint64
	Delta  int64
	Digest core.Digest
}

// Record is one WAL entry. Exactly one of the payload groups is
// populated, according to Type.
type Record struct {
	Seq  uint64
	Type byte
	Site string

	// Count is the number of stream updates this record credits toward
	// the coordinator's watch triggers (RecUpdates/RecDigests: the
	// batch size before coalescing; RecDelta: the reported local count).
	Count uint64

	Updates []datagen.Update // RecUpdates
	Digests []DigestUpdate   // RecDigests

	Stream   string // RecDelta
	Synopsis []byte // RecDelta

	View      string // RecView: view name
	Statement string // RecView: canonical CREATE VIEW / DROP VIEW text
}

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// encodeBody renders the record body (type, seq, payload). The frame
// header (length, crc) is written by the segment appender.
func encodeBody(rec *Record) ([]byte, error) {
	b := make([]byte, 0, 64)
	b = append(b, rec.Type)
	b = binary.LittleEndian.AppendUint64(b, rec.Seq)
	switch rec.Type {
	case RecUpdates:
		b = appendString(b, rec.Site)
		b = binary.AppendUvarint(b, rec.Count)
		var tab []string
		idx := make(map[string]int)
		for _, u := range rec.Updates {
			if _, ok := idx[u.Stream]; !ok {
				idx[u.Stream] = len(tab)
				tab = append(tab, u.Stream)
			}
		}
		b = binary.AppendUvarint(b, uint64(len(tab)))
		for _, n := range tab {
			b = appendString(b, n)
		}
		b = binary.AppendUvarint(b, uint64(len(rec.Updates)))
		for _, u := range rec.Updates {
			b = binary.AppendUvarint(b, uint64(idx[u.Stream]))
			b = binary.LittleEndian.AppendUint64(b, u.Elem)
			b = binary.AppendVarint(b, u.Delta)
		}
	case RecDelta:
		b = appendString(b, rec.Site)
		b = appendString(b, rec.Stream)
		b = binary.AppendUvarint(b, rec.Count)
		b = binary.AppendUvarint(b, uint64(len(rec.Synopsis)))
		b = append(b, rec.Synopsis...)
	case RecMark:
		b = appendString(b, rec.Site)
	case RecView:
		b = appendString(b, rec.View)
		b = appendString(b, rec.Statement)
	default: // RecDigests included: it is read-only
		return nil, fmt.Errorf("wal: record type %#x has no encoder", rec.Type)
	}
	if len(b) > maxRecord {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds limit", len(b))
	}
	return b, nil
}

// byteCursor is a bounds-checked reader over a record body.
type byteCursor struct {
	b   []byte
	off int
	err error
}

func (c *byteCursor) fail() {
	if c.err == nil {
		c.err = ErrCorrupt
	}
}

func (c *byteCursor) u8() byte {
	if c.err != nil || c.off >= len(c.b) {
		c.fail()
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *byteCursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *byteCursor) u64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *byteCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *byteCursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

func (c *byteCursor) str() string {
	n := c.uvarint()
	if c.err != nil || n > uint64(len(c.b)-c.off) {
		c.fail()
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}

func (c *byteCursor) bytes() []byte {
	n := c.uvarint()
	if c.err != nil || n > uint64(len(c.b)-c.off) {
		c.fail()
		return nil
	}
	v := make([]byte, n)
	copy(v, c.b[c.off:])
	c.off += int(n)
	return v
}

// count reads a uvarint element count and sanity-bounds it by the
// remaining bytes (each element costs at least min bytes), so a corrupt
// count cannot drive a huge allocation before decoding fails.
func (c *byteCursor) count(min int) int {
	n := c.uvarint()
	if c.err != nil || n > uint64((len(c.b)-c.off)/min+1) {
		c.fail()
		return 0
	}
	return int(n)
}

// decodeBody parses a record body previously written by encodeBody
// (or, for RecDigests, by an older binary). It never panics on corrupt
// input; malformed bodies return ErrFormat.
func decodeBody(b []byte) (*Record, error) {
	c := &byteCursor{b: b}
	rec := &Record{Type: c.u8(), Seq: c.u64()}
	switch rec.Type {
	case RecUpdates:
		rec.Site = c.str()
		rec.Count = c.uvarint()
		tab := make([]string, c.count(1))
		for i := range tab {
			tab[i] = c.str()
		}
		m := c.count(10)
		rec.Updates = make([]datagen.Update, 0, m)
		for i := 0; i < m && c.err == nil; i++ {
			si := c.uvarint()
			if si >= uint64(len(tab)) {
				c.fail()
				break
			}
			rec.Updates = append(rec.Updates, datagen.Update{
				Stream: tab[si], Elem: c.u64(), Delta: c.varint(),
			})
		}
	case RecDigests:
		rec.Site = c.str()
		rec.Count = c.uvarint()
		words := c.uvarint()
		if words > maxDigestWords {
			c.fail()
		}
		tab := make([]string, c.count(1))
		for i := range tab {
			tab[i] = c.str()
		}
		m := c.count(10 + 8*int(words))
		rec.Digests = make([]DigestUpdate, 0, m)
		for i := 0; i < m && c.err == nil; i++ {
			si := c.uvarint()
			if si >= uint64(len(tab)) {
				c.fail()
				break
			}
			d := DigestUpdate{Stream: tab[si], Elem: c.u64(), Delta: c.varint()}
			d.Digest = make(core.Digest, words)
			for w := range d.Digest {
				d.Digest[w] = c.u64()
			}
			rec.Digests = append(rec.Digests, d)
		}
	case RecDelta:
		rec.Site = c.str()
		rec.Stream = c.str()
		rec.Count = c.uvarint()
		rec.Synopsis = c.bytes()
	case RecMark:
		rec.Site = c.str()
	case RecView:
		rec.View = c.str()
		rec.Statement = c.str()
	default:
		return nil, fmt.Errorf("%w: unknown record type %#x", ErrFormat, rec.Type)
	}
	if c.err != nil {
		return nil, fmt.Errorf("%w: type %#x payload is malformed", ErrFormat, rec.Type)
	}
	if c.off != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(b)-c.off)
	}
	return rec, nil
}
