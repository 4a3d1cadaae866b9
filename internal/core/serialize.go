package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Serialization of sketch families, used to ship synopses from stream
// sites to the coordinator (paper Fig. 1) and to persist them on disk.
//
// Format (little-endian):
//
//	magic   "2LHS"            4 bytes
//	version u8                currently 1
//	buckets u16, secondLevel u16, firstWise u16
//	seed    u64               family master seed
//	copies  u32
//	per copy: totals, then for every bucket b and pair j the two
//	          cells X[b][j][0], X[b][j][1]; all zig-zag varint int64
//	crc32   u32 (IEEE, over everything after the magic)
//
// Counters are varint-encoded because most of a sketch is zero or small:
// a fresh 512-copy family serializes to a few hundred KB instead of the
// 8 MB of raw counters. Memory holds only side 1 of each pair (see
// Sketch.counts); the format keeps both, so the encoder derives side 0
// and the decoders reject a pair that does not sum to its bucket total,
// a state no update sequence reaches.

const (
	familyMagic   = "2LHS"
	familyVersion = 1
)

// ErrBadFormat is returned when deserialization encounters data that is
// not a serialized sketch family or fails its checksum.
var ErrBadFormat = errors.New("core: malformed sketch-family encoding")

var errTruncated = fmt.Errorf("%w: truncated counters", ErrBadFormat)

// serializedCounters returns the number of varints a family of the
// given shape serializes: per copy, the totals and both cells of every
// pair. Each takes at least one byte, which bounds what a header may
// claim against the bytes actually present before anything is
// allocated.
func serializedCounters(cfg Config, copies int) int {
	return copies * cfg.Buckets * (1 + 2*cfg.SecondLevel)
}

// AppendTo appends the family's serialization to buf and returns the
// extended slice — the allocation-free encoder behind WriteTo, for
// callers that manage their own scratch buffers (the wire hot path).
func (f *Family) AppendTo(buf []byte) []byte {
	start := len(buf)
	buf = append(buf, familyMagic...)
	var header [15]byte
	header[0] = familyVersion
	binary.LittleEndian.PutUint16(header[1:], uint16(f.cfg.Buckets))
	binary.LittleEndian.PutUint16(header[3:], uint16(f.cfg.SecondLevel))
	binary.LittleEndian.PutUint16(header[5:], uint16(f.cfg.FirstWise))
	binary.LittleEndian.PutUint64(header[7:], f.seed)
	buf = append(buf, header[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(f.copies)))
	s := f.cfg.SecondLevel
	for _, x := range f.copies {
		for _, c := range x.totals {
			buf = binary.AppendVarint(buf, c)
		}
		for b, t := range x.totals {
			for _, c1 := range x.counts[b*s : (b+1)*s] {
				buf = binary.AppendVarint(buf, t-c1)
				buf = binary.AppendVarint(buf, c1)
			}
		}
	}
	crc := crc32.ChecksumIEEE(buf[start+4:])
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// WriteTo serializes the family. It implements io.WriterTo.
func (f *Family) WriteTo(w io.Writer) (int64, error) {
	buf := f.AppendTo(nil)
	n, err := w.Write(buf)
	return int64(n), err
}

// DecodeFamily deserializes a family from a complete in-memory encoding
// written by AppendTo/WriteTo — the slice-based twin of ReadFamily for
// delimited payloads (wire frames), skipping the buffered-reader
// machinery. Beyond the family itself it does not allocate.
func DecodeFamily(data []byte) (*Family, error) {
	const minLen = 4 + 15 + 4 + 4 // magic + header + copies + crc
	if len(data) < minLen {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrBadFormat, len(data))
	}
	if string(data[:4]) != familyMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, data[:4])
	}
	body := data[4 : len(data)-4]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(data)-4:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %#x, want %#x)", ErrBadFormat, want, got)
	}
	if body[0] != familyVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, body[0])
	}
	cfg := Config{
		Buckets:     int(binary.LittleEndian.Uint16(body[1:])),
		SecondLevel: int(binary.LittleEndian.Uint16(body[3:])),
		FirstWise:   int(binary.LittleEndian.Uint16(body[5:])),
	}
	seed := binary.LittleEndian.Uint64(body[7:])
	copies := int(binary.LittleEndian.Uint32(body[15:]))
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	const maxCopies = 1 << 20
	if copies < 1 || copies > maxCopies {
		return nil, fmt.Errorf("%w: copy count %d out of range", ErrBadFormat, copies)
	}
	p := body[19:]
	if len(p) < serializedCounters(cfg, copies) {
		return nil, errTruncated
	}
	fam, err := NewFamily(cfg, seed, copies)
	if err != nil {
		return nil, err
	}
	// The loops mirror Sketch.decodeCounters without first collecting
	// the values: this is the wire hot path.
	s := cfg.SecondLevel
	for _, x := range fam.copies {
		for b := range x.totals {
			v, n := binary.Varint(p)
			if n <= 0 {
				return nil, errTruncated
			}
			x.totals[b] = v
			p = p[n:]
		}
		for b, t := range x.totals {
			c := x.counts[b*s : (b+1)*s]
			for j := range c {
				c0, n := binary.Varint(p)
				if n <= 0 {
					return nil, errTruncated
				}
				p = p[n:]
				c1, n := binary.Varint(p)
				if n <= 0 {
					return nil, errTruncated
				}
				p = p[n:]
				if c0+c1 != t {
					return nil, errPairSum(b, j, c0+c1, t)
				}
				c[j] = c1
			}
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadFormat, len(p))
	}
	return fam, nil
}

// decodeCounters fills the sketch's counters from one copy's
// serialized values — the totals, then both cells of every pair,
// bucket by bucket — and returns the values after them. Only side 1 is
// stored; a pair whose cells do not sum to the bucket total is
// rejected. vals must hold at least one copy's values.
func (x *Sketch) decodeCounters(vals []int64) ([]int64, error) {
	nb, s := x.cfg.Buckets, x.cfg.SecondLevel
	copy(x.totals, vals[:nb])
	pairs := vals[nb : nb+2*nb*s]
	for b, t := range x.totals {
		c := x.counts[b*s : (b+1)*s]
		for j := range c {
			c0, c1 := pairs[2*(b*s+j)], pairs[2*(b*s+j)+1]
			if c0+c1 != t {
				return nil, errPairSum(b, j, c0+c1, t)
			}
			c[j] = c1
		}
	}
	return vals[nb+2*nb*s:], nil
}

func errPairSum(b, j int, sum, total int64) error {
	return fmt.Errorf("%w: bucket %d pair %d sums to %d, total is %d", ErrBadFormat, b, j, sum, total)
}

// crcReader tees reads into a CRC32 accumulator.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// ReadFamily deserializes a family written by WriteTo, verifying the
// checksum and reconstructing the hash functions from the stored seed.
func ReadFamily(r io.Reader) (*Family, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(magic) != familyMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, magic)
	}
	cr := &crcReader{r: br}
	header := make([]byte, 19)
	if _, err := io.ReadFull(cr, header); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrBadFormat, err)
	}
	if header[0] != familyVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, header[0])
	}
	cfg := Config{
		Buckets:     int(binary.LittleEndian.Uint16(header[1:])),
		SecondLevel: int(binary.LittleEndian.Uint16(header[3:])),
		FirstWise:   int(binary.LittleEndian.Uint16(header[5:])),
	}
	seed := binary.LittleEndian.Uint64(header[7:])
	copies := int(binary.LittleEndian.Uint32(header[15:]))
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	const maxCopies = 1 << 20
	if copies < 1 || copies > maxCopies {
		return nil, fmt.Errorf("%w: copy count %d out of range", ErrBadFormat, copies)
	}
	// A stream's length is unknown up front, so the values are read
	// before the family is allocated: memory grows with the counters
	// actually present, never with what the header claims.
	// Varint decoding needs byte-granular reads that also feed the CRC.
	byter := &crcByteReader{cr: cr}
	n := serializedCounters(cfg, copies)
	vals := make([]int64, 0, min(n, 1<<16))
	for len(vals) < n {
		v, err := binary.ReadVarint(byter)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errTruncated, err)
		}
		vals = append(vals, v)
	}
	wantCRC := cr.crc
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrBadFormat, err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch (got %#x, want %#x)", ErrBadFormat, got, wantCRC)
	}
	fam, err := NewFamily(cfg, seed, copies)
	if err != nil {
		return nil, err
	}
	for _, x := range fam.copies {
		if vals, err = x.decodeCounters(vals); err != nil {
			return nil, err
		}
	}
	return fam, nil
}

// crcByteReader adapts crcReader to io.ByteReader for varint decoding.
type crcByteReader struct {
	cr  *crcReader
	buf [1]byte
}

func (b *crcByteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.cr, b.buf[:]); err != nil {
		return 0, err
	}
	return b.buf[0], nil
}
