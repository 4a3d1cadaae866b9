package core

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"

	"setsketch/internal/expr"
	"setsketch/internal/hashing"
)

// FuzzDigestEquivalence drives the digest-based update kernel against
// the direct hashing path with fuzzer-chosen shape, coins, and update
// sequence — including deletions that push counters down through zero —
// and requires bit-identical families. Linearity is what makes the
// digest path safe: both paths add the same ±v to the same s+1 counters
// per copy, so any divergence is a packing or replay bug. All three
// families must also read, cell by cell, exactly what a two-sided
// reference array (the paper's X[b][j][side], driven by hashing the
// elements directly) holds, so a one-sided layout that derives side 0
// wrongly fails here even when the three agree.
func FuzzDigestEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(61), uint8(32), uint8(8), []byte("\x01\x02\x03\xff\x02"))
	f.Add(uint64(99), uint8(8), uint8(1), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint64(7), uint8(16), uint8(58), uint8(3), []byte("stream"))
	f.Fuzz(func(t *testing.T, seed uint64, buckets, s, wise uint8, data []byte) {
		cfg := Config{
			Buckets:     1 + int(buckets)%61,
			SecondLevel: 1 + int(s)%maxSecondLevel,
			FirstWise:   2 + int(wise)%8,
		}
		const r = 5
		direct, err := NewFamily(cfg, seed, r)
		if err != nil {
			t.Fatal(err)
		}
		viaDigest, _ := NewFamily(cfg, seed, r)
		viaBatch, _ := NewFamily(cfg, seed, r)
		// ref[i][b·s + j][side] is copy i's cell (b, j, side).
		ref := make([][][2]int64, r)
		for i := range ref {
			ref[i] = make([][2]int64, cfg.Buckets*cfg.SecondLevel)
		}
		// Decode the byte stream as alternating (element, delta) nibbles:
		// a tiny element domain forces collisions, repeated elements, and
		// counters that return to zero.
		elems := make([]uint64, 0, len(data))
		deltas := make([]int64, 0, len(data))
		for i, b := range data {
			e := uint64(b >> 4)
			v := int64(b&7) - 3 // deltas in [−3, +4]
			if v == 0 {
				v = 4
			}
			elems = append(elems, e)
			deltas = append(deltas, v)
			er := hashing.Reduce61(e)
			for i, x := range direct.copies {
				b := hashing.LSB(x.h.HashReduced(er), cfg.Buckets)
				for j, g := range x.g {
					ref[i][b*cfg.SecondLevel+j][g.BitReduced(er)] += v
				}
			}
			direct.Update(e, v)
			d := viaDigest.Digest(e)
			mid := i % (r + 1)
			viaDigest.UpdateRangeBatchDigest(0, mid, []Digest{d}, []int64{v})
			viaDigest.UpdateRangeBatchDigest(mid, r, []Digest{d}, []int64{v})
		}
		if !direct.Equal(viaDigest) {
			t.Fatalf("digest path diverged from direct path (cfg %+v, seed %d, %d updates)",
				cfg, seed, len(data))
		}
		// The batch kernel must agree too: batch-computed digests are
		// word-for-word the scalar digests, and a split-range batch
		// replay rebuilds the same counters.
		ds := viaBatch.DigestBatch(elems)
		for k, e := range elems {
			want := direct.Digest(e)
			for i := range want {
				if ds[k][i] != want[i] {
					t.Fatalf("DigestBatch[%d][%d] = %#x, scalar Digest = %#x (elem %d)",
						k, i, ds[k][i], want[i], e)
				}
			}
		}
		mid := len(data) % (r + 1)
		viaBatch.UpdateRangeBatchDigest(0, mid, ds, deltas)
		viaBatch.UpdateRangeBatchDigest(mid, r, ds, deltas)
		if !direct.Equal(viaBatch) {
			t.Fatalf("batch digest path diverged from direct path (cfg %+v, seed %d, %d updates)",
				cfg, seed, len(data))
		}
		for k, fam := range []*Family{direct, viaDigest, viaBatch} {
			name := [...]string{"direct", "digest", "batch"}[k]
			for i, x := range fam.copies {
				for b := 0; b < cfg.Buckets; b++ {
					for j := 0; j < cfg.SecondLevel; j++ {
						for side, want := range ref[i][b*cfg.SecondLevel+j] {
							if got := x.count(b, j, side); got != want {
								t.Fatalf("%s copy %d: count(%d, %d, %d) = %d, two-sided reference %d (cfg %+v, seed %d)",
									name, i, b, j, side, got, want, cfg, seed)
							}
						}
					}
				}
			}
		}
	})
}

// FuzzQueryViewMaintained drives a family with a fuzzer-chosen shape
// and coins through a tape of every mutator — the four update entry
// points (ranged and whole), Merge, MergeRange, Reset, Clone, and
// writes through a Truncate view — interleaved with view reads. Every
// read of the family and of its Truncate view must equal the view
// rebuilt from the counters word for word, and the compiled estimate
// must be bit-identical to the same query over a Clone, whose view is
// built fresh. A mutator that writes counters without marking their
// buckets dirty fails here.
//
// The tape is a sequence of 4-byte ops: [op, element, delta, range]; a
// read with an odd element byte refreshes the Truncate view first.
func FuzzQueryViewMaintained(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, buckets, s uint8, tape []byte) {
		cfg := Config{
			Buckets:     1 + int(buckets)%61,
			SecondLevel: 1 + int(s)%maxSecondLevel,
			FirstWise:   4,
		}
		const r, rt = 4, 2 // the family's copies, and its Truncate view's
		fam, err := NewFamily(cfg, seed, r)
		if err != nil {
			t.Fatal(err)
		}
		// other is stream B of the estimate and the source of merges.
		other, _ := NewFamily(cfg, seed, r)
		for e := uint64(0); e < 6; e++ {
			other.Update(3*e+1, 1)
		}
		otherTr, _ := other.Truncate(rt)
		tr, _ := fam.Truncate(rt)
		var cloned *Family // the family the last Clone op copied
		q, err := CompileQuery(expr.MustParse("A - B"))
		if err != nil {
			t.Fatal(err)
		}
		// read checks every view, the Truncate view first when
		// truncFirst: its refresh must leave the parent's masks alone,
		// as the clone's must leave the cloned family's.
		read := func(step int, truncFirst bool) {
			if truncFirst {
				sameView(t, fmt.Sprintf("step %d: truncate view", step), tr.queryView(), counterViewOracle(tr))
			}
			sameView(t, fmt.Sprintf("step %d: family", step), fam.queryView(), counterViewOracle(fam))
			sameView(t, fmt.Sprintf("step %d: truncate view", step), tr.queryView(), counterViewOracle(tr))
			if cloned != nil {
				sameView(t, fmt.Sprintf("step %d: cloned family", step), cloned.queryView(), counterViewOracle(cloned))
			}
			got, gotErr := q.Estimate(map[string]*Family{"A": fam, "B": other}, 0.5, true, EstimateOptions{})
			want, wantErr := q.Estimate(map[string]*Family{"A": fam.Clone(), "B": other}, 0.5, true, EstimateOptions{})
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("step %d: estimate %+v (%v), over a clone %+v (%v)", step, got, gotErr, want, wantErr)
			}
		}
		for step := 0; len(tape) >= 4; step++ {
			op, eb, vb, rb := tape[0], tape[1], tape[2], tape[3]
			tape = tape[4:]
			e := uint64(eb % 32) // a tiny domain: collisions and counters back at zero
			v := int64(vb%8) - 3 // deltas in [−3, +4]
			if v == 0 {
				v = 4
			}
			lo := int(rb) % (r + 1)
			hi := lo + int(rb>>4)%(r+1-lo)
			switch op % 11 {
			case 0:
				fam.Update(e, v)
			case 1:
				fam.UpdateRangeBatchDigest(lo, hi, []Digest{fam.Digest(e)}, []int64{v})
			case 2:
				fam.UpdateDigest(fam.Digest(e), v)
			case 3:
				fam.UpdateBatchDigest(fam.DigestBatch([]uint64{e}), []int64{v})
			case 4:
				fam.UpdateRangeBatchDigest(lo, hi, fam.DigestBatch([]uint64{e, e + 1, e + 7}), []int64{v, -v, v})
			case 5:
				err = fam.Merge(other)
			case 6:
				err = fam.MergeRange(lo, hi, other)
			case 7:
				fam.Reset()
			case 8:
				cloned, fam = fam, fam.Clone()
				tr, _ = fam.Truncate(rt)
			case 9:
				switch eb % 4 {
				case 0:
					tr.Update(e, v)
				case 1:
					tr.UpdateRangeBatchDigest(lo%(rt+1), rt, []Digest{tr.Digest(e)}, []int64{v})
				case 2:
					err = tr.Merge(otherTr)
				case 3:
					tr.Reset()
				}
			case 10:
				read(step, eb%2 == 1)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		read(-1, false)
	})
}

// FuzzEstimateMatchesReference drives the query kernel against the
// interpreted reference (reference_test.go) on small families built
// from a tape of legal updates — multiplicities, single deletions, and
// deletions that cancel an element exactly — and a fuzzer-built
// expression over four streams. Query.Estimate must equal the
// reference bit for bit, single- and multi-level, serially and on
// three workers; the Fig. 5 union must equal the literal level scan.
//
// shape: bits 0–3 pick r = 1..16 copies, bits 4–5 ε, bit 6 s = 2 or
// 16, and bit 7 the wide shape: the expression joins
// ((s00 | … | s63) − s64), so 65 streams reach the uncompiled scan.
// node is a prefix encoding (fuzzNode); tape holds 3-byte updates
// [stream, element, kind].
func FuzzEstimateMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, node, tape []byte) {
		cfg := Config{Buckets: 12, SecondLevel: 2, FirstWise: 4}
		if shape&0x40 != 0 {
			cfg.SecondLevel = 16
		}
		r := 1 + int(shape&0x0f)
		eps := []float64{0.1, 0.25, 0.5, 0.9}[shape>>4&3]
		e := fuzzNode(&node, 4)
		streams := 4
		if shape&0x80 != 0 {
			streams = 65
			var wide expr.Node = &expr.Stream{Name: "s00"}
			for k := 1; k < 64; k++ {
				wide = &expr.Binary{Op: expr.Union, L: wide, R: &expr.Stream{Name: fmt.Sprintf("s%02d", k)}}
			}
			wide = &expr.Binary{Op: expr.Diff, L: wide, R: &expr.Stream{Name: "s64"}}
			e = &expr.Binary{Op: expr.Op(seed % 4), L: e, R: wide}
		}
		fams := make(map[string]*Family, streams)
		ordered := make([]*Family, streams)
		for k := range ordered {
			ordered[k], _ = NewFamily(cfg, seed, r)
			fams[fmt.Sprintf("s%02d", k)] = ordered[k]
		}
		net := map[[2]uint64]int64{}
		for ; len(tape) >= 3; tape = tape[3:] {
			k, el := uint64(tape[0])%uint64(streams), uint64(tape[1]%64)
			key := [2]uint64{k, el}
			switch v := int64(tape[2]>>2)%3 + 1; tape[2] % 4 {
			case 0, 1:
				net[key] += v
				ordered[k].Update(el, v)
			case 2: // delete one occurrence, if any is left
				if net[key] > 0 {
					net[key]--
					ordered[k].Update(el, -1)
				}
			case 3: // cancel the element exactly
				ordered[k].Update(el, -net[key])
				net[key] = 0
			}
		}
		q, err := CompileQuery(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, multi := range []bool{false, true} {
			want, wantErr := referenceEstimate(e, fams, eps, multi)
			got, err := q.Estimate(fams, eps, multi, EstimateOptions{})
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
				t.Fatalf("%s multi=%v: kernel %+v (%v), reference %+v (%v)",
					e, multi, got, err, want, wantErr)
			}
		}
		got, err := EstimateUnion(ordered, eps, false)
		want, wantErr := fig5Union(ordered, eps)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
			t.Fatalf("union: kernel %+v (%v), Fig. 5 %+v (%v)", got, err, want, wantErr)
		}
	})
}

// fuzzNode decodes a prefix-encoded expression over streams s00–s03:
// a byte with the high bit set is the operator of its low two bits
// applied to the two expressions that follow, any other byte the leaf
// s0(b mod 4). Past depth or input, leaves are s00.
func fuzzNode(b *[]byte, depth int) expr.Node {
	if len(*b) == 0 {
		return &expr.Stream{Name: "s00"}
	}
	c := (*b)[0]
	*b = (*b)[1:]
	if c&0x80 == 0 || depth == 0 {
		return &expr.Stream{Name: fmt.Sprintf("s%02d", c%4)}
	}
	return &expr.Binary{Op: expr.Op(c % 4), L: fuzzNode(b, depth-1), R: fuzzNode(b, depth-1)}
}

// FuzzReadFamily hardens deserialization: arbitrary bytes must be
// rejected cleanly (error, not panic, not unbounded allocation), and
// any input that IS accepted must re-serialize to a working family.
// DecodeFamily must agree with ReadFamily on the same bytes: both
// reject, or both accept Equal families — except that ReadFamily reads
// one family off a stream and leaves any bytes after it, where
// DecodeFamily takes a whole payload and rejects trailing bytes.
func FuzzReadFamily(f *testing.F) {
	// Seed with a genuine serialized family and some mutations.
	fam, err := NewFamily(Config{Buckets: 61, SecondLevel: 4, FirstWise: 2}, 3, 2)
	if err != nil {
		f.Fatal(err)
	}
	fam.Insert(42)
	fam.Update(7, 3)
	var buf bytes.Buffer
	if _, err := fam.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("2LHS"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// ReadFamily adopts a large-enough *bufio.Reader as its own, so
		// what it leaves unread stays visible in rd.
		rd := bufio.NewReader(bytes.NewReader(data))
		got, err := ReadFamily(rd)
		dec, decErr := DecodeFamily(data)
		if err != nil {
			if decErr == nil {
				t.Fatalf("DecodeFamily accepted what ReadFamily rejects: %v", err)
			}
			return
		}
		_, trailErr := rd.ReadByte()
		if trailing := trailErr == nil; (decErr == nil) == trailing {
			t.Fatalf("ReadFamily accepted (trailing bytes: %v), DecodeFamily: %v", trailing, decErr)
		}
		if decErr == nil && !dec.Equal(got) {
			t.Fatal("DecodeFamily and ReadFamily accepted different families")
		}
		// Accepted input must be internally consistent and round-trip.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted family does not re-serialize: %v", err)
		}
		again, err := ReadFamily(&out)
		if err != nil {
			t.Fatalf("re-serialized family rejected: %v", err)
		}
		if !again.Equal(got) {
			t.Fatal("round trip of accepted family changed it")
		}
	})
}
