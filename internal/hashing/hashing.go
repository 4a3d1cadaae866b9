// Package hashing provides the limited-independence hash-function families
// and deterministic seed derivation that 2-level hash sketches are built on.
//
// The paper's analysis (Ganguly, Garofalakis, Rastogi; SIGMOD 2003, §3.6)
// requires first-level hash functions that are Θ(log 1/ε)-wise independent
// and second-level functions that are pairwise independent. Both are
// realized here as degree-d polynomials over the Mersenne-prime field
// GF(2^61−1): a polynomial with d independently random coefficients is
// d-wise independent, and evaluation costs d−1 multiply-adds.
//
// All randomness is derived deterministically from 64-bit seeds via a
// splitmix64 mixer. Deterministic derivation is what implements the
// "distributed-streams model with stored coins" (Gibbons–Tirthapura):
// two sites that share a master seed construct bit-identical hash
// functions and therefore mergeable, aligned sketches.
package hashing

import (
	"fmt"
	"math/bits"
)

// MersennePrime is 2^61 − 1, the field modulus used by all polynomial
// hash families in this package.
const MersennePrime uint64 = (1 << 61) - 1

// FieldBits is the bit width of polynomial hash outputs. A first-level
// hash value is uniform over [0, MersennePrime), so its LSB index is
// (almost exactly) geometric over {0, …, FieldBits−1}.
const FieldBits = 61

// mulmod61 computes a*b mod 2^61−1 without overflow using a 128-bit
// intermediate product. For p = 2^61−1, (hi, lo) with hi = ⌊ab/2^64⌋
// satisfies ab ≡ hi·2^3·(2^61 mod p) + lo ≡ 8·hi + lo (mod p) after
// folding, because 2^64 ≡ 2^3 (mod 2^61−1).
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// ab = hi·2^64 + lo ≡ 8·hi + lo (mod 2^61−1).
	r := 8*hi + (lo >> 61) + (lo & MersennePrime)
	// 8*hi can overflow only if hi ≥ 2^61, impossible since a, b < 2^61.
	r = (r >> 61) + (r & MersennePrime)
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// addmod61 computes a+b mod 2^61−1 for a, b < 2^61−1.
func addmod61(a, b uint64) uint64 {
	r := a + b
	if r >= MersennePrime {
		r -= MersennePrime
	}
	return r
}

// Poly is a degree-(d−1) polynomial hash over GF(2^61−1). With d
// independently random coefficients it is a d-wise independent family:
// for any d distinct inputs the outputs are independent and uniform
// over the field.
type Poly struct {
	// coef holds the polynomial coefficients, constant term first.
	// All are in [0, MersennePrime); the leading coefficient is nonzero
	// so distinct functions of the same degree remain distinct.
	coef []uint64
}

// NewPoly constructs a degree-(wise−1) polynomial hash function — a member
// of a wise-wise independent family — with coefficients drawn from the
// given seed. wise must be at least 1; wise = 2 gives the classic pairwise
// linear family a·x + b.
func NewPoly(seed uint64, wise int) *Poly {
	if wise < 1 {
		panic(fmt.Sprintf("hashing: polynomial independence degree %d < 1", wise))
	}
	rng := NewRNG(seed)
	coef := make([]uint64, wise)
	for i := range coef {
		coef[i] = rng.Uint64n(MersennePrime)
	}
	// Force a nonzero leading coefficient so the map is a genuine
	// degree-(wise−1) polynomial (required for injectivity arguments).
	if wise > 1 && coef[wise-1] == 0 {
		coef[wise-1] = 1
	}
	return &Poly{coef: coef}
}

// Hash evaluates the polynomial at x (reduced into the field) by
// Horner's rule.
func (p *Poly) Hash(x uint64) uint64 {
	// Elements come from [M] with M ≤ 2^32 in the paper's model, so the
	// reduction is usually a no-op.
	return p.HashReduced(Reduce61(x))
}

// HashReduced evaluates the polynomial at an input already reduced into
// the field, skipping the entry reduction Hash performs. The digest and
// family update paths reduce a stream element once and evaluate many
// polynomials at it.
func (p *Poly) HashReduced(x uint64) uint64 {
	acc := p.coef[len(p.coef)-1]
	for i := len(p.coef) - 2; i >= 0; i-- {
		acc = addmod61(mulmod61(acc, x), p.coef[i])
	}
	return acc
}

// HashReducedBatch evaluates the polynomial at every reduced input in
// xs, writing dst[k] = HashReduced(xs[k]). Horner's rule is a serial
// multiply-add chain per element, so evaluating one element at a time
// leaves the multiplier idle between dependent steps; the batch form
// runs four independent chains at once with their accumulators held in
// registers (unroll-and-jam), filling those stalls, and loads each
// coefficient once per four elements instead of once per element.
// dst and xs must have equal length and may not alias.
func (p *Poly) HashReducedBatch(dst, xs []uint64) {
	if len(xs) == 0 {
		return
	}
	_ = dst[len(xs)-1]
	top := p.coef[len(p.coef)-1]
	k := 0
	for ; k+4 <= len(xs); k += 4 {
		x0, x1, x2, x3 := xs[k], xs[k+1], xs[k+2], xs[k+3]
		a0, a1, a2, a3 := top, top, top, top
		for i := len(p.coef) - 2; i >= 0; i-- {
			c := p.coef[i]
			a0 = addmod61(mulmod61(a0, x0), c)
			a1 = addmod61(mulmod61(a1, x1), c)
			a2 = addmod61(mulmod61(a2, x2), c)
			a3 = addmod61(mulmod61(a3, x3), c)
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = a0, a1, a2, a3
	}
	for ; k < len(xs); k++ {
		dst[k] = p.HashReduced(xs[k])
	}
}

// Wise reports the independence degree of the family this function was
// drawn from.
func (p *Poly) Wise() int { return len(p.coef) }

// PairBit is a pairwise-independent binary hash g: [M] → {0, 1}, the
// second-level family of a 2-level hash sketch (Lemma 3.1 needs only
// pairwise independence). It evaluates a random linear map over
// GF(2^61−1) and returns the high bit of the field value; the bias of
// that bit is < 2^−60 and the pairwise independence of the underlying
// field values carries over.
type PairBit struct {
	a, b uint64
}

// NewPairBit constructs a pairwise-independent binary hash from seed.
func NewPairBit(seed uint64) *PairBit {
	rng := NewRNG(seed)
	a := rng.Uint64n(MersennePrime-1) + 1 // nonzero slope
	b := rng.Uint64n(MersennePrime)
	return &PairBit{a: a, b: b}
}

// Bit returns the second-level bucket (0 or 1) for x.
func (g *PairBit) Bit(x uint64) int {
	return g.BitReduced(Reduce61(x))
}

// BitReduced is Bit for an input already reduced into the field. The
// sketch update hot path evaluates s second-level functions per stream
// item; reducing the element once and calling BitReduced avoids s−1
// redundant reductions.
func (g *PairBit) BitReduced(x uint64) int {
	v := addmod61(mulmod61(g.a, x), g.b)
	return int(v >> (FieldBits - 1))
}

// PairBitBank is a bank of pairwise-independent bit functions with the
// (a, b) coefficient pairs stored in two flat arrays instead of s
// separately allocated PairBit objects. The batch digest kernel walks
// all s functions for every element of a batch; with the boxed layout
// that is s pointer chases per element, where the bank's contiguous
// coefficient arrays stream through the prefetcher. Evaluation is
// bit-identical to calling each PairBit in turn.
type PairBitBank struct {
	a, b []uint64
	// alo/ahi are a's 32-bit halves, precomputed for the SIMD kernel
	// (whose 32×32→64 multiplies want split operands).
	alo, ahi []uint64
}

// NewPairBitBank flattens gs into a bank. len(gs) must be ≤ 64 so the
// packed bit vector fits one word.
func NewPairBitBank(gs []*PairBit) *PairBitBank {
	if len(gs) > 64 {
		panic(fmt.Sprintf("hashing: pair-bit bank of %d functions does not pack into a word", len(gs)))
	}
	bk := &PairBitBank{
		a:   make([]uint64, len(gs)),
		b:   make([]uint64, len(gs)),
		alo: make([]uint64, len(gs)),
		ahi: make([]uint64, len(gs)),
	}
	for j, g := range gs {
		bk.a[j], bk.b[j] = g.a, g.b
		bk.alo[j], bk.ahi[j] = g.a&0xffffffff, g.a>>32
	}
	return bk
}

// Len reports the number of functions in the bank.
func (bk *PairBitBank) Len() int { return len(bk.a) }

// PackColumns evaluates every function in the bank at every reduced
// input in xs and ORs function j's bit into dst[k] at position shift+j
// — PackBits for a whole batch. The inner loop fuses the multiply and
// the addition into one modular reduction: with a, x, b < p the value
// u = 8·hi + (lo>>61) + (lo&p) + b is < 2^63 and ≡ a·x+b (mod p), so
// one fold plus one conditional subtract lands in [0, p) exactly as
// addmod61(mulmod61(a, x), b) does, three ALU ops cheaper. The packed
// word accumulates in a register; dst is touched once per element.
// dst and xs must have equal length and may not alias.
func (bk *PairBitBank) PackColumns(dst, xs []uint64, shift uint) {
	if len(xs) == 0 || len(bk.a) == 0 {
		return
	}
	_ = dst[len(xs)-1]
	start := 0
	if useAVX512 && len(xs) >= 8 {
		start = len(xs) &^ 7
		packColumnsAsm(&bk.alo[0], &bk.ahi[0], &bk.b[0], len(bk.a),
			&xs[0], &dst[0], start, uint64(shift))
	}
	bk.packColumnsGeneric(dst[start:], xs[start:], shift)
}

// packColumnsGeneric is the portable PackColumns loop, also used for
// the tail the 8-wide assembly kernel leaves behind.
func (bk *PairBitBank) packColumnsGeneric(dst, xs []uint64, shift uint) {
	as := bk.a
	bs := bk.b[:len(as)] // one bounds proof for both coefficient loads
	for k, x := range xs {
		var w uint64
		// Bits accumulate high-to-low through w<<1|bit so function j's
		// bit ends at position j without a variable shift per step.
		for j := len(as) - 1; j >= 0; j-- {
			hi, lo := bits.Mul64(as[j], x)
			u := 8*hi + (lo >> 61) + (lo & MersennePrime) + bs[j]
			v := (u >> 61) + (u & MersennePrime)
			if v >= MersennePrime {
				v -= MersennePrime
			}
			w = w<<1 | v>>(FieldBits-1)
		}
		dst[k] |= w << shift
	}
}

// BitColumnReduced evaluates g at every reduced input in xs and ORs the
// resulting bit into dst[k] at position shift — one second-level
// function's column of a batch of digest words. The digest batch kernel
// iterates functions outer and elements inner so each function's (a, b)
// pair stays in registers across the whole batch; callers are expected
// to have zeroed (or bucket-initialized) dst beforehand. dst and xs
// must have equal length and may not alias.
func (g *PairBit) BitColumnReduced(dst, xs []uint64, shift uint) {
	if len(xs) == 0 {
		return
	}
	_ = dst[len(xs)-1]
	a, b := g.a, g.b
	for k, x := range xs {
		v := addmod61(mulmod61(a, x), b)
		dst[k] |= (v >> (FieldBits - 1)) << shift
	}
}

// PackBits evaluates every function in gs at the reduced input x and
// packs the resulting bits into one word, g[j]'s bit at position j.
// This is the digest builder's batch form of BitReduced: the sketch
// kernel evaluates all s second-level functions for an element exactly
// once and replays the packed word thereafter. len(gs) must be ≤ 64.
func PackBits(gs []*PairBit, x uint64) uint64 {
	var w uint64
	for j, g := range gs {
		v := addmod61(mulmod61(g.a, x), g.b)
		w |= (v >> (FieldBits - 1)) << uint(j)
	}
	return w
}

// Reduce61 maps an arbitrary 64-bit value into [0, 2^61−1).
func Reduce61(x uint64) uint64 {
	if x >= MersennePrime {
		x = (x >> 61) + (x & MersennePrime)
		if x >= MersennePrime {
			x -= MersennePrime
		}
	}
	return x
}

// LSB returns the index of the least-significant set bit of v, the
// first-level bucket operator of the paper: for h uniform on [2^w],
// Pr[LSB(h(x)) = l] = 2^−(l+1). LSB(0) is defined as width−1 so that a
// zero hash lands in the last (rarest) bucket instead of out of range.
func LSB(v uint64, width int) int {
	if v == 0 {
		return width - 1
	}
	l := bits.TrailingZeros64(v)
	if l >= width {
		return width - 1
	}
	return l
}
