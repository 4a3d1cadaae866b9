package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMulmod61MatchesBigArithmetic(t *testing.T) {
	// Cross-check the folded 128-bit reduction against a slow but
	// obviously correct implementation via repeated addition doubling.
	slow := func(a, b uint64) uint64 {
		a %= MersennePrime
		b %= MersennePrime
		var acc uint64
		for b > 0 {
			if b&1 == 1 {
				acc = addmod61(acc, a)
			}
			a = addmod61(a, a)
			b >>= 1
		}
		return acc
	}
	cases := [][2]uint64{
		{0, 0},
		{1, 1},
		{MersennePrime - 1, MersennePrime - 1},
		{MersennePrime - 1, 2},
		{1 << 60, 1 << 60},
		{123456789, 987654321},
	}
	for _, c := range cases {
		if got, want := mulmod61(c[0], c[1]), slow(c[0], c[1]); got != want {
			t.Errorf("mulmod61(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	rng := NewRNG(7)
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64n(MersennePrime), rng.Uint64n(MersennePrime)
		if got, want := mulmod61(a, b), slow(a, b); got != want {
			t.Fatalf("mulmod61(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestMulmod61Properties(t *testing.T) {
	commutes := func(a, b uint64) bool {
		return mulmod61(a%MersennePrime, b%MersennePrime) == mulmod61(b%MersennePrime, a%MersennePrime)
	}
	if err := quick.Check(commutes, nil); err != nil {
		t.Error(err)
	}
	identity := func(a uint64) bool {
		a %= MersennePrime
		return mulmod61(a, 1) == a
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
	distributes := func(a, b, c uint64) bool {
		a, b, c = a%MersennePrime, b%MersennePrime, c%MersennePrime
		return mulmod61(a, addmod61(b, c)) == addmod61(mulmod61(a, b), mulmod61(a, c))
	}
	if err := quick.Check(distributes, nil); err != nil {
		t.Error(err)
	}
}

func TestPolyDeterministic(t *testing.T) {
	p1 := NewPoly(42, 4)
	p2 := NewPoly(42, 4)
	for x := uint64(0); x < 1000; x++ {
		if p1.Hash(x) != p2.Hash(x) {
			t.Fatalf("same-seed polynomials disagree at x=%d", x)
		}
	}
	p3 := NewPoly(43, 4)
	same := 0
	for x := uint64(0); x < 1000; x++ {
		if p1.Hash(x) == p3.Hash(x) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different-seed polynomials agree on %d of 1000 inputs", same)
	}
}

func TestPolyOutputInField(t *testing.T) {
	for _, wise := range []int{1, 2, 3, 8, 16} {
		p := NewPoly(uint64(wise)*17, wise)
		if p.Wise() != wise {
			t.Errorf("Wise() = %d, want %d", p.Wise(), wise)
		}
		rng := NewRNG(99)
		for i := 0; i < 1000; i++ {
			x := rng.Uint64()
			if v := p.Hash(x); v >= MersennePrime {
				t.Fatalf("wise=%d: Hash(%d) = %d outside field", wise, x, v)
			}
		}
	}
}

func TestPolyDegreeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPoly(seed, 0) did not panic")
		}
	}()
	NewPoly(1, 0)
}

// TestPolyUniformity verifies that hash outputs are close to uniform by
// bucketing the top bits and applying a chi-squared bound.
func TestPolyUniformity(t *testing.T) {
	const (
		buckets = 64
		n       = 64 * 1024
	)
	p := NewPoly(12345, 2)
	counts := make([]int, buckets)
	for x := uint64(0); x < n; x++ {
		counts[p.Hash(x)>>(FieldBits-6)]++
	}
	expected := float64(n) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom; mean 63, sd ≈ 11.2. Allow a wide margin.
	if chi2 > 120 {
		t.Errorf("chi-squared = %.1f, far from uniform (df = 63)", chi2)
	}
}

// TestLSBGeometric verifies the first-level bucket distribution
// Pr[LSB(h(x)) = l] ≈ 2^−(l+1), which the estimator analysis relies on.
func TestLSBGeometric(t *testing.T) {
	const n = 1 << 17
	p := NewPoly(2026, 8)
	counts := make([]int, FieldBits)
	for x := uint64(0); x < n; x++ {
		counts[LSB(p.Hash(x), FieldBits)]++
	}
	for l := 0; l < 8; l++ {
		want := float64(n) / math.Pow(2, float64(l+1))
		got := float64(counts[l])
		if math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %.0f, want ≈ %.0f", l, got, want)
		}
	}
}

// TestPairBitPairwiseIndependence estimates, for random input pairs, the
// probability that a fresh PairBit maps both to the same bit. Pairwise
// independence predicts exactly 1/2.
func TestPairBitPairwiseIndependence(t *testing.T) {
	const trials = 20000
	rng := NewRNG(5)
	same := 0
	for i := 0; i < trials; i++ {
		g := NewPairBit(rng.Uint64())
		x := rng.Uint64n(1 << 32)
		y := rng.Uint64n(1 << 32)
		for y == x {
			y = rng.Uint64n(1 << 32)
		}
		if g.Bit(x) == g.Bit(y) {
			same++
		}
	}
	frac := float64(same) / trials
	if math.Abs(frac-0.5) > 0.015 {
		t.Errorf("collision fraction %.4f, want ≈ 0.5 (pairwise independence)", frac)
	}
}

func TestPairBitBalance(t *testing.T) {
	g := NewPairBit(31337)
	ones := 0
	const n = 1 << 16
	for x := uint64(0); x < n; x++ {
		b := g.Bit(x)
		if b != 0 && b != 1 {
			t.Fatalf("Bit returned %d", b)
		}
		ones += b
	}
	frac := float64(ones) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("ones fraction %.4f, want ≈ 0.5", frac)
	}
}

func TestLSBEdgeCases(t *testing.T) {
	if got := LSB(0, 61); got != 60 {
		t.Errorf("LSB(0, 61) = %d, want 60", got)
	}
	if got := LSB(1, 61); got != 0 {
		t.Errorf("LSB(1, 61) = %d, want 0", got)
	}
	if got := LSB(8, 61); got != 3 {
		t.Errorf("LSB(8, 61) = %d, want 3", got)
	}
	// A value whose trailing zeros exceed the width clamps to width−1.
	if got := LSB(1<<40, 8); got != 7 {
		t.Errorf("LSB(1<<40, 8) = %d, want 7", got)
	}
}

func TestRNGUint64nUniform(t *testing.T) {
	rng := NewRNG(11)
	const n, buckets = 30000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[rng.Uint64n(buckets)]++
	}
	for b, c := range counts {
		want := float64(n) / buckets
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("bucket %d: %d draws, want ≈ %.0f", b, c, want)
		}
	}
}

func TestRNGPanics(t *testing.T) {
	rng := NewRNG(1)
	for name, fn := range map[string]func(){
		"Uint64n(0)": func() { rng.Uint64n(0) },
		"Intn(0)":    func() { rng.Intn(0) },
		"Intn(-1)":   func() { rng.Intn(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRNGPerm(t *testing.T) {
	rng := NewRNG(3)
	p := rng.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid or duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	// Same path → same seed; different path → different seed.
	if DeriveSeed(1, 2, 3) != DeriveSeed(1, 2, 3) {
		t.Error("DeriveSeed is not deterministic")
	}
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		s := DeriveSeed(42, i)
		if seen[s] {
			t.Fatalf("DeriveSeed collision at index %d", i)
		}
		seen[s] = true
	}
	if DeriveSeed(1, 0) == DeriveSeed(2, 0) {
		t.Error("different masters derive the same child seed")
	}
	// Path depth matters: (a, b) must differ from (b, a) in general.
	if DeriveSeed(9, 1, 2) == DeriveSeed(9, 2, 1) {
		t.Error("DeriveSeed ignores path order")
	}
}

func TestFloat64Range(t *testing.T) {
	rng := NewRNG(8)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0, 1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 draws = %.4f, want ≈ 0.5", mean)
	}
}

// TestPolyTwiseIndependencePairs spot-checks pairwise behaviour of the
// degree-8 family used as the default first level: over random function
// draws, Pr[h(x) ≡ h(y) in top bit] ≈ 1/2.
func TestPolyTwiseIndependencePairs(t *testing.T) {
	const trials = 8000
	rng := NewRNG(13)
	same := 0
	for i := 0; i < trials; i++ {
		p := NewPoly(rng.Uint64(), 8)
		x, y := rng.Uint64n(1<<32), rng.Uint64n(1<<32)
		for y == x {
			y = rng.Uint64n(1 << 32)
		}
		if p.Hash(x)>>(FieldBits-1) == p.Hash(y)>>(FieldBits-1) {
			same++
		}
	}
	frac := float64(same) / trials
	if math.Abs(frac-0.5) > 0.025 {
		t.Errorf("top-bit agreement %.4f, want ≈ 0.5", frac)
	}
}

func BenchmarkPolyHashDegree2(b *testing.B) { benchPoly(b, 2) }
func BenchmarkPolyHashDegree8(b *testing.B) { benchPoly(b, 8) }

func benchPoly(b *testing.B, wise int) {
	p := NewPoly(1, wise)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= p.Hash(uint64(i))
	}
	_ = sink
}

func BenchmarkPairBit(b *testing.B) {
	g := NewPairBit(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= g.Bit(uint64(i))
	}
	_ = sink
}

// TestHashReducedMatchesHash: HashReduced on a pre-reduced input is the
// same function as Hash on the raw input — the contract the update
// kernel relies on when hoisting the reduction out of per-copy loops.
func TestHashReducedMatchesHash(t *testing.T) {
	p := NewPoly(77, 8)
	rng := NewRNG(5)
	for i := 0; i < 2000; i++ {
		x := rng.Uint64()
		if got, want := p.HashReduced(Reduce61(x)), p.Hash(x); got != want {
			t.Fatalf("HashReduced(Reduce61(%#x)) = %d, Hash = %d", x, got, want)
		}
	}
}

// TestPackBitsMatchesBitReduced: bit j of the packed word must equal
// g_j's individual evaluation, for every width up to a full word.
func TestPackBitsMatchesBitReduced(t *testing.T) {
	for _, n := range []int{1, 2, 32, 58, 64} {
		gs := make([]*PairBit, n)
		for j := range gs {
			gs[j] = NewPairBit(DeriveSeed(9, uint64(j)))
		}
		rng := NewRNG(uint64(n))
		for i := 0; i < 500; i++ {
			x := Reduce61(rng.Uint64())
			w := PackBits(gs, x)
			for j, g := range gs {
				if got, want := int(w>>uint(j))&1, g.BitReduced(x); got != want {
					t.Fatalf("n=%d: packed bit %d = %d, BitReduced = %d (x=%#x)", n, j, got, want, x)
				}
			}
			if n < 64 && w>>uint(n) != 0 {
				t.Fatalf("n=%d: PackBits set bits above position %d: %#x", n, n-1, w)
			}
		}
	}
}

// TestHashReducedBatchMatchesScalar: the coefficient-outer batch
// evaluation must be bit-identical to per-element Horner for every
// independence degree and batch size, including empty and length-1
// batches.
func TestHashReducedBatchMatchesScalar(t *testing.T) {
	for _, wise := range []int{1, 2, 4, 8, 16} {
		p := NewPoly(DeriveSeed(31, uint64(wise)), wise)
		rng := NewRNG(uint64(wise) * 7)
		for _, n := range []int{0, 1, 2, 3, 64, 256, 1000} {
			xs := make([]uint64, n)
			for k := range xs {
				xs[k] = Reduce61(rng.Uint64())
			}
			dst := make([]uint64, n)
			p.HashReducedBatch(dst, xs)
			for k, x := range xs {
				if got, want := dst[k], p.HashReduced(x); got != want {
					t.Fatalf("wise=%d n=%d: batch[%d] = %d, scalar = %d (x=%#x)", wise, n, k, got, want, x)
				}
			}
		}
	}
}

// TestBitColumnReducedMatchesScalar: the column form must set exactly
// the scalar bit at the requested position and leave other bits alone.
func TestBitColumnReducedMatchesScalar(t *testing.T) {
	rng := NewRNG(44)
	for _, shift := range []uint{0, 6, 31, 63} {
		g := NewPairBit(DeriveSeed(12, uint64(shift)))
		xs := make([]uint64, 300)
		for k := range xs {
			xs[k] = Reduce61(rng.Uint64())
		}
		dst := make([]uint64, len(xs))
		base := uint64(0xa5) &^ (1 << shift) // pre-existing bits must survive
		for k := range dst {
			dst[k] = base
		}
		g.BitColumnReduced(dst, xs, shift)
		for k, x := range xs {
			want := base | uint64(g.BitReduced(x))<<shift
			if dst[k] != want {
				t.Fatalf("shift=%d: dst[%d] = %#x, want %#x (x=%#x)", shift, k, dst[k], want, x)
			}
		}
		g.BitColumnReduced(nil, nil, shift) // empty batch is a no-op
	}
}

// TestPackColumnsMatchesPackBits: the flattened-bank batch evaluation
// (including its fused modular reduction) must reproduce PackBits
// bit-for-bit, including at field boundary values.
func TestPackColumnsMatchesPackBits(t *testing.T) {
	rng := NewRNG(2)
	for _, s := range []int{1, 2, 7, 32, 58, 64} {
		gs := make([]*PairBit, s)
		for j := range gs {
			gs[j] = NewPairBit(DeriveSeed(3, uint64(s), uint64(j)))
		}
		bk := NewPairBitBank(gs)
		if bk.Len() != s {
			t.Fatalf("bank len %d, want %d", bk.Len(), s)
		}
		xs := []uint64{0, 1, 2, MersennePrime - 1, MersennePrime - 2, 1 << 60, (1 << 61) - 2}
		for i := 0; i < 4000; i++ {
			xs = append(xs, Reduce61(rng.Uint64()))
		}
		for _, shift := range []uint{0, 6} {
			dst := make([]uint64, len(xs))
			for k := range dst {
				dst[k] = 1 // pre-existing low bit must survive shift>0
			}
			bk.PackColumns(dst, xs, shift)
			for k, x := range xs {
				want := uint64(1) | PackBits(gs, x)<<shift
				if shift == 0 {
					want = 1 | PackBits(gs, x)
				}
				if dst[k] != want {
					t.Fatalf("s=%d shift=%d: PackColumns[%d] = %#x, want %#x (x=%#x)", s, shift, k, dst[k], want, x)
				}
			}
		}
	}
}

// TestPackColumnsAVX512MatchesGeneric: on hosts with the assembly
// kernel, both PackColumns paths must agree bit-for-bit across shapes,
// shifts, boundary inputs, and batch lengths straddling the 8-wide
// blocking (tails exercise the generic loop after the kernel).
func TestPackColumnsAVX512MatchesGeneric(t *testing.T) {
	if !HasAVX512ForTest() {
		t.Skip("no AVX-512 on this host")
	}
	rng := NewRNG(17)
	for _, s := range []int{1, 2, 31, 32, 58, 64} {
		gs := make([]*PairBit, s)
		for j := range gs {
			gs[j] = NewPairBit(DeriveSeed(8, uint64(s), uint64(j)))
		}
		bk := NewPairBitBank(gs)
		for _, n := range []int{1, 7, 8, 9, 16, 255, 256, 1000} {
			xs := make([]uint64, n)
			for k := range xs {
				switch k % 5 {
				case 0:
					xs[k] = MersennePrime - 1 - uint64(k)%3
				case 1:
					xs[k] = uint64(k) // tiny values
				default:
					xs[k] = Reduce61(rng.Uint64())
				}
			}
			for _, shift := range []uint{0, 6} {
				asm := make([]uint64, n)
				gen := make([]uint64, n)
				bk.PackColumns(asm, xs, shift)
				restore := SetAVX512ForTest(false)
				bk.PackColumns(gen, xs, shift)
				restore()
				for k := range xs {
					if asm[k] != gen[k] {
						t.Fatalf("s=%d n=%d shift=%d: asm[%d]=%#x generic=%#x (x=%#x)",
							s, n, shift, k, asm[k], gen[k], xs[k])
					}
				}
			}
		}
	}
}
