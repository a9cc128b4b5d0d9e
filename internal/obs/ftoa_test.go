package obs

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// floatEdges returns the fixed values TestAppendFloatOracle and
// FuzzAppendFloat's seeds check: every power of two and of ten a double
// holds, each with both neighbours (the powers of two are the kernel's
// closer-lower-boundary case, the powers of ten include its %e/%f
// switch points); the switch points 1e-4 and 1e6 and JSON's 1e21 by
// name; the range ends of the normals, of the kernel and of the integer
// path; 2^53±1; ties, where two shortest decimals lie equally near; and
// ±0, NaN and ±Inf.
func floatEdges() []float64 {
	var vs []float64
	withNeighbours := func(f float64) {
		vs = append(vs, math.Nextafter(f, math.Inf(-1)), f, math.Nextafter(f, math.Inf(1)))
	}
	for e := -1074; e <= 1023; e++ {
		withNeighbours(math.Ldexp(1, e))
	}
	for e := -323; e <= 308; e++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(e), 64)
		if err != nil {
			panic(err)
		}
		withNeighbours(f)
	}
	for _, f := range []float64{1e-4, 1e6, 1e21, kernelMin, kernelMax,
		0x1p-1022, math.MaxFloat64} {
		withNeighbours(f)
	}
	// In [2^50, 2^52) a double with a fraction of ¼ or ¾ is halfway
	// between two decimals of one fractional digit, both of which parse
	// back to it, and no integer does: strconv takes the even one.
	for j := 1; j < 64; j += 2 {
		vs = append(vs, 0x1p50+float64(j)/4, 0x1p51+float64(j)/4)
	}
	vs = append(vs, math.Nextafter(0x1p-1022, 0), 999999, 1e6-0.5,
		1<<53-1, 1<<53+1, 0, math.NaN(), math.Inf(1))
	for _, f := range vs[:len(vs):len(vs)] {
		vs = append(vs, -f)
	}
	return vs
}

// checkAppendFloat fails t when appendFloat's bytes for f differ from
// strconv.AppendFloat's shortest 'g' form, behind a shared prefix. It
// skips t.Helper, which would cost more than the two encodings.
func checkAppendFloat(t *testing.T, f float64) {
	var gotBuf, wantBuf [32]byte
	got := appendFloat(append(gotBuf[:0], 'x'), f)
	want := strconv.AppendFloat(append(wantBuf[:0], 'x'), f, 'g', -1, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendFloat(%#x) = %s, want %s", math.Float64bits(f), string(got[1:]), string(want[1:]))
	}
}

// TestAppendFloatOracle holds appendFloat to strconv byte for byte over
// floatEdges and a fixed-seed sample of random bit patterns: 1M drawn
// uniformly, and 1M more whose exponent lies in the kernel's range
// (uniform bits reach it about once in 25 draws).
func TestAppendFloatOracle(t *testing.T) {
	for _, f := range floatEdges() {
		checkAppendFloat(t, f)
	}
	n := 1 << 20
	if testing.Short() {
		n = 1 << 16
	}
	lo := math.Float64bits(kernelMin) >> 52
	hi := math.Float64bits(kernelMax) >> 52
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < n; i++ {
		checkAppendFloat(t, math.Float64frombits(rng.Uint64()))
		exp := lo + uint64(rng.Int63n(int64(hi-lo+1)))
		bits := rng.Uint64()&(1<<63|1<<52-1) | exp<<52
		checkAppendFloat(t, math.Float64frombits(bits))
	}
}

// TestPow10Table recomputes every pow10 entry with math/big: 10^e times
// 2^(127−⌊log₂ 10^e⌋), rounded up, held in 128 bits with the top bit set.
func TestPow10Table(t *testing.T) {
	for i, g := range pow10 {
		e := pow10Min + i
		ten := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		var want *big.Int
		if e >= 0 { // ⌊log₂ 10^e⌋ = bitlen − 1: an exact shift
			want = new(big.Int).Lsh(ten, uint(128-ten.BitLen()))
		} else { // ⌊log₂ 10^e⌋ = −bitlen(10^-e): ⌈2^(127+bitlen) / 10^-e⌉
			num := new(big.Int).Lsh(big.NewInt(1), uint(127+ten.BitLen()))
			num.Add(num, new(big.Int).Sub(ten, big.NewInt(1)))
			want = num.Quo(num, ten)
		}
		got := new(big.Int).Lsh(new(big.Int).SetUint64(g[0]), 64)
		got.Or(got, new(big.Int).SetUint64(g[1]))
		if got.Cmp(want) != 0 || want.BitLen() != 128 {
			t.Errorf("pow10[%d] (1e%d) = %#x, want %#x", i, e, got, want)
		}
	}
	// The kernel indexes pow10 by −k for k in [−24, 1].
	if pow10Min != -1 || len(pow10) != 26 {
		t.Errorf("pow10 covers 1e%d … 1e%d, want 1e-1 … 1e24", pow10Min, pow10Min+len(pow10)-1)
	}
}
