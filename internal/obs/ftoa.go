// Float encoding for the trace: strconv's shortest 'g' form, byte for
// byte, from an exact shortest-digit kernel over the magnitudes traces
// carry. Every event writes at least its time as a float, and a
// soak-elastic trace writes 14 non-integer floats per request, so this
// is the encoder's heaviest step.
package obs

import (
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
)

// The kernel's range: finite doubles with kernelMin ≤ |f| < kernelMax.
// Inside it every binary exponent q of f = c·2^q (2^52 ≤ c < 2^53) lies
// in [-79, 4], so the decimal scale k of the kernel lies in [-24, 1] and
// pow10 needs only 10^-1 … 10^24.
const (
	kernelMin = 1e-8
	kernelMax = 1e17
)

// appendFloat is strconv.AppendFloat(b, f, 'g', -1, 64). An integer
// below 1e6 in magnitude prints as its plain digits, which AppendInt
// writes directly (shortest 'g' switches to an exponent only from 1e6
// up). Any other f in the kernel's range takes shortest's digits and
// appendDecimal's layout. ±0 (−0 keeps its sign there), subnormals,
// NaN, ±Inf and magnitudes outside the range keep strconv.
//
//lint:hotpath
func appendFloat(b []byte, f float64) []byte {
	if f > -1e6 && f < 1e6 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	a := math.Abs(f)
	if !(a >= kernelMin && a < kernelMax) {
		return strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	if f < 0 {
		b = append(b, '-')
	}
	d, e := shortest(math.Float64bits(a))
	return appendDecimal(b, d, e)
}

// shortest returns the decimal d·10^e that strconv's shortest form
// prints for the positive double with IEEE bits v, whose magnitude lies
// in the kernel's range: of the decimals with the fewest digits that
// parse back to v, the nearest to v, ties to the even d. d keeps its
// trailing zeros and has 15 to 17 digits: with 10^k ≤ 2^q < 10^(k+1)
// below, ⌊v·10^-k⌋ lies in [2^52, 10·2^53) and has 16 or 17 digits,
// and its tenth 15 or 16.
//
// It is Schubfach (R. Giulietti, "The Schubfach way to render doubles",
// 2020). The rounding interval of v = c·2^q runs from (c−½)·2^q, or
// (c−¼)·2^q when c = 2^52 and the lower neighbour is closer, to
// (c+½)·2^q, ends included when c is even. Its width is at least 10^k
// and below 10^(k+1), so it holds at most one multiple of 10^(k+1) and
// at least one of 10^k: the kernel takes the 10^(k+1) multiple if one
// is inside, and otherwise the 10^k multiple nearest v. The interval's
// ends and v, scaled by 4·10^-k, come from three products roundToOdd
// computes; those are exact in every comparison below, as they are only
// ever compared with even integers.
//
//lint:hotpath
func shortest(v uint64) (d uint64, e int) {
	frac := v & (1<<52 - 1)
	c := frac | 1<<52
	q := int(v>>52) - 1075
	cb := c << 2
	cbl := cb - 2
	var k int // ⌊log₁₀ of the interval's width⌋
	if frac == 0 {
		cbl++
		k = (q*1262611 - 524031) >> 22 // ⌊log₁₀(¾·2^q)⌋
	} else {
		k = (q * 1262611) >> 22 // ⌊log₁₀ 2^q⌋
	}
	h := q + (-k*1741647)>>19 + 1 // q + ⌊log₂ 10^-k⌋ + 1, in [1, 4]
	g := &pow10[-k-pow10Min]
	vbl := roundToOdd(g, cbl<<h)
	vb := roundToOdd(g, cb<<h)
	vbr := roundToOdd(g, (cb+2)<<h)
	if c&1 != 0 { // an odd c excludes the interval's ends
		vbl++
		vbr--
	}
	s := vb >> 2 // ⌊v·10^-k⌋
	sp := s / 10
	if uIn, wIn := vbl <= 40*sp, 40*sp+40 <= vbr; uIn != wIn {
		if wIn {
			sp++
		}
		return sp, k + 1
	}
	if uIn, wIn := vbl <= 4*s, 4*s+4 <= vbr; uIn != wIn {
		if wIn {
			s++
		}
	} else if mid := 4*s + 2; vb > mid || vb == mid && s&1 != 0 {
		s++
	}
	return s, k
}

// roundToOdd returns ⌊g·cp / 2^128⌋, with its low bit set when the
// dropped fraction is not zero. g is pow10's 10^-k, rounded up, so the
// product exceeds the exact one by at most cp < 2^59: under 2^-69 of
// the quotient's unit. Inside the kernel's range the exact quotient,
// x·2^q·10^-k for x = cp>>h, is an integer or has a fraction in
// [2^-55, 1−2^-55]: it is x·5^-k·2^(q−k) with k−q ≤ 55, or x·2^(q−1)/5
// at k = 1. So the excess never changes the integer part, and a
// fraction shows in bits 64…127 as more than 1.
//
//lint:hotpath
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	xHi, _ := bits.Mul64(g[1], cp)
	yHi, yLo := bits.Mul64(g[0], cp)
	mid, carry := bits.Add64(yLo, xHi, 0)
	hi := yHi + carry
	if mid > 1 {
		hi |= 1
	}
	return hi
}

// appendDecimal writes d·10^e in strconv's shortest 'g' layout: the
// digits of d without its trailing zeros, as %f when the decimal
// exponent x of the leading digit is in [-4, 5], otherwise as %e with
// at least two exponent digits (x is in [-8, 16] here). d has 15 to 17
// digits.
//
//lint:hotpath
func appendDecimal(b []byte, d uint64, e int) []byte {
	// All 17 digit places, leading zeros included: one digit, then two
	// words of eight, each stored at once. A word's trailing zeros,
	// with '0' xored away, are its high zero bytes.
	var buf [17]byte
	hi := d / 1e8
	top := hi / 1e8
	mid, low := digits8(uint32(hi-top*1e8)), digits8(uint32(d-hi*1e8))
	buf[0] = byte('0' + top)
	binary.LittleEndian.PutUint64(buf[1:9], mid)
	binary.LittleEndian.PutUint64(buf[9:17], low)
	start := 0
	for buf[start] == '0' {
		start++
	}
	dp := len(buf) - start + e // digits before the decimal point
	const zeros = 0x3030303030303030
	end := len(buf)
	if low != zeros {
		end -= bits.LeadingZeros64(low^zeros) / 8
	} else {
		end -= 8 + bits.LeadingZeros64(mid^zeros)/8
	}
	digits := buf[start:end]
	nd := len(digits)
	if x := dp - 1; x < -4 || x >= 6 {
		b = append(b, digits[0])
		if nd > 1 {
			b = append(b, '.')
			b = append(b, digits[1:]...)
		}
		sign := byte('+')
		if x < 0 {
			sign, x = '-', -x
		}
		b = append(b, 'e', sign, byte('0'+x/10), byte('0'+x%10))
		return b
	}
	switch {
	case dp <= 0:
		b = append(b, "0.000"[:2-dp]...)
		b = append(b, digits...)
	case dp < nd:
		b = append(b, digits[:dp]...)
		b = append(b, '.')
		b = append(b, digits[dp:]...)
	default:
		b = append(b, digits...)
		b = append(b, "00000"[:dp-nd]...)
	}
	return b
}

// digits8 returns n < 10^8 as eight ASCII digits, leading zeros
// included, the first in the low byte. One register holds n as two
// 4-digit lanes, splits each into two 2-digit lanes, and each of those
// into its two digits, dividing every lane at once by a multiply and a
// shift: ⌊x·10486/2^20⌋ = ⌊x/100⌋ for x < 10^4, and ⌊x·103/2^10⌋ =
// ⌊x/10⌋ for x < 100, and no lane's product reaches the next lane.
//
//lint:hotpath
func digits8(n uint32) uint64 {
	x := uint64(n/10000) | uint64(n%10000)<<32
	q := (x * 10486 >> 20) & 0x0000007f0000007f
	x = q | (x-q*100)<<16
	q = (x * 103 >> 10) & 0x000f000f000f000f
	x = q | (x-q*10)<<8
	return x | 0x3030303030303030
}

// pow10Min is the smallest exponent in pow10.
const pow10Min = -1

// pow10 holds 10^e for e = -1 … 24 as {hi, lo} halves of the 128-bit
// ⌈10^e · 2^(127−⌊log₂ 10^e⌋)⌉, which lies in [2^127, 2^128).
// TestPow10Table recomputes every entry with math/big.
var pow10 = [...][2]uint64{
	{0xcccccccccccccccc, 0xcccccccccccccccd}, // 1e-1
	{0x8000000000000000, 0x0000000000000000}, // 1e0
	{0xa000000000000000, 0x0000000000000000}, // 1e1
	{0xc800000000000000, 0x0000000000000000}, // 1e2
	{0xfa00000000000000, 0x0000000000000000}, // 1e3
	{0x9c40000000000000, 0x0000000000000000}, // 1e4
	{0xc350000000000000, 0x0000000000000000}, // 1e5
	{0xf424000000000000, 0x0000000000000000}, // 1e6
	{0x9896800000000000, 0x0000000000000000}, // 1e7
	{0xbebc200000000000, 0x0000000000000000}, // 1e8
	{0xee6b280000000000, 0x0000000000000000}, // 1e9
	{0x9502f90000000000, 0x0000000000000000}, // 1e10
	{0xba43b74000000000, 0x0000000000000000}, // 1e11
	{0xe8d4a51000000000, 0x0000000000000000}, // 1e12
	{0x9184e72a00000000, 0x0000000000000000}, // 1e13
	{0xb5e620f480000000, 0x0000000000000000}, // 1e14
	{0xe35fa931a0000000, 0x0000000000000000}, // 1e15
	{0x8e1bc9bf04000000, 0x0000000000000000}, // 1e16
	{0xb1a2bc2ec5000000, 0x0000000000000000}, // 1e17
	{0xde0b6b3a76400000, 0x0000000000000000}, // 1e18
	{0x8ac7230489e80000, 0x0000000000000000}, // 1e19
	{0xad78ebc5ac620000, 0x0000000000000000}, // 1e20
	{0xd8d726b7177a8000, 0x0000000000000000}, // 1e21
	{0x878678326eac9000, 0x0000000000000000}, // 1e22
	{0xa968163f0a57b400, 0x0000000000000000}, // 1e23
	{0xd3c21bcecceda100, 0x0000000000000000}, // 1e24
}
