package encoding

import "math"

// Constants of the range-reduced sine.
const (
	// roundMagic is 1.5·2^52: adding it to a float64 of magnitude below 2^51
	// rounds the value to the nearest integer (ties to even) and leaves that
	// integer in the low mantissa bits, so its parity is bit 0.
	roundMagic = 0x1.8p52

	// piA+piB+piC is a three-part Cody–Waite split of π (4× math/sin.go's
	// PI4A/PI4B/PI4C, which scales exactly). piA and piB carry at most 23
	// significant bits each, so k·piA and k·piB are exact for |k| < 2^30 and
	// the reduction x − k·π loses nothing to cancellation.
	piA = 4 * 7.85398125648498535156e-1  // 0x400921fb40000000
	piB = 4 * 3.77489470793079817668e-8  // 0x3e84442d00000000
	piC = 4 * 2.69515142907905952645e-15 // 0x3d08469898cc5170

	// sinLimit bounds the fast path. Below it |k| = |round(x/π)| < 2^27, well
	// inside the exact range of the split; above it, and for NaN and ±Inf,
	// sin defers to math.Sin.
	sinLimit = 1 << 28

	// Taylor coefficients of sin on [−π/2, π/2], degree 3 to 17. The first
	// omitted term bounds the truncation error at (π/2)^19/19! ≈ 4.4e-14.
	sinC3  = -1.0 / 6
	sinC5  = 1.0 / 120
	sinC7  = -1.0 / 5040
	sinC9  = 1.0 / 362880
	sinC11 = -1.0 / 39916800
	sinC13 = 1.0 / 6227020800
	sinC15 = -1.0 / 1307674368000
	sinC17 = 1.0 / 355687428096000
)

// sin is the Eq. 1 nonlinearity's sine: math.Sin to within 1e-13 absolute
// for every float64, without math.Sin's octant branches. It reduces x by the
// nearest multiple kπ, evaluates an odd polynomial on the remainder r ∈
// [−π/2, π/2], and applies sin(x) = (−1)^k·sin(r) by XOR-ing k's parity into
// the sign bit. The only branch is the |x| < sinLimit test, which the encode
// loops always pass, so the loop runs free of data-dependent mispredictions.
//
// Every encode loop and the per-dimension centers go through this one
// function, so raw values, quantization thresholds and the fused sign
// decisions stay consistent with each other.
func sin(x float64) float64 {
	if !(math.Abs(x) < sinLimit) {
		return math.Sin(x) // huge, NaN or ±Inf
	}
	t := x*(1/math.Pi) + roundMagic
	k := t - roundMagic
	r := x - k*piA - k*piB - k*piC
	z := r * r
	p := sinC17
	p = p*z + sinC15
	p = p*z + sinC13
	p = p*z + sinC11
	p = p*z + sinC9
	p = p*z + sinC7
	p = p*z + sinC5
	p = p*z + sinC3
	// r·(1 + z·p) rather than r + r·z·p keeps the sign of a zero input.
	s := r * (1 + z*p)
	return math.Float64frombits(math.Float64bits(s) ^ math.Float64bits(t)<<63)
}
