package encoding

import (
	"math"
	"math/rand"
	"testing"
)

// sinTol is the absolute error sin may have against math.Sin.
const sinTol = 1e-13

// checkSin fails t unless sin(x) agrees with math.Sin(x): NaN exactly where
// math.Sin gives NaN, and within sinTol otherwise.
func checkSin(t *testing.T, x float64) {
	t.Helper()
	got, want := sin(x), math.Sin(x)
	if math.IsNaN(got) != math.IsNaN(want) {
		t.Fatalf("sin(%v) = %v, math.Sin = %v", x, got, want)
	}
	if d := math.Abs(got - want); d > sinTol {
		t.Fatalf("sin(%v) = %v, math.Sin = %v (|diff| %.3g > %g)", x, got, want, d, sinTol)
	}
}

// TestSinMatchesLibm is the differential table for the range-reduced sine:
// the reduction boundaries kπ and kπ±π/2 up to the fallback limit, both
// sides of the limit, and the IEEE special values. Arguments that take the
// math.Sin fallback, and zeros and subnormals (where sin(x) = x), must
// match bit for bit.
func TestSinMatchesLibm(t *testing.T) {
	cases := []struct {
		name  string
		x     float64
		exact bool
	}{
		{"+0", 0, true},
		{"-0", math.Copysign(0, -1), true},
		{"smallest subnormal", math.SmallestNonzeroFloat64, true},
		{"-smallest subnormal", -math.SmallestNonzeroFloat64, true},
		{"largest subnormal", math.Float64frombits(0x000fffffffffffff), true},
		{"-largest subnormal", -math.Float64frombits(0x000fffffffffffff), true},
		{"just inside limit", math.Nextafter(sinLimit, 0), false},
		{"-just inside limit", -math.Nextafter(sinLimit, 0), false},
		{"at limit", sinLimit, true},
		{"-at limit", -sinLimit, true},
		{"just beyond limit", math.Nextafter(sinLimit, math.Inf(1)), true},
		{"-just beyond limit", -math.Nextafter(sinLimit, math.Inf(1)), true},
		{"MaxFloat64", math.MaxFloat64, true},
		{"-MaxFloat64", -math.MaxFloat64, true},
		{"+Inf", math.Inf(1), true},
		{"-Inf", math.Inf(-1), true},
		{"NaN", math.NaN(), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkSin(t, tc.x)
			got, want := sin(tc.x), math.Sin(tc.x)
			if tc.exact && !math.IsNaN(want) && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("sin(%v) = %v (%#x), math.Sin = %v (%#x)", tc.x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		})
	}

	// kπ and kπ±π/2 for k spread geometrically up to the largest multiple
	// of π below the limit: the points where the rounding of x/π flips and
	// where the polynomial runs at the edge of [−π/2, π/2].
	kMax := math.Floor(sinLimit / math.Pi)
	for k := 1.0; ; k = math.Ceil(k * 1.7) {
		if k > kMax {
			k = kMax
		}
		for _, x := range []float64{k * math.Pi, k*math.Pi + math.Pi/2, k*math.Pi - math.Pi/2} {
			checkSin(t, x)
			checkSin(t, -x)
			checkSin(t, math.Nextafter(x, 0))
			checkSin(t, math.Nextafter(x, math.Inf(1)))
		}
		if k == kMax {
			break
		}
	}
}

// TestSinSweep covers the range the Eq. 1 encode loops evaluate (arguments
// 2p+b with standardized inputs stay well inside ±40) at a fine stride.
func TestSinSweep(t *testing.T) {
	for x := -40.0; x <= 40; x += 1.0 / 1024 {
		checkSin(t, x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		checkSin(t, (rng.Float64()*2-1)*sinLimit)
	}
}

// FuzzSin is the open-ended differential: for every float64, sin agrees
// with math.Sin within sinTol, and is NaN exactly where math.Sin is.
func FuzzSin(f *testing.F) {
	for _, x := range []float64{0, 1, -1, math.Pi / 2, math.Pi, 1e8, -3e8, sinLimit, 1e300, math.NaN(), math.Inf(1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkSin(t, x)
	})
}

// TestEncodeMatchesLibmReference is the encoder-level differential at the
// serving shapes: Encode must stay within sinTol of the canonical Eq. 1
// cos(p+b)·sin(p) evaluated with math.Cos and math.Sin, and EncodeBipolar
// must take the reference's sign wherever the decision is not within
// rounding of zero.
func TestEncodeMatchesLibmReference(t *testing.T) {
	const dim = 4096
	for _, n := range []int{11, 32} {
		for _, kind := range []Projection{ProjGaussian, ProjBipolar} {
			e, err := NewNonlinearProjection(rand.New(rand.NewSource(int64(n))), n, dim, 2*math.Sqrt(float64(n)), kind)
			if err != nil {
				t.Fatal(err)
			}
			for j, b := range e.bias {
				if d := math.Abs(e.center[j] + math.Sin(b)/2); d > sinTol {
					t.Fatalf("n=%d kind=%v: center[%d] off by %.3g", n, kind, j, d)
				}
			}
			rng := rand.New(rand.NewSource(2))
			x := make([]float64, n)
			p := make([]float64, dim)
			for row := 0; row < 8; row++ {
				for i := range x {
					x[i] = 1.5 * rng.NormFloat64()
				}
				raw, err := e.Encode(nil, x)
				if err != nil {
					t.Fatal(err)
				}
				bip := bipolarOf(t, e, nil, x)
				for j := range p {
					p[j] = 0
				}
				for k, f := range x {
					for j, s := range e.proj[k*dim : (k+1)*dim] {
						p[j] += f * s
					}
				}
				for j, pj := range p {
					pj /= e.bandwidth
					b := e.bias[j]
					if d := math.Abs(raw[j] - math.Cos(pj+b)*math.Sin(pj)); d > sinTol {
						t.Fatalf("n=%d kind=%v row %d: raw[%d] off by %.3g", n, kind, row, j, d)
					}
					s := math.Sin(2*pj + b)
					if math.Abs(s) <= 1e-12 {
						continue
					}
					if want := math.Copysign(1, s); bip[j] != want {
						t.Fatalf("n=%d kind=%v row %d: bipolar[%d] = %v, reference sign %v", n, kind, row, j, bip[j], want)
					}
				}
			}
		}
	}
}
