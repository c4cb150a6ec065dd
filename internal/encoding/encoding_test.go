package encoding

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"reghd/internal/hdc"
)

func TestNewNonlinearValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewNonlinear(rng, 0, 100); err == nil {
		t.Fatal("accepted zero features")
	}
	if _, err := NewNonlinear(rng, 5, 0); err == nil {
		t.Fatal("accepted zero dim")
	}
	e, err := NewNonlinear(rng, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 100 || e.Features() != 5 {
		t.Fatalf("Dim/Features = %d/%d", e.Dim(), e.Features())
	}
}

func TestNonlinearInputLengthChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := NewNonlinear(rng, 4, 64)
	if _, err := e.Encode(nil, []float64{1, 2}); err == nil {
		t.Fatal("accepted wrong input length")
	}
	if err := e.EncodeBipolarInto(nil, []float64{1, 2, 3, 4, 5}, hdc.NewVector(64)); err == nil {
		t.Fatal("bipolar accepted wrong input length")
	}
	if err := e.EncodeBothInto(nil, make([]float64, 3), hdc.NewVector(64), hdc.NewVector(64)); err == nil {
		t.Fatal("both-forms accepted wrong input length")
	}
}

func TestNonlinearDeterministic(t *testing.T) {
	e1, _ := NewNonlinear(rand.New(rand.NewSource(7)), 6, 500)
	e2, _ := NewNonlinear(rand.New(rand.NewSource(7)), 6, 500)
	x := []float64{0.1, -0.3, 0.5, 0.7, -0.2, 0.9}
	h1, _ := e1.Encode(nil, x)
	h2, _ := e2.Encode(nil, x)
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatal("same seed produced different encodings")
		}
	}
}

func TestNonlinearRangeBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, _ := NewNonlinear(rng, 8, 256)
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	h, err := e.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range h {
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("component %d = %v outside [-1,1]", j, v)
		}
	}
}

func TestNonlinearBipolarIsCenteredSignOfRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e, _ := NewNonlinear(rng, 5, 200)
	x := []float64{0.4, -0.1, 0.2, 0.8, -0.6}
	raw, _ := e.Encode(nil, x)
	bip := bipolarOf(t, e, nil, x)
	if !bip.IsBipolar() {
		t.Fatal("EncodeBipolarInto output not bipolar")
	}
	for j := range raw {
		want := 1.0
		if raw[j] < e.center[j] {
			want = -1
		}
		if bip[j] != want {
			t.Fatalf("component %d: raw %v, center %v, bipolar %v", j, raw[j], e.center[j], bip[j])
		}
	}
}

// TestNonlinearBinaryMatchesBipolar checks the bit-packed query the
// quantized kernels read, hdc.Pack of the bipolar encoding: bit j is set
// exactly where the raw encoding is at or above center_j.
func TestNonlinearBinaryMatchesBipolar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, _ := NewNonlinear(rng, 5, 333)
	x := []float64{0.4, -0.1, 0.2, 0.8, -0.6}
	raw, _ := e.Encode(nil, x)
	bin := hdc.Pack(nil, bipolarOf(t, e, nil, x))
	for j := range raw {
		if bin.Bit(j) != (raw[j] >= e.center[j]) {
			t.Fatalf("component %d: raw %v, center %v, bit %v", j, raw[j], e.center[j], bin.Bit(j))
		}
	}
}

// TestSimilarityPreserving is the encoder's "common-sense principle" (§2.2):
// inputs close in the original space must be more similar in HD space than
// distant inputs, and far-apart inputs should be nearly orthogonal.
func TestSimilarityPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e, _ := NewNonlinear(rng, 10, 8000)
	base := make([]float64, 10)
	near := make([]float64, 10)
	far := make([]float64, 10)
	for i := range base {
		base[i] = rng.NormFloat64()
		near[i] = base[i] + 0.02*rng.NormFloat64()
		far[i] = 5 * rng.NormFloat64()
	}
	hb := bipolarOf(t, e, nil, base)
	hn := bipolarOf(t, e, nil, near)
	hf := bipolarOf(t, e, nil, far)
	simNear := hdc.Cosine(nil, hb, hn)
	simFar := hdc.Cosine(nil, hb, hf)
	if simNear < 0.7 {
		t.Fatalf("near input similarity %v too low", simNear)
	}
	if math.Abs(simFar) > 0.15 {
		t.Fatalf("far input similarity %v, want ≈ 0", simFar)
	}
	if simNear <= simFar {
		t.Fatalf("similarity order violated: near %v <= far %v", simNear, simFar)
	}
}

func TestSimilarityMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, _ := NewNonlinear(rng, 6, 4000)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := make([]float64, 6)
		small := make([]float64, 6)
		big := make([]float64, 6)
		for i := range base {
			base[i] = r.NormFloat64()
			d := r.NormFloat64()
			small[i] = base[i] + 0.05*d
			big[i] = base[i] + 2.0*d
		}
		hb := bipolarOf(t, e, nil, base)
		hs := bipolarOf(t, e, nil, small)
		hg := bipolarOf(t, e, nil, big)
		return hdc.Cosine(nil, hb, hs) > hdc.Cosine(nil, hb, hg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBaseVectorsOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e, _ := NewNonlinear(rng, 4, 10000)
	b0 := e.Base(0)
	b1 := e.Base(1)
	if c := hdc.Cosine(nil, b0, b1); math.Abs(c) > 0.06 {
		t.Fatalf("base vectors not nearly orthogonal: cosine %v", c)
	}
}

func TestBipolarProjectionVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	e, err := NewNonlinearProjection(rng, 6, 5000, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Base(0).IsBipolar() {
		t.Fatal("ProjBipolar base vector not bipolar")
	}
	if c := hdc.Cosine(nil, e.Base(0), e.Base(1)); math.Abs(c) > 0.08 {
		t.Fatalf("bipolar bases not nearly orthogonal: cosine %v", c)
	}
	// The bipolar variant still preserves similarity for moderate n.
	base := []float64{0.1, -0.2, 0.3, 0.4, -0.5, 0.6}
	near := []float64{0.12, -0.18, 0.31, 0.41, -0.52, 0.58}
	hb := bipolarOf(t, e, nil, base)
	hn := bipolarOf(t, e, nil, near)
	if hdc.Cosine(nil, hb, hn) < 0.5 {
		t.Fatal("bipolar projection lost local similarity")
	}
	if _, err := NewNonlinearProjection(rng, 2, 10, 1, Projection(9)); err == nil {
		t.Fatal("unknown projection kind accepted")
	}
	if _, err := NewNonlinearProjection(rng, 2, 10, -1, ProjGaussian); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
}

func TestEncodeCountsOps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	e, _ := NewNonlinear(rng, 4, 100)
	var c hdc.Counter
	if _, err := e.Encode(&c, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if c.Count(hdc.OpExp) != 200 {
		t.Fatalf("exp count = %d, want 200 (cos+sin per dim)", c.Count(hdc.OpExp))
	}
	if c.Count(hdc.OpFloatMul) < 400 {
		t.Fatalf("mul count = %d, want >= n*D", c.Count(hdc.OpFloatMul))
	}
}

// newBipolarPair returns two identically-seeded bipolar-projection encoders,
// the second with the packed sign matrix removed so it runs the dense naive
// projection kernel — the pre-packing reference path.
func newBipolarPair(t *testing.T, seed int64, n, dim int) (packed, naive *Nonlinear) {
	t.Helper()
	packed, err := NewNonlinearProjection(rand.New(rand.NewSource(seed)), n, dim, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	naive, err = NewNonlinearProjection(rand.New(rand.NewSource(seed)), n, dim, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	naive.packed = nil
	if packed.packed == nil {
		t.Fatal("bipolar projection was not sign-packed at construction")
	}
	return packed, naive
}

// TestPackedProjectionMatchesNaive is the encoder-level differential: the
// packed sign-selected projection must reproduce the dense float kernel
// bit-for-bit across every encode entry point, with identical op counts.
func TestPackedProjectionMatchesNaive(t *testing.T) {
	for _, tc := range []struct{ n, dim int }{{1, 64}, {6, 333}, {32, 4096}} {
		ep, en := newBipolarPair(t, 11, tc.n, tc.dim)
		rng := rand.New(rand.NewSource(12))
		x := make([]float64, tc.n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}

		var cp, cn hdc.Counter
		hp, err := ep.Encode(&cp, x)
		if err != nil {
			t.Fatal(err)
		}
		hn, err := en.Encode(&cn, x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range hp {
			if math.Float64bits(hp[j]) != math.Float64bits(hn[j]) {
				t.Fatalf("n=%d D=%d: raw[%d] packed %v != naive %v", tc.n, tc.dim, j, hp[j], hn[j])
			}
		}
		if cp != cn {
			t.Fatalf("n=%d D=%d: Encode op counts diverge: packed %v, naive %v", tc.n, tc.dim, &cp, &cn)
		}

		cp.Reset()
		cn.Reset()
		sp := bipolarOf(t, ep, &cp, x)
		sn := bipolarOf(t, en, &cn, x)
		for j := range sp {
			if sp[j] != sn[j] {
				t.Fatalf("n=%d D=%d: bipolar[%d] diverges", tc.n, tc.dim, j)
			}
		}
		if cp != cn {
			t.Fatalf("n=%d D=%d: EncodeBipolarInto op counts diverge", tc.n, tc.dim)
		}

		cp.Reset()
		cn.Reset()
		rp, bp := hdc.NewVector(tc.dim), hdc.NewVector(tc.dim)
		rn, bn := hdc.NewVector(tc.dim), hdc.NewVector(tc.dim)
		if err := ep.EncodeBothInto(&cp, x, rp, bp); err != nil {
			t.Fatal(err)
		}
		if err := en.EncodeBothInto(&cn, x, rn, bn); err != nil {
			t.Fatal(err)
		}
		for j := range rp {
			if math.Float64bits(rp[j]) != math.Float64bits(rn[j]) || bp[j] != bn[j] {
				t.Fatalf("n=%d D=%d: EncodeBothInto diverges at %d", tc.n, tc.dim, j)
			}
		}
		if cp != cn {
			t.Fatalf("n=%d D=%d: EncodeBothInto op counts diverge", tc.n, tc.dim)
		}
	}
}

// TestEncodeBinaryDirectMatchesMaterialized pins the fused bipolar path
// against a materialized reference, for both projection kinds: the binary
// query hdc.Pack(EncodeBipolarInto) must carry exactly the bits of the
// centered sign of the raw Encode output, and the fused pass must charge
// exactly Encode plus one compare per dimension.
func TestEncodeBinaryDirectMatchesMaterialized(t *testing.T) {
	for _, kind := range []Projection{ProjGaussian, ProjBipolar} {
		e, err := NewNonlinearProjection(rand.New(rand.NewSource(13)), 7, 1000, 3, kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < 5; trial++ {
			x := make([]float64, 7)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			var cDirect, cRef hdc.Counter
			direct := hdc.Pack(nil, bipolarOf(t, e, &cDirect, x))
			raw, err := e.Encode(&cRef, x)
			if err != nil {
				t.Fatal(err)
			}
			cRef.Add(hdc.OpCmp, uint64(e.Dim()))
			ref := hdc.NewBinary(e.Dim())
			for j, v := range raw {
				ref.SetBit(j, v >= e.center[j])
			}
			if !direct.Equal(ref) {
				t.Fatalf("kind=%v: fused binary encoding differs from the centered sign of Encode", kind)
			}
			if cDirect != cRef {
				t.Fatalf("kind=%v: op counts diverge: direct %v, materialized %v", kind, &cDirect, &cRef)
			}
		}
	}
}

// TestGobRoundTripRestoresPackedProjection ensures a restored bipolar
// encoder re-derives the packed sign matrix and keeps encoding identically.
func TestGobRoundTripRestoresPackedProjection(t *testing.T) {
	e, err := NewNonlinearProjection(rand.New(rand.NewSource(18)), 5, 256, 2, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := e.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var restored Nonlinear
	if err := restored.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if restored.packed == nil {
		t.Fatal("restored bipolar encoder lost its packed projection")
	}
	x := []float64{0.2, -0.5, 0.9, -0.1, 0.7}
	h1, _ := e.Encode(nil, x)
	h2, _ := restored.Encode(nil, x)
	for j := range h1 {
		if math.Float64bits(h1[j]) != math.Float64bits(h2[j]) {
			t.Fatalf("restored encoder diverges at %d", j)
		}
	}
	// A Gaussian encoder must stay unpacked after the round trip.
	g, err := NewNonlinear(rand.New(rand.NewSource(19)), 5, 256)
	if err != nil {
		t.Fatal(err)
	}
	blob, err = g.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var gr Nonlinear
	if err := gr.GobDecode(blob); err != nil {
		t.Fatal(err)
	}
	if gr.packed != nil {
		t.Fatal("Gaussian encoder acquired a packed projection on load")
	}
	// ...and encode bit-identically: the reloaded centers are derived by the
	// same helper from the same biases.
	g1, _ := g.Encode(nil, x)
	g2, _ := gr.Encode(nil, x)
	for j := range g1 {
		if math.Float64bits(g1[j]) != math.Float64bits(g2[j]) {
			t.Fatalf("restored Gaussian encoder diverges at %d", j)
		}
	}
}
