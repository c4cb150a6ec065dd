package encoding

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

// bipolarOf is EncodeBipolarInto into a fresh buffer, failing the test on
// error.
func bipolarOf(t testing.TB, e Encoder, ctr *hdc.Counter, x []float64) hdc.Vector {
	t.Helper()
	s := hdc.NewVector(e.Dim())
	if err := e.EncodeBipolarInto(ctr, x, s); err != nil {
		t.Fatal(err)
	}
	return s
}

// contractCase is one encoder of the contract table with the Counter
// charges of one call of each method. The charges are the formulas of the
// allocating Encode, EncodeBipolar and EncodeBoth methods the Into forms
// replaced, so hwmodel estimates built on them do not move.
type contractCase struct {
	name               string
	enc                Encoder
	raw, bipolar, both hdc.Counter
}

// signCharge is c plus the charge of hdc.SignInto over D components.
func signCharge(c hdc.Counter, d uint64) hdc.Counter {
	c.Add(hdc.OpCmp, d)
	c.Add(hdc.OpMemRead, d)
	c.Add(hdc.OpMemWrite, d)
	return c
}

// nonlinearCase charges the Eq. 1 encoder: the dense projection, the
// canonical two-trig nonlinearity, and one compare per dimension for the
// centered-sign threshold of both quantized forms.
func nonlinearCase(name string, e *Nonlinear) contractCase {
	n, d := uint64(e.Features()), uint64(e.Dim())
	c := contractCase{name: name, enc: e}
	c.raw.Add(hdc.OpFloatMul, n*d+d)
	c.raw.Add(hdc.OpFloatAdd, n*d+d)
	c.raw.Add(hdc.OpMemRead, n*d)
	c.raw.Add(hdc.OpExp, 2*d)
	c.raw.Add(hdc.OpMemWrite, d)
	c.bipolar = c.raw
	c.bipolar.Add(hdc.OpCmp, d)
	c.both = c.bipolar
	return c
}

// idLevelCase charges the bundled ID⊙level encoding; the bipolar form adds
// one compare per dimension, the both-form the full hdc.SignInto charge.
func idLevelCase(name string, e *IDLevel) contractCase {
	n, d := uint64(e.Features()), uint64(e.Dim())
	c := contractCase{name: name, enc: e}
	c.raw.Add(hdc.OpFloatMul, n*d)
	c.raw.Add(hdc.OpFloatAdd, n*d)
	c.raw.Add(hdc.OpCmp, n)
	c.raw.Add(hdc.OpMemRead, 2*n*d)
	c.raw.Add(hdc.OpMemWrite, d)
	c.bipolar = c.raw
	c.bipolar.Add(hdc.OpCmp, d)
	c.both = signCharge(c.raw, d)
	return c
}

// sequenceCase charges W steps of base bipolar encode, rotation and
// bundling; both quantized forms add the hdc.SignInto charge.
func sequenceCase(name string, e *Sequence, base contractCase) contractCase {
	d := uint64(e.Dim())
	step := base.bipolar
	step.Add(hdc.OpMemRead, d) // Permute
	step.Add(hdc.OpMemWrite, d)
	step.Add(hdc.OpFloatAdd, d) // Add
	step.Add(hdc.OpMemRead, 2*d)
	step.Add(hdc.OpMemWrite, d)
	c := contractCase{name: name, enc: e}
	for t := 0; t < e.Window(); t++ {
		c.raw.AddCounter(&step)
	}
	c.bipolar = signCharge(c.raw, d)
	c.both = c.bipolar
	return c
}

// contractCases builds the table: Nonlinear with both projections, IDLevel,
// and Sequence over each base kind, all over 3 features per step.
func contractCases(t testing.TB) []contractCase {
	t.Helper()
	gauss, err := NewNonlinearProjection(rand.New(rand.NewSource(31)), 3, 200, 1.5, ProjGaussian)
	if err != nil {
		t.Fatal(err)
	}
	bip, err := NewNonlinearProjection(rand.New(rand.NewSource(32)), 3, 200, 1.5, ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	idl, err := NewIDLevel(rand.New(rand.NewSource(33)), 3, 200, 16, -2, 2)
	if err != nil {
		t.Fatal(err)
	}
	seqG, err := NewSequence(gauss, 2)
	if err != nil {
		t.Fatal(err)
	}
	seqI, err := NewSequence(idl, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, b, i := nonlinearCase("nonlinear-gaussian", gauss), nonlinearCase("nonlinear-bipolar", bip), idLevelCase("idlevel", idl)
	return []contractCase{g, b, i, sequenceCase("sequence-nonlinear", seqG, g), sequenceCase("sequence-idlevel", seqI, i)}
}

// checkContract runs every method of c on x into dirty buffers and checks
// the contract: EncodeBothInto's raw output is Float64bits-equal to Encode,
// its bipolar output equals EncodeBipolarInto, and every method charges its
// formula. An input one method rejects, every method must reject.
func checkContract(t *testing.T, c contractCase, x []float64) {
	t.Helper()
	d := c.enc.Dim()
	dirty := func() hdc.Vector {
		v := hdc.NewVector(d)
		for j := range v {
			v[j] = math.NaN()
		}
		return v
	}
	var cRaw, cBip, cBoth hdc.Counter
	h, errRaw := c.enc.Encode(&cRaw, x)
	s := dirty()
	errBip := c.enc.EncodeBipolarInto(&cBip, x, s)
	raw, s2 := dirty(), dirty()
	errBoth := c.enc.EncodeBothInto(&cBoth, x, raw, s2)
	if (errRaw == nil) != (errBip == nil) || (errRaw == nil) != (errBoth == nil) {
		t.Fatalf("%s: methods disagree on %v: Encode %v, EncodeBipolarInto %v, EncodeBothInto %v", c.name, x, errRaw, errBip, errBoth)
	}
	if errRaw != nil {
		return
	}
	for j := range h {
		if math.Float64bits(raw[j]) != math.Float64bits(h[j]) {
			t.Fatalf("%s: EncodeBothInto raw[%d] = %v, Encode %v", c.name, j, raw[j], h[j])
		}
		if s2[j] != s[j] || (s[j] != 1 && s[j] != -1) {
			t.Fatalf("%s: EncodeBothInto bipolar[%d] = %v, EncodeBipolarInto %v", c.name, j, s2[j], s[j])
		}
	}
	if cRaw != c.raw {
		t.Fatalf("%s: Encode charged %v, want %v", c.name, &cRaw, &c.raw)
	}
	if cBip != c.bipolar {
		t.Fatalf("%s: EncodeBipolarInto charged %v, want %v", c.name, &cBip, &c.bipolar)
	}
	if cBoth != c.both {
		t.Fatalf("%s: EncodeBothInto charged %v, want %v", c.name, &cBoth, &c.both)
	}
}

// TestEncodeIntoMatchesAlloc checks the encoder contract on every encoder:
// the Into forms agree with Encode and with each other bit for bit, charge
// the formulas of the allocating methods they replaced, fully overwrite
// reused destination buffers, and reject wrong-size destinations.
func TestEncodeIntoMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, c := range contractCases(t) {
		for trial := 0; trial < 4; trial++ {
			x := make([]float64, c.enc.Features())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			checkContract(t, c, x)
		}
		x := make([]float64, c.enc.Features())
		short, full := hdc.NewVector(c.enc.Dim()-1), hdc.NewVector(c.enc.Dim())
		if err := c.enc.EncodeBipolarInto(nil, x, short); err == nil {
			t.Fatalf("%s: EncodeBipolarInto accepted a wrong-size destination", c.name)
		}
		if err := c.enc.EncodeBothInto(nil, x, short, full); err == nil {
			t.Fatalf("%s: EncodeBothInto accepted a wrong-size raw destination", c.name)
		}
		if err := c.enc.EncodeBothInto(nil, x, full, short); err == nil {
			t.Fatalf("%s: EncodeBothInto accepted a wrong-size bipolar destination", c.name)
		}
	}
}

// FuzzEncodeInto drives every encoder of the contract table with arbitrary
// rows, NaN, ±Inf and values beyond the range-reduced sine's limit
// included: no input may panic, and every input must keep the contract
// checkContract pins.
func FuzzEncodeInto(f *testing.F) {
	f.Add(0.1, -0.4, 1.2, 0.0, 0.7, -2.5)
	f.Add(math.NaN(), 0.0, 1.0, 2.0, 3.0, 4.0)
	f.Add(math.Inf(1), math.Inf(-1), 0.5, -0.5, math.NaN(), 1.0)
	f.Add(3e8, -1e300, 1<<29+0.5, -math.MaxFloat64, 5e-324, math.Copysign(0, -1))
	cases := contractCases(f)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g float64) {
		row := []float64{a, b, c, d, e, g}
		for _, tc := range cases {
			checkContract(t, tc, row[:tc.enc.Features()])
		}
	})
}
