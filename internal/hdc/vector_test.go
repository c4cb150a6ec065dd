package hdc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestNewVectorZero(t *testing.T) {
	v := NewVector(128)
	if v.Dim() != 128 {
		t.Fatalf("Dim = %d, want 128", v.Dim())
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("component %d = %v, want 0", i, x)
		}
	}
}

func TestDotBasic(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, -5, 6}
	if got := Dot(nil, v, w); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotCounts(t *testing.T) {
	var c Counter
	v := NewVector(100)
	Dot(&c, v, v)
	if c.Count(OpFloatMul) != 100 || c.Count(OpFloatAdd) != 100 {
		t.Fatalf("counts = %v, want 100 mul/add", &c)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot on mismatched dims did not panic")
		}
	}()
	Dot(nil, NewVector(3), NewVector(4))
}

func TestCosineSelfIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := RandomGaussian(rng, 512)
	if got := Cosine(nil, v, v); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Cosine(v,v) = %v, want 1", got)
	}
}

func TestCosineOppositeIsMinusOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := RandomGaussian(rng, 512)
	w := v.Clone()
	Scale(nil, w, -1)
	if got := Cosine(nil, v, w); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Cosine(v,-v) = %v, want -1", got)
	}
}

func TestCosineZeroVector(t *testing.T) {
	v := NewVector(16)
	w := Vector{1}
	w = append(w, make(Vector, 15)...)
	if got := Cosine(nil, v, w); got != 0 {
		t.Fatalf("Cosine(0,w) = %v, want 0", got)
	}
}

func TestCosineBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := RandomGaussian(r, 64)
		w := RandomGaussian(r, 64)
		c := Cosine(nil, v, w)
		return c >= -1-1e-9 && c <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomBipolarNearOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const d = 10000
	v := RandomBipolar(rng, d)
	w := RandomBipolar(rng, d)
	if !v.IsBipolar() || !w.IsBipolar() {
		t.Fatal("RandomBipolar produced non-bipolar components")
	}
	// Cosine of independent random bipolar vectors concentrates around 0
	// with std 1/√D = 0.01; 6 sigma gives a robust bound.
	if c := Cosine(nil, v, w); math.Abs(c) > 0.06 {
		t.Fatalf("random bipolar cosine = %v, want ≈ 0", c)
	}
}

func TestAXPY(t *testing.T) {
	v := Vector{1, 1, 1}
	AXPY(nil, v, 2, Vector{1, 2, 3})
	want := Vector{3, 5, 7}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("AXPY = %v, want %v", v, want)
		}
	}
}

func TestAXPYSelfDotIdentity(t *testing.T) {
	// For bipolar S, S·S = D, so M ← M + a·S changes M·S by exactly a·D.
	rng := rand.New(rand.NewSource(5))
	const d = 256
	s := RandomBipolar(rng, d)
	m := RandomGaussian(rng, d)
	before := Dot(nil, m, s)
	AXPY(nil, m, 0.5, s)
	after := Dot(nil, m, s)
	if !almostEqual(after-before, 0.5*d, 1e-9) {
		t.Fatalf("Δ(M·S) = %v, want %v", after-before, 0.5*d)
	}
}

func TestSign(t *testing.T) {
	v := Vector{-2, 0, 3.5, -0.001}
	s := NewVector(len(v))
	SignInto(nil, s, v)
	want := Vector{-1, 1, 1, -1}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("SignInto = %v, want %v", s, want)
		}
	}
	if !s.IsBipolar() {
		t.Fatal("SignInto output not bipolar")
	}
	// In place (dst aliasing v) gives the same signs.
	SignInto(nil, v, v)
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("in-place SignInto = %v, want %v", v, want)
		}
	}
}

func TestL1Norm(t *testing.T) {
	if got := L1Norm(nil, Vector{-1, 2, -3}); got != 6 {
		t.Fatalf("L1Norm = %v, want 6", got)
	}
}

func TestNorm(t *testing.T) {
	if got := Norm(nil, Vector{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("Norm = %v, want 5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestCheckDims(t *testing.T) {
	if err := CheckDims(3, Vector{1, 2, 3}, NewVector(3)); err != nil {
		t.Fatalf("CheckDims valid: %v", err)
	}
	if err := CheckDims(3, NewVector(4)); err == nil {
		t.Fatal("CheckDims accepted mismatched dims")
	}
}

func TestScaleAndAdd(t *testing.T) {
	v := Vector{1, 2}
	Scale(nil, v, 3)
	if v[0] != 3 || v[1] != 6 {
		t.Fatalf("Scale = %v", v)
	}
	Add(nil, v, Vector{1, 1})
	if v[0] != 4 || v[1] != 7 {
		t.Fatalf("Add = %v", v)
	}
}

func TestZero(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Zero()
	for _, x := range v {
		if x != 0 {
			t.Fatalf("Zero left %v", v)
		}
	}
}

func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := RandomGaussian(r, 32)
		w := RandomGaussian(r, 32)
		return almostEqual(Dot(nil, v, w), Dot(nil, w, v), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDotLinearityProperty(t *testing.T) {
	// dot(a·v + w, q) = a·dot(v,q) + dot(w,q)
	f := func(seed int64, aRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a := float64(aRaw)/16 - 8
		v := RandomGaussian(r, 48)
		w := RandomGaussian(r, 48)
		q := RandomGaussian(r, 48)
		lhs := v.Clone()
		Scale(nil, lhs, a)
		Add(nil, lhs, w)
		return almostEqual(Dot(nil, lhs, q), a*Dot(nil, v, q)+Dot(nil, w, q), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
