package hdc

import (
	"math"
	"math/rand"
	"testing"
)

// randSignsFlat returns a dense rows×dim ±1 matrix.
func randSignsFlat(rng *rand.Rand, rows, dim int) []float64 {
	m := make([]float64, rows*dim)
	for i := range m {
		if rng.Int63()&1 == 0 {
			m[i] = 1
		} else {
			m[i] = -1
		}
	}
	return m
}

func TestPackSignsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ rows, dim int }{
		{1, 1}, {3, 64}, {2, 65}, {5, 127}, {4, 128}, {7, 100},
	} {
		m := randSignsFlat(rng, tc.rows, tc.dim)
		sm, ok := PackSignsFlat(m, tc.rows, tc.dim)
		if !ok {
			t.Fatalf("rows=%d dim=%d: pack failed on a pure ±1 matrix", tc.rows, tc.dim)
		}
		if sm.Rows() != tc.rows || sm.Dim() != tc.dim {
			t.Fatalf("rows=%d dim=%d: got %d×%d", tc.rows, tc.dim, sm.Rows(), sm.Dim())
		}
		for r := 0; r < tc.rows; r++ {
			for j := 0; j < tc.dim; j++ {
				if sm.Sign(r, j) != m[r*tc.dim+j] {
					t.Fatalf("rows=%d dim=%d: sign (%d,%d) = %v, want %v",
						tc.rows, tc.dim, r, j, sm.Sign(r, j), m[r*tc.dim+j])
				}
			}
		}
	}
}

func TestPackSignsFlatRejectsNonBipolar(t *testing.T) {
	if _, ok := PackSignsFlat([]float64{1, -1, 0.5, 1}, 2, 2); ok {
		t.Fatal("packed a matrix with a non-±1 entry")
	}
	if _, ok := PackSignsFlat([]float64{1, -1}, 2, 2); ok {
		t.Fatal("packed a matrix with the wrong length")
	}
}

// TestProjectAccumMatchesDense is the projection differential: the packed
// sign-selected kernel must match the dense reference bit-for-bit and charge
// the identical op counts.
func TestProjectAccumMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ rows, dim int }{
		{1, 1}, {2, 63}, {3, 64}, {4, 65}, {8, 200}, {32, 256}, {13, 1000},
	} {
		m := randSignsFlat(rng, tc.rows, tc.dim)
		sm, ok := PackSignsFlat(m, tc.rows, tc.dim)
		if !ok {
			t.Fatal("pack failed")
		}
		x := make([]float64, tc.rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ref := make([]float64, tc.dim)
		got := make([]float64, tc.dim)
		var refCtr, gotCtr Counter
		ProjectDense(&refCtr, ref, x, m)
		sm.ProjectAccum(&gotCtr, got, x)
		for j := range ref {
			if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("rows=%d dim=%d: out[%d] = %v, want %v (not bit-identical)",
					tc.rows, tc.dim, j, got[j], ref[j])
			}
		}
		if refCtr != gotCtr {
			t.Fatalf("rows=%d dim=%d: op counts diverge:\npacked: %v\ndense:  %v",
				tc.rows, tc.dim, &gotCtr, &refCtr)
		}
	}
}

// TestCosineKMatchesNaive checks the fused k-way cosine against the
// per-cluster Cosine loop: bit-identical similarities, identical op counts.
func TestCosineKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ k, dim int }{
		{1, 1}, {2, 64}, {8, 100}, {4, 1000},
	} {
		q := RandomGaussian(rng, tc.dim)
		cs := make([]Vector, tc.k)
		for i := range cs {
			cs[i] = RandomGaussian(rng, tc.dim)
		}
		ref := make([]float64, tc.k)
		got := make([]float64, tc.k)
		var refCtr, gotCtr Counter
		for i, c := range cs {
			ref[i] = Cosine(&refCtr, q, c)
		}
		CosineK(&gotCtr, q, cs, got)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("k=%d dim=%d: sims[%d] = %v, want %v (not bit-identical)",
					tc.k, tc.dim, i, got[i], ref[i])
			}
		}
		if refCtr != gotCtr {
			t.Fatalf("k=%d dim=%d: op counts diverge:\nfused: %v\nnaive: %v",
				tc.k, tc.dim, &gotCtr, &refCtr)
		}
	}
}

func TestCosineKZeroNorm(t *testing.T) {
	q := NewVector(16) // all-zero query
	cs := []Vector{RandomGaussian(rand.New(rand.NewSource(4)), 16), NewVector(16)}
	sims := make([]float64, 2)
	CosineK(nil, q, cs, sims)
	if sims[0] != 0 || sims[1] != 0 {
		t.Fatalf("zero-norm similarity should be 0, got %v", sims)
	}
}

// TestBinarySetHammingSimilarityKMatchesNaive checks the slab-layout k-way
// Hamming kernel (the snapshot serving path) against the per-pair reference:
// bit-identical similarities and identical op counts, across cluster counts
// that exercise the 4-way blocking, its tail, and odd word counts.
func TestBinarySetHammingSimilarityKMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct{ k, dim int }{
		{1, 1}, {2, 63}, {3, 64}, {4, 65}, {5, 100}, {7, 257},
		{8, 4096}, {16, 4096}, {9, 192}, {16, 127},
	} {
		q := RandomBipolarBinary(rng, tc.dim)
		cs := make([]*Binary, tc.k)
		for i := range cs {
			cs[i] = RandomBipolarBinary(rng, tc.dim)
		}
		set, _ := NewBinarySet(cs)
		if set.Len() != tc.k || set.Dim() != tc.dim {
			t.Fatalf("k=%d dim=%d: set reports %d×%d", tc.k, tc.dim, set.Len(), set.Dim())
		}
		ref := make([]float64, tc.k)
		got := make([]float64, tc.k)
		var refCtr, gotCtr Counter
		for i, c := range cs {
			ref[i] = HammingSimilarity(&refCtr, q, c)
		}
		set.HammingSimilarityK(&gotCtr, q, got)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("k=%d dim=%d: sims[%d] = %v, want %v",
					tc.k, tc.dim, i, got[i], ref[i])
			}
		}
		if refCtr != gotCtr {
			t.Fatalf("k=%d dim=%d: op counts diverge:\nslab: %v\nnaive: %v",
				tc.k, tc.dim, &gotCtr, &refCtr)
		}
	}
}

// TestBinarySetIsACopy pins the immutability contract: mutating the source
// binaries after NewBinarySet must not change the set's similarities.
func TestBinarySetIsACopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := RandomBipolarBinary(rng, 192)
	cs := []*Binary{RandomBipolarBinary(rng, 192), RandomBipolarBinary(rng, 192)}
	set, _ := NewBinarySet(cs)
	before := make([]float64, 2)
	set.HammingSimilarityK(nil, q, before)
	cs[0].FlipBits([]int{0, 64, 128})
	cs[1].FlipBits([]int{1})
	after := make([]float64, 2)
	set.HammingSimilarityK(nil, q, after)
	for i := range before {
		if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
			t.Fatalf("sims[%d] moved after source mutation: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestBinarySetEmpty(t *testing.T) {
	set, _ := NewBinarySet(nil)
	if set.Len() != 0 {
		t.Fatalf("empty set Len = %d", set.Len())
	}
	var ctr Counter
	set.HammingSimilarityK(&ctr, NewBinary(64), nil)
	if ctr != (Counter{}) {
		t.Fatalf("empty set charged ops: %v", &ctr)
	}
}

func TestBinarySetPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cs := []*Binary{RandomBipolarBinary(rng, 64), RandomBipolarBinary(rng, 64)}
	set, _ := NewBinarySet(cs)
	for name, fn := range map[string]func(){
		"query dim mismatch": func() { set.HammingSimilarityK(nil, NewBinary(65), make([]float64, 2)) },
		"sims too short":     func() { set.HammingSimilarityK(nil, NewBinary(64), make([]float64, 1)) },
		"mixed dims":         func() { NewBinarySet([]*Binary{NewBinary(64), NewBinary(65)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestProjectAccumDimensionPanics(t *testing.T) {
	sm, _ := PackSignsFlat([]float64{1, -1, 1, -1}, 2, 2)
	for _, fn := range []func(){
		func() { sm.ProjectAccum(nil, make([]float64, 2), make([]float64, 3)) },
		func() { sm.ProjectAccum(nil, make([]float64, 3), make([]float64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected dimension panic")
				}
			}()
			fn()
		}()
	}
}
