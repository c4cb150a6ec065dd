package hdc

import (
	"math"
	"testing"
)

// FuzzPackUnpack asserts the bit-pack round trip holds for arbitrary sign
// patterns and that the dot/Hamming identity survives fuzzing.
func FuzzPackUnpack(f *testing.F) {
	f.Add([]byte{0x00}, []byte{0xFF})
	f.Add([]byte{0xAA, 0x55}, []byte{0x0F, 0xF0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) == 0 || len(b) == 0 {
			return
		}
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n > 512 {
			n = 512
		}
		va := make(Vector, n)
		vb := make(Vector, n)
		for i := 0; i < n; i++ {
			va[i] = 1
			if a[i]&1 == 0 {
				va[i] = -1
			}
			vb[i] = 1
			if b[i]&1 == 0 {
				vb[i] = -1
			}
		}
		pa, pb := Pack(nil, va), Pack(nil, vb)
		ua := Unpack(pa)
		for i := range va {
			if ua[i] != va[i] {
				t.Fatalf("round trip differs at %d", i)
			}
		}
		if int(Dot(nil, va, vb)) != DotBinary(nil, pa, pb) {
			t.Fatal("dot/Hamming identity violated")
		}
		if h := Hamming(nil, pa, pb); h < 0 || h > n {
			t.Fatalf("Hamming out of range: %d", h)
		}
	})
}

// FuzzSignProject is the packed-projection differential fuzzer: for
// arbitrary sign patterns and feature values, SignMatrix.ProjectAccum must
// reproduce the dense ProjectDense reference bit-for-bit and charge the
// identical Counter op counts — the contract that keeps the hwmodel cost
// estimates valid after the kernel swap.
func FuzzSignProject(f *testing.F) {
	f.Add([]byte{0xAA, 0x55, 0x00, 0xFF}, int64(1), uint8(3), uint8(100))
	f.Add([]byte{0x01}, int64(7), uint8(1), uint8(64))
	f.Add([]byte{0xF0, 0x0F}, int64(42), uint8(5), uint8(65))
	f.Fuzz(func(t *testing.T, signs []byte, seed int64, nrows, ndim uint8) {
		rows := int(nrows%16) + 1
		dim := int(ndim)%300 + 1
		if len(signs) == 0 {
			return
		}
		m := make([]float64, rows*dim)
		for i := range m {
			if signs[i%len(signs)]>>(uint(i)%8)&1 == 0 {
				m[i] = -1
			} else {
				m[i] = 1
			}
		}
		sm, ok := PackSignsFlat(m, rows, dim)
		if !ok {
			t.Fatal("pack failed on a pure ±1 matrix")
		}
		// Deterministic pseudo-random features derived from the seed, kept
		// finite so bit-equality is meaningful.
		x := make([]float64, rows)
		s := uint64(seed)
		for i := range x {
			s = s*6364136223846793005 + 1442695040888963407
			x[i] = float64(int64(s>>11))/float64(1<<52) - 0.5
		}
		ref := make([]float64, dim)
		got := make([]float64, dim)
		var refCtr, gotCtr Counter
		ProjectDense(&refCtr, ref, x, m)
		sm.ProjectAccum(&gotCtr, got, x)
		for j := range ref {
			if math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("rows=%d dim=%d: out[%d] = %v, want %v", rows, dim, j, got[j], ref[j])
			}
		}
		if refCtr != gotCtr {
			t.Fatalf("op counts diverge: packed %v, dense %v", &gotCtr, &refCtr)
		}
	})
}

// FuzzSimilarityK fuzzes the fused k-way similarity kernels against their
// per-cluster references: CosineK vs a Cosine loop and
// BinarySet.HammingSimilarityK vs a HammingSimilarity loop, requiring
// bit-identical similarities and identical op counts.
func FuzzSimilarityK(f *testing.F) {
	f.Add([]byte{0xAA, 0x55}, int64(1), uint8(4), uint8(100))
	f.Add([]byte{0xFF}, int64(9), uint8(1), uint8(64))
	f.Fuzz(func(t *testing.T, pattern []byte, seed int64, kk, ndim uint8) {
		k := int(kk%8) + 1
		dim := int(ndim)%200 + 1
		if len(pattern) == 0 {
			return
		}
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(int64(s>>11))/float64(1<<52) - 0.5
		}
		q := make(Vector, dim)
		qb := NewBinary(dim)
		for j := range q {
			q[j] = next()
			if pattern[j%len(pattern)]>>(uint(j)%8)&1 == 1 {
				qb.SetBit(j, true)
			}
		}
		cs := make([]Vector, k)
		cbs := make([]*Binary, k)
		for i := range cs {
			cs[i] = make(Vector, dim)
			cbs[i] = NewBinary(dim)
			for j := range cs[i] {
				cs[i][j] = next()
				if pattern[(i+j)%len(pattern)]>>(uint(i+j)%8)&1 == 1 {
					cbs[i].SetBit(j, true)
				}
			}
		}

		ref := make([]float64, k)
		got := make([]float64, k)
		var refCtr, gotCtr Counter
		for i, c := range cs {
			ref[i] = Cosine(&refCtr, q, c)
		}
		CosineK(&gotCtr, q, cs, got)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("cosine sims[%d] = %v, want %v", i, got[i], ref[i])
			}
		}
		if refCtr != gotCtr {
			t.Fatalf("cosine op counts diverge: fused %v, naive %v", &gotCtr, &refCtr)
		}

		refCtr.Reset()
		gotCtr.Reset()
		for i, c := range cbs {
			ref[i] = HammingSimilarity(&refCtr, qb, c)
		}
		set, _ := NewBinarySet(cbs)
		set.HammingSimilarityK(&gotCtr, qb, got)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("slab hamming sims[%d] = %v, want %v", i, got[i], ref[i])
			}
		}
		if refCtr != gotCtr {
			t.Fatalf("slab hamming op counts diverge: slab %v, naive %v", &gotCtr, &refCtr)
		}
	})
}
