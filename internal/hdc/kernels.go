package hdc

import (
	"fmt"
	"math"
	"math/bits"
)

// This file is the serving-path kernel layer: the bit-packed sign-matrix
// projection and the fused k-way similarity kernels that replace the naive
// per-cluster loops on the hot prediction path.
//
// Two contracts bind every kernel here to its naive reference:
//
//  1. Bit-exact results. Each kernel performs the same floating-point
//     operations in the same per-accumulator order as the reference, so the
//     outputs are identical to the last bit — not merely close. A ±1 multiply
//     is an IEEE-754 sign flip, so replacing f*(±1) with a sign-selected
//     add/sub changes nothing in the result; fusing loops is legal as long as
//     every accumulator still sums in the reference order.
//
//  2. Identical op accounting. The Counter charges model the canonical
//     algorithm, not the software shortcut: a packed projection still charges
//     the float multiply-adds of the dense form, and a fused similarity
//     charges exactly k times the single-pair kernel. The hwmodel cost
//     estimates are an API contract, and they must not move when the software
//     gets faster. internal/hdc/fuzz_test.go enforces both contracts.

// SignMatrix is a bit-packed ±1 matrix of rows × dim entries, stored
// quad-interleaved for the projection kernel: rows are grouped four at a
// time, and each 64-bit word holds 16 consecutive columns of one quad as
// 4-bit nibbles (bit r of the nibble at column j is the sign of row
// 4q+r — set means +1, clear means −1). The layout lets ProjectAccum read
// the four sign bits an output element needs with one AND, turning four
// multiply-adds into a single table-indexed add. For the Eq. 1 encoder's
// projection the packed form is 64× smaller than the dense float64 matrix —
// n=32, D=4096 packs into 16 KiB and stays cache-resident, where the dense
// matrix streams 1 MiB per encode.
type SignMatrix struct {
	rows, dim    int
	quads        int // ceil(rows/4); trailing pad rows carry clear (−1) bits
	wordsPerQuad int // ceil(dim/16)
	words        []uint64
}

// PackSignsFlat packs a dense row-major rows×dim matrix whose entries are
// all exactly ±1 into a SignMatrix. The second return is false (with a nil
// matrix) when any entry is not ±1 — callers use it to detect whether a
// projection is sign-packable at all.
//
//lint:nocount one-time encoder construction: packs the projection matrix before any sample is served; the per-sample kernels charge the canonical projection ops
func PackSignsFlat(m []float64, rows, dim int) (*SignMatrix, bool) {
	if rows < 0 || dim < 0 || len(m) != rows*dim {
		return nil, false
	}
	sm := &SignMatrix{
		rows:         rows,
		dim:          dim,
		quads:        (rows + 3) / 4,
		wordsPerQuad: (dim + 15) / 16,
	}
	sm.words = make([]uint64, sm.quads*sm.wordsPerQuad)
	for r := 0; r < rows; r++ {
		row := m[r*dim : (r+1)*dim]
		base := (r / 4) * sm.wordsPerQuad
		bit := uint(r % 4)
		for j, v := range row {
			switch v {
			case 1:
				sm.words[base+j/16] |= 1 << (uint(j%16)*4 + bit)
			case -1:
				// clear bit; already zero
			default:
				return nil, false
			}
		}
	}
	return sm, true
}

// Rows returns the number of rows (input features for a projection).
func (sm *SignMatrix) Rows() int { return sm.rows }

// Dim returns the number of columns (hyperdimensional size D).
func (sm *SignMatrix) Dim() int { return sm.dim }

// Sign returns entry (r, j) as ±1.
func (sm *SignMatrix) Sign(r, j int) float64 {
	word := sm.words[(r/4)*sm.wordsPerQuad+j/16]
	if word&(1<<(uint(j%16)*4+uint(r%4))) != 0 {
		return 1
	}
	return -1
}

// ProjectDense computes out[j] = Σ_k x[k]·m[k·dim+j] over a dense row-major
// projection matrix — the reference kernel ProjectAccum must match
// bit-for-bit. It zeroes out first.
//
// Rows are processed four at a time with the per-element chain
// ((f0·s0 + f1·s1) + f2·s2) + f3·s3, the register-blocked order both this
// kernel and the packed one accumulate in: the blocking quarters the
// read-modify-write traffic on out, and sharing one canonical order is what
// makes the packed kernel's table trick (which produces exactly that
// four-term chain) bit-exact rather than merely close. Assumes the compiler
// does not contract a·b+c into fused multiply-adds (true on amd64; Go only
// fuses via math.FMA there).
func ProjectDense(ctr *Counter, out, x, m []float64) {
	dim := len(out)
	if len(m) != len(x)*dim {
		panic(fmt.Sprintf("hdc: ProjectDense matrix is %d entries, want %d×%d", len(m), len(x), dim))
	}
	for j := range out {
		out[j] = 0
	}
	rows := len(x)
	for k := 0; k < rows; k += 4 {
		switch rows - k {
		case 1:
			f0 := x[k]
			r0 := m[k*dim : (k+1)*dim]
			for j := range out {
				out[j] += f0 * r0[j]
			}
		case 2:
			f0, f1 := x[k], x[k+1]
			r0 := m[k*dim : (k+1)*dim]
			r1 := m[(k+1)*dim : (k+2)*dim]
			for j := range out {
				out[j] += f0*r0[j] + f1*r1[j]
			}
		case 3:
			f0, f1, f2 := x[k], x[k+1], x[k+2]
			r0 := m[k*dim : (k+1)*dim]
			r1 := m[(k+1)*dim : (k+2)*dim]
			r2 := m[(k+2)*dim : (k+3)*dim]
			for j := range out {
				out[j] += (f0*r0[j] + f1*r1[j]) + f2*r2[j]
			}
		default:
			f0, f1, f2, f3 := x[k], x[k+1], x[k+2], x[k+3]
			r0 := m[k*dim : (k+1)*dim]
			r1 := m[(k+1)*dim : (k+2)*dim]
			r2 := m[(k+2)*dim : (k+3)*dim]
			r3 := m[(k+3)*dim : (k+4)*dim]
			for j := range out {
				out[j] += ((f0*r0[j] + f1*r1[j]) + f2*r2[j]) + f3*r3[j]
			}
		}
	}
	n := uint64(rows) * uint64(dim)
	ctr.Add(OpFloatMul, n)
	ctr.Add(OpFloatAdd, n)
	ctr.Add(OpMemRead, n)
}

// ProjectAccum computes out[j] = Σ_k (sign(k,j) ? +x[k] : −x[k]) — the
// bit-packed form of ProjectDense with zero float multiplies. For each quad
// of four rows it precomputes the 16 possible signed sums
// ((±x0 ±x1) ±x2) ±x3 into a table, then each output element costs one
// nibble extraction and a single add: the 16-column inner loop is fully
// unrolled with constant shift counts, and the four multiply-adds per
// element collapse into one table lookup. A ±1 multiply is an exact
// IEEE-754 sign selection (f·(+1) == f, f·(−1) == −f) and the table entries
// are built in the same four-term chain order ProjectDense accumulates in,
// so results are bit-for-bit identical. Pad rows beyond len(x) contribute
// −0.0 (clear sign bit, zero feature), the exact additive identity, so
// non-multiple-of-4 row counts stay bit-exact too.
//
// Op accounting is identical to ProjectDense by contract: the projection is
// still charged as dense float multiply-adds so the hwmodel cost estimates
// are unchanged (the hardware targets rematerialize the dense form; see
// docs/PERFORMANCE.md).
func (sm *SignMatrix) ProjectAccum(ctr *Counter, out, x []float64) {
	if len(x) != sm.rows {
		panic(fmt.Sprintf("hdc: ProjectAccum input has %d features, matrix has %d rows", len(x), sm.rows))
	}
	if len(out) != sm.dim {
		panic(fmt.Sprintf("hdc: ProjectAccum output has dim %d, matrix has %d", len(out), sm.dim))
	}
	for j := range out {
		out[j] = 0
	}
	dim, wpq := sm.dim, sm.wordsPerQuad
	for q := 0; q < sm.quads; q++ {
		var x0, x1, x2, x3 float64
		switch k := q * 4; sm.rows - k {
		case 1:
			x0 = x[k]
		case 2:
			x0, x1 = x[k], x[k+1]
		case 3:
			x0, x1, x2 = x[k], x[k+1], x[k+2]
		default:
			x0, x1, x2, x3 = x[k], x[k+1], x[k+2], x[k+3]
		}
		// t[s] is the quad's contribution for sign pattern s, accumulated in
		// the canonical chain order; −x is an exact negation, so every entry
		// equals the corresponding four-term multiply-add of ProjectDense.
		var t [16]float64
		for s := range t {
			v0, v1, v2, v3 := -x0, -x1, -x2, -x3
			if s&1 != 0 {
				v0 = x0
			}
			if s&2 != 0 {
				v1 = x1
			}
			if s&4 != 0 {
				v2 = x2
			}
			if s&8 != 0 {
				v3 = x3
			}
			t[s] = ((v0 + v1) + v2) + v3
		}
		words := sm.words[q*wpq : (q+1)*wpq]
		for w, word := range words {
			base := w * 16
			if dim-base >= 16 {
				o := out[base : base+16 : base+16]
				o[0] += t[word&15]
				o[1] += t[word>>4&15]
				o[2] += t[word>>8&15]
				o[3] += t[word>>12&15]
				o[4] += t[word>>16&15]
				o[5] += t[word>>20&15]
				o[6] += t[word>>24&15]
				o[7] += t[word>>28&15]
				o[8] += t[word>>32&15]
				o[9] += t[word>>36&15]
				o[10] += t[word>>40&15]
				o[11] += t[word>>44&15]
				o[12] += t[word>>48&15]
				o[13] += t[word>>52&15]
				o[14] += t[word>>56&15]
				o[15] += t[word>>60&15]
				continue
			}
			for j := base; j < dim; j++ {
				out[j] += t[word&15]
				word >>= 4
			}
		}
	}
	n := uint64(sm.rows) * uint64(sm.dim)
	ctr.Add(OpFloatMul, n)
	ctr.Add(OpFloatAdd, n)
	ctr.Add(OpMemRead, n)
}

// CosineK fills sims[i] = Cosine(q, cs[i]) for every cluster in one fused
// pass: the query norm is computed once instead of k times, and each
// cluster's dot product and norm accumulate in a single joint pass instead
// of two — roughly halving the memory traffic of the k-way similarity
// search. Every accumulator still sums in index order, so each sims[i] is
// bit-for-bit the value the naive per-cluster Cosine loop produces, and the
// op charges are exactly k times the single-pair Cosine kernel.
func CosineK(ctr *Counter, q Vector, cs []Vector, sims []float64) {
	if len(sims) < len(cs) {
		panic(fmt.Sprintf("hdc: CosineK sims has %d slots for %d clusters", len(sims), len(cs)))
	}
	var nq2 float64
	for _, v := range q {
		nq2 += v * v
	}
	nq := math.Sqrt(nq2)
	for i, c := range cs {
		if len(c) != len(q) {
			panic(fmt.Sprintf("hdc: CosineK dimension mismatch %d != %d", len(c), len(q)))
		}
		var dot, nc2 float64
		for j, v := range q {
			w := c[j]
			dot += v * w
			nc2 += w * w
		}
		nc := math.Sqrt(nc2)
		//lint:ignore floatcmp exact zero-norm guard before division (Cosine defines zero-norm similarity as 0)
		if nq == 0 || nc == 0 {
			sims[i] = 0
		} else {
			sims[i] = dot / (nq * nc)
		}
	}
	// Charge k× the Cosine reference: Dot + Norm(q) + Norm(c) + combine.
	d, k := uint64(len(q)), uint64(len(cs))
	ctr.Add(OpFloatMul, k*(3*d+1))
	ctr.Add(OpFloatAdd, k*3*d)
	ctr.Add(OpFloatDiv, 3*k)
	ctr.Add(OpMemRead, k*4*d)
}

// chargeHammingK charges k× the HammingSimilarity reference (Hamming + the
// map to [−1,1]) over nw-word vectors, so the BinarySet kernel stays
// charge-identical to k naive calls.
func chargeHammingK(ctr *Counter, nw, k uint64) {
	ctr.Add(OpXor, k*nw)
	ctr.Add(OpPopcnt, k*nw)
	ctr.Add(OpIntAdd, k*nw)
	ctr.Add(OpMemRead, k*2*nw)
	ctr.Add(OpFloatDiv, k)
	ctr.Add(OpFloatAdd, k)
}

// BinarySet is k equal-dimension bit-packed hypervectors flattened into one
// contiguous word slab, row-major: vector i occupies words[i*wordsPerVec :
// (i+1)*wordsPerVec]. The layout exists for the k-way Hamming search: with
// all cluster words in a single allocation the kernel can block four
// clusters against each query word pair and keep every stream on the same
// hardware-prefetched cache lines, which is what makes the fused form
// actually beat k naive calls (over separate per-*Binary allocations the
// same blocking measured slower than the naive loop; see
// docs/PERFORMANCE.md). The set changes only through writes to the row
// views NewBinarySet returns.
type BinarySet struct {
	k, dim, wordsPerVec int
	words               []uint64
}

// NewBinarySet copies bs into a fresh contiguous slab and returns the set
// with one view per row: views[i] has bs[i]'s dimension and Words aliasing
// row i (capacity capped at the row), so writes through a view's Words are
// what the set's kernels read. All vectors must share one dimension. The
// inputs are not retained; later mutation of bs does not affect the set.
//
//lint:nocount one-time layout change at model/snapshot construction: the per-query kernels still charge the canonical k-way Hamming ops
func NewBinarySet(bs []*Binary) (*BinarySet, []*Binary) {
	s := &BinarySet{k: len(bs)}
	if len(bs) == 0 {
		return s, nil
	}
	s.dim = bs[0].Dim
	s.wordsPerVec = len(bs[0].Words)
	s.words = make([]uint64, s.k*s.wordsPerVec)
	views := make([]*Binary, len(bs))
	for i, b := range bs {
		if b.Dim != s.dim {
			panic(fmt.Sprintf("hdc: NewBinarySet dimension mismatch %d != %d", b.Dim, s.dim))
		}
		row := s.words[i*s.wordsPerVec : (i+1)*s.wordsPerVec : (i+1)*s.wordsPerVec]
		copy(row, b.Words)
		views[i] = &Binary{Words: row, Dim: s.dim}
	}
	return s, views
}

// Len returns the number of vectors in the set.
func (s *BinarySet) Len() int { return s.k }

// Dim returns the shared dimension of the vectors.
func (s *BinarySet) Dim() int { return s.dim }

// HammingSimilarityK fills sims[i] = HammingSimilarity(q, set vector i) for
// every vector in the set. Clusters are blocked four
// at a time against two query words per step: the four distance accumulators
// are independent (no XOR→POPCNT→ADD dependency chain stalls) and all four
// cluster streams walk consecutive slab rows, so the blocking pays instead
// of thrashing. Hamming distances are integer sums (order-independent) and
// the final map 1 − 2h/D is the same expression as the single-pair kernel,
// so results are bit-for-bit identical to k naive HammingSimilarity calls;
// charges are identical too.
func (s *BinarySet) HammingSimilarityK(ctr *Counter, q *Binary, sims []float64) {
	if len(sims) < s.k {
		panic(fmt.Sprintf("hdc: BinarySet.HammingSimilarityK sims has %d slots for %d vectors", len(sims), s.k))
	}
	if s.k > 0 && q.Dim != s.dim {
		panic(fmt.Sprintf("hdc: BinarySet.HammingSimilarityK dimension mismatch %d != %d", q.Dim, s.dim))
	}
	qw := q.Words
	nw := s.wordsPerVec
	dim := float64(q.Dim)
	i := 0
	for ; i+4 <= s.k; i += 4 {
		c0 := s.words[i*nw : (i+1)*nw : (i+1)*nw]
		c1 := s.words[(i+1)*nw : (i+2)*nw : (i+2)*nw]
		c2 := s.words[(i+2)*nw : (i+3)*nw : (i+3)*nw]
		c3 := s.words[(i+3)*nw : (i+4)*nw : (i+4)*nw]
		var h0, h1, h2, h3 int
		j := 0
		for ; j+2 <= nw; j += 2 {
			w0, w1 := qw[j], qw[j+1]
			h0 += bits.OnesCount64(w0^c0[j]) + bits.OnesCount64(w1^c0[j+1])
			h1 += bits.OnesCount64(w0^c1[j]) + bits.OnesCount64(w1^c1[j+1])
			h2 += bits.OnesCount64(w0^c2[j]) + bits.OnesCount64(w1^c2[j+1])
			h3 += bits.OnesCount64(w0^c3[j]) + bits.OnesCount64(w1^c3[j+1])
		}
		for ; j < nw; j++ {
			w := qw[j]
			h0 += bits.OnesCount64(w ^ c0[j])
			h1 += bits.OnesCount64(w ^ c1[j])
			h2 += bits.OnesCount64(w ^ c2[j])
			h3 += bits.OnesCount64(w ^ c3[j])
		}
		sims[i] = 1 - 2*float64(h0)/dim
		sims[i+1] = 1 - 2*float64(h1)/dim
		sims[i+2] = 1 - 2*float64(h2)/dim
		sims[i+3] = 1 - 2*float64(h3)/dim
	}
	for ; i < s.k; i++ {
		cw := s.words[i*nw : (i+1)*nw : (i+1)*nw]
		var h int
		for j, w := range qw {
			h += bits.OnesCount64(w ^ cw[j])
		}
		sims[i] = 1 - 2*float64(h)/dim
	}
	chargeHammingK(ctr, uint64(nw), uint64(s.k))
}
