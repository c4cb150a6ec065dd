// Package encoding implements the similarity-preserving encoders that map
// original-space feature vectors into hyperdimensional space.
//
// The primary encoder is the paper's Eq. 1 nonlinear encoder:
//
//	H_j = cos(F·B_j + b_j) · sin(F·B_j)
//
// where each B_j is a random bipolar base vector over the n input features
// and b_j ~ U[0, 2π). The base vectors are random, hence nearly orthogonal,
// and the trigonometric nonlinearity makes the encoding a random-Fourier-
// feature-like kernel map: inputs close in the original space produce
// hypervectors with high cosine similarity, while distant inputs map to
// nearly orthogonal hypervectors. That nonlinearity is what lets RegHD learn
// nonlinear regression functions with purely linear model updates.
package encoding

import (
	"fmt"
	"math"
	"math/rand"

	"reghd/internal/hdc"
)

// Nonlinear is the Eq. 1 encoder. It is safe for concurrent use once
// constructed: Encode* methods only read the projection state.
// Projection selects the distribution of the base hypervectors B_k.
type Projection int

const (
	// ProjGaussian draws base components from the standard normal
	// distribution. This is the default: it makes the encoder a faithful
	// random-Fourier-feature map with a Gaussian similarity kernel for any
	// input dimensionality, and matches the authors' released
	// implementations of this encoder.
	ProjGaussian Projection = iota
	// ProjBipolar draws base components uniformly from {−1,+1}, the
	// paper's literal "bipolar base hypervectors". For inputs with few
	// features the projection magnitudes are then quantized (for n=1 every
	// dimension sees the same |phase|), which makes the induced kernel
	// periodic — distant inputs alias onto similar encodings. Provided for
	// ablation against the paper text; prefer ProjGaussian.
	ProjBipolar
)

type Nonlinear struct {
	dim       int       // hyperdimensional size D
	features  int       // original-space size n
	bandwidth float64   // kernel bandwidth: projections are divided by this
	proj      []float64 // features*dim projection, row k = B_k
	bias      []float64 // dim biases b_j in [0, 2π)
	center    []float64 // per-dimension constant −sin(b_j)/2 of the Eq. 1 product

	// packed is the bit-packed sign form of proj, non-nil exactly when every
	// projection entry is ±1 (ProjBipolar). The projection then runs as a
	// sign-selected add/sub kernel over 64×-smaller, cache-resident state —
	// bit-for-bit identical to the dense multiply (see hdc.SignMatrix).
	packed *hdc.SignMatrix
}

// NewNonlinear constructs an encoder for nFeatures-dimensional inputs into
// dim-dimensional hyperspace, drawing base hypervectors from rng. The
// kernel bandwidth defaults to 2√nFeatures, which for standardized inputs
// places the similarity length-scale at √n — the usual median-distance
// heuristic. Use NewNonlinearBandwidth to override.
func NewNonlinear(rng *rand.Rand, nFeatures, dim int) (*Nonlinear, error) {
	if nFeatures <= 0 {
		return nil, fmt.Errorf("encoding: nFeatures must be positive, got %d", nFeatures)
	}
	return NewNonlinearBandwidth(rng, nFeatures, dim, 2*math.Sqrt(float64(nFeatures)))
}

// NewNonlinearBandwidth constructs the Eq. 1 encoder with an explicit
// kernel bandwidth and Gaussian base hypervectors. Feature projections
// F·B_j are divided by the bandwidth before the trigonometric nonlinearity,
// so the induced similarity between two inputs decays as
// exp(−2‖Δx‖²/bandwidth²): larger bandwidths make the encoder smoother
// (more generalization), smaller ones sharper (more memorization).
func NewNonlinearBandwidth(rng *rand.Rand, nFeatures, dim int, bandwidth float64) (*Nonlinear, error) {
	return NewNonlinearProjection(rng, nFeatures, dim, bandwidth, ProjGaussian)
}

// NewNonlinearProjection constructs the Eq. 1 encoder with full control
// over the bandwidth and the base-hypervector distribution.
func NewNonlinearProjection(rng *rand.Rand, nFeatures, dim int, bandwidth float64, kind Projection) (*Nonlinear, error) {
	if nFeatures <= 0 {
		return nil, fmt.Errorf("encoding: nFeatures must be positive, got %d", nFeatures)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("encoding: dim must be positive, got %d", dim)
	}
	if bandwidth <= 0 {
		return nil, fmt.Errorf("encoding: bandwidth must be positive, got %v", bandwidth)
	}
	e := &Nonlinear{
		dim:       dim,
		features:  nFeatures,
		bandwidth: bandwidth,
		proj:      make([]float64, nFeatures*dim),
		bias:      make([]float64, dim),
	}
	switch kind {
	case ProjGaussian:
		for i := range e.proj {
			e.proj[i] = rng.NormFloat64()
		}
	case ProjBipolar:
		for i := range e.proj {
			if rng.Int63()&1 == 0 {
				e.proj[i] = 1
			} else {
				e.proj[i] = -1
			}
		}
		e.packed, _ = hdc.PackSignsFlat(e.proj, nFeatures, dim)
	default:
		return nil, fmt.Errorf("encoding: unknown projection kind %d", kind)
	}
	for j := range e.bias {
		e.bias[j] = rng.Float64() * 2 * math.Pi
	}
	e.center = centers(e.bias)
	return e, nil
}

// centers derives the per-dimension constants center_j = −sin(b_j)/2 of the
// Eq. 1 product from the biases. Construction and GobDecode both call it, so
// a saved encoder and its reloaded copy hold the same bits.
func centers(bias []float64) []float64 {
	c := make([]float64, len(bias))
	for j, b := range bias {
		c[j] = -sin(b) / 2
	}
	return c
}

// Dim returns the hyperdimensional size D.
func (e *Nonlinear) Dim() int { return e.dim }

// Features returns the expected input dimensionality n.
func (e *Nonlinear) Features() int { return e.features }

// Bandwidth returns the kernel bandwidth.
func (e *Nonlinear) Bandwidth() float64 { return e.bandwidth }

// Base returns the k-th base hypervector B_k (a copy).
func (e *Nonlinear) Base(k int) hdc.Vector {
	v := make(hdc.Vector, e.dim)
	copy(v, e.proj[k*e.dim:(k+1)*e.dim])
	return v
}

// project computes F·B_j for every j into out (length dim). When the
// projection is bipolar it runs as the bit-packed sign-selected add/sub
// kernel (hdc.SignMatrix.ProjectAccum) — zero float multiplies and 64× less
// projection-matrix traffic — and falls back to the dense multiply-add
// otherwise. Both kernels charge the identical Counter ops (the dense
// form), so the hwmodel cost estimates do not depend on which one ran.
func (e *Nonlinear) project(ctr *hdc.Counter, out []float64, x []float64) {
	if e.packed != nil {
		e.packed.ProjectAccum(ctr, out, x)
		return
	}
	hdc.ProjectDense(ctr, out, x, e.proj)
}

// nonlinearize applies the Eq. 1 trigonometric nonlinearity in place over
// the projection values: h_j ← cos(p_j + b_j)·sin(p_j) with p_j = h_j/bw,
// computed through the product-to-sum identity
//
//	cos(p + b)·sin(p) = ½·sin(2p + b) − ½·sin(b)
//
// whose second term is the precomputed per-dimension center_j = −½·sin(b_j):
// one trig evaluation per dimension instead of two, through the branch-free
// range-reduced sin (sin.go). The op accounting stays the canonical Eq. 1
// form (two trig evaluations) by the hwmodel cost contract — the identity is
// a software shortcut, not a cheaper algorithm for the hardware targets.
func (e *Nonlinear) nonlinearize(ctr *hdc.Counter, h []float64) {
	inv := 1 / e.bandwidth
	for j, p := range h {
		p *= inv
		h[j] = 0.5*sin(2*p+e.bias[j]) + e.center[j]
	}
	d := uint64(e.dim)
	ctr.Add(hdc.OpExp, 2*d) // cos + sin of the canonical form
	ctr.Add(hdc.OpFloatAdd, d)
	ctr.Add(hdc.OpFloatMul, d)
	ctr.Add(hdc.OpMemWrite, d)
}

// signAt returns +1 when v >= c and −1 otherwise (NaN included), as a
// compare-and-set rather than a branch: the outcome is a coin flip per
// dimension, so a branch would mispredict on about half the components.
func signAt(v, c float64) float64 {
	var neg uint64
	if !(v >= c) {
		neg = 1
	}
	return math.Float64frombits(0x3ff0000000000000 | neg<<63) // ±1.0
}

// quantizeInto writes the centered-sign quantization S_j = sign(raw_j −
// center_j) into dst (dst may alias raw for in-place quantization).
func (e *Nonlinear) quantizeInto(ctr *hdc.Counter, dst, raw []float64) {
	for j, v := range raw {
		dst[j] = signAt(v, e.center[j])
	}
	ctr.Add(hdc.OpCmp, uint64(e.dim))
}

// bipolarize fuses nonlinearize and quantizeInto into one in-place pass over
// a projection: h_j ← sign(½·sin(2p_j + b_j) + center_j − center_j) as ±1.
// The raw Eq. 1 value is computed with the exact expression nonlinearize
// stores and compared against center_j the way quantizeInto compares, just
// without materializing the intermediate — on amd64 the intermediate is the
// same 64-bit double whether it round-trips through memory or not, so the
// sign decisions are bit-identical to the two-pass path. One pass instead of
// two halves the memory traffic over h, which is most of what the two-pass
// form spends once the trig is L1-resident (see docs/PERFORMANCE.md "Flat
// spots"). Charges are the sum of the two passes it replaces.
func (e *Nonlinear) bipolarize(ctr *hdc.Counter, h []float64) {
	inv := 1 / e.bandwidth
	bias, center := e.bias, e.center
	for j, p := range h {
		p *= inv
		h[j] = signAt(0.5*sin(2*p+bias[j])+center[j], center[j])
	}
	d := uint64(e.dim)
	ctr.Add(hdc.OpExp, 2*d) // cos + sin of the canonical form
	ctr.Add(hdc.OpFloatAdd, d)
	ctr.Add(hdc.OpFloatMul, d)
	ctr.Add(hdc.OpMemWrite, d)
	ctr.Add(hdc.OpCmp, d)
}

// Encode maps x into the raw (real-valued) hypervector H of Eq. 1.
func (e *Nonlinear) Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	return encodeNew(e.dim, ctr, x, e.encodeInto)
}

// encodeInto is Encode writing into a caller-supplied D-length buffer.
func (e *Nonlinear) encodeInto(ctr *hdc.Counter, x []float64, dst hdc.Vector) error {
	if err := checkArgs(e.features, e.dim, x, dst); err != nil {
		return err
	}
	e.project(ctr, dst, x)
	e.nonlinearize(ctr, dst)
	return nil
}

// EncodeBipolarInto writes the quantized bipolar hypervector S ∈ {−1,+1}^D
// used throughout training in the paper into dst.
//
// The Eq. 1 product expands to H_j = ½·sin(2·F·B_j + b_j) − ½·sin(b_j);
// the second term is a constant shared by every input, so quantizing the raw
// value at zero would bias dimension j the same way for all inputs and leave
// unrelated encodings correlated. We therefore quantize relative to that
// per-dimension constant — S_j = sign(H_j − center_j) = sign(sin(2F·B_j+b_j))
// — which keeps unrelated inputs nearly orthogonal while preserving the
// local-similarity structure. The nonlinearity and the centered-sign
// threshold run as one fused pass (see bipolarize); bits of the result and
// op charges are identical to encodeInto followed by the separate
// quantization.
func (e *Nonlinear) EncodeBipolarInto(ctr *hdc.Counter, x []float64, dst hdc.Vector) error {
	if err := checkArgs(e.features, e.dim, x, dst); err != nil {
		return err
	}
	e.project(ctr, dst, x)
	e.bipolarize(ctr, dst)
	return nil
}

// EncodeBothInto writes the raw hypervector H and its centered-sign bipolar
// quantization S from a single projection pass.
func (e *Nonlinear) EncodeBothInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector) error {
	if err := e.encodeInto(ctr, x, raw); err != nil {
		return err
	}
	if err := checkDst(e.dim, bipolar); err != nil {
		return err
	}
	e.quantizeInto(ctr, bipolar, raw)
	return nil
}
