package encoding

import (
	"fmt"
	"math"
	"math/rand"

	"reghd/internal/hdc"
)

// IDLevel is the classic record-based HD encoder (the "different encoding
// methods depending on data types" the paper cites in §2.2): each feature
// position k gets a random ID hypervector, each quantized feature value gets
// a level hypervector, and the encoding bundles the ID⊙level bindings:
//
//	H = Σ_k ID_k ⊙ L(quantize(x_k))
//
// Level hypervectors are built by progressive bit flips so that nearby
// quantization levels stay similar — the similarity-preserving property.
// IDLevel serves time-series/sensor-style inputs and is used in ablations
// against the Nonlinear encoder.
type IDLevel struct {
	dim      int
	features int
	levels   int
	lo, hi   float64 // quantization range for feature values
	ids      []hdc.Vector
	lvls     []hdc.Vector
}

// NewIDLevel constructs an ID-level encoder with the given number of
// quantization levels over the value range [lo, hi].
func NewIDLevel(rng *rand.Rand, nFeatures, dim, levels int, lo, hi float64) (*IDLevel, error) {
	switch {
	case nFeatures <= 0:
		return nil, fmt.Errorf("encoding: nFeatures must be positive, got %d", nFeatures)
	case dim <= 0:
		return nil, fmt.Errorf("encoding: dim must be positive, got %d", dim)
	case levels < 2:
		return nil, fmt.Errorf("encoding: need at least 2 levels, got %d", levels)
	case !(lo < hi) || math.IsInf(hi-lo, 0):
		return nil, fmt.Errorf("encoding: invalid level range [%v, %v]", lo, hi)
	}
	e := &IDLevel{
		dim:      dim,
		features: nFeatures,
		levels:   levels,
		lo:       lo,
		hi:       hi,
		ids:      make([]hdc.Vector, nFeatures),
		lvls:     make([]hdc.Vector, levels),
	}
	for k := range e.ids {
		e.ids[k] = hdc.RandomBipolar(rng, dim)
	}
	// Level 0 is random; each subsequent level flips dim/(2·(levels−1))
	// fresh random positions, so D/2 positions flip across the whole chain:
	// L(0) and L(levels−1) end up nearly orthogonal (cosine ≈ 0) while
	// adjacent levels are nearly identical.
	e.lvls[0] = hdc.RandomBipolar(rng, dim)
	perm := rng.Perm(dim)
	flipsPerLevel := dim / (2 * (levels - 1))
	next := 0
	for l := 1; l < levels; l++ {
		v := e.lvls[l-1].Clone()
		for i := 0; i < flipsPerLevel && next < dim; i++ {
			v[perm[next]] = -v[perm[next]]
			next++
		}
		e.lvls[l] = v
	}
	return e, nil
}

// Dim returns the hyperdimensional size D.
func (e *IDLevel) Dim() int { return e.dim }

// Features returns the expected input dimensionality.
func (e *IDLevel) Features() int { return e.features }

// Levels returns the number of quantization levels.
func (e *IDLevel) Levels() int { return e.levels }

// quantize maps a feature value to a level index, clamping out-of-range
// values (±Inf included) to the boundary levels. encodeInto has already
// rejected NaN, which no level represents.
func (e *IDLevel) quantize(x float64) int {
	if x <= e.lo {
		return 0
	}
	if x >= e.hi {
		return e.levels - 1
	}
	l := int(float64(e.levels) * (x - e.lo) / (e.hi - e.lo))
	if l >= e.levels {
		l = e.levels - 1
	}
	return l
}

// Encode maps x into the bundled (integer-valued) hypervector.
func (e *IDLevel) Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	return encodeNew(e.dim, ctr, x, e.encodeInto)
}

// encodeInto is Encode writing into a caller-supplied D-length buffer.
func (e *IDLevel) encodeInto(ctr *hdc.Counter, x []float64, h hdc.Vector) error {
	if err := checkArgs(e.features, e.dim, x, h); err != nil {
		return err
	}
	for k, v := range x {
		if math.IsNaN(v) {
			return fmt.Errorf("encoding: feature %d is NaN, which has no quantization level", k)
		}
	}
	clear(h)
	for k, v := range x {
		lvl := e.lvls[e.quantize(v)]
		id := e.ids[k]
		for j := range h {
			h[j] += id[j] * lvl[j] // binding is elementwise multiply for bipolar vectors
		}
	}
	n := uint64(e.features) * uint64(e.dim)
	ctr.Add(hdc.OpFloatMul, n)
	ctr.Add(hdc.OpFloatAdd, n)
	ctr.Add(hdc.OpCmp, uint64(e.features)) // quantization
	ctr.Add(hdc.OpMemRead, 2*n)
	ctr.Add(hdc.OpMemWrite, uint64(e.dim))
	return nil
}

// EncodeBipolarInto writes sign(H) ∈ {−1,+1}^D into dst, charging one
// compare per dimension for the in-place threshold.
func (e *IDLevel) EncodeBipolarInto(ctr *hdc.Counter, x []float64, dst hdc.Vector) error {
	if err := e.encodeInto(ctr, x, dst); err != nil {
		return err
	}
	hdc.SignInto(nil, dst, dst)
	ctr.Add(hdc.OpCmp, uint64(e.dim))
	return nil
}

// EncodeBothInto writes the raw bundled hypervector and its sign
// quantization from a single encoding pass.
func (e *IDLevel) EncodeBothInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector) error {
	return encodeBothInto(e.dim, ctr, x, raw, bipolar, e.encodeInto)
}
