package encoding

import "reghd/internal/hdc"

// Encoder is the contract every RegHD encoder satisfies: a similarity-
// preserving map from n-dimensional feature vectors into D-dimensional
// hyperspace, available in raw, bipolar-quantized, and bit-packed forms.
type Encoder interface {
	// Dim returns the hyperdimensional size D.
	Dim() int
	// Features returns the expected input dimensionality n.
	Features() int
	// Encode returns the raw real-valued hypervector.
	Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error)
	// EncodeBipolar returns the sign-quantized hypervector in {−1,+1}^D.
	EncodeBipolar(ctr *hdc.Counter, x []float64) (hdc.Vector, error)
	// EncodeBinary returns the bit-packed quantized hypervector.
	EncodeBinary(ctr *hdc.Counter, x []float64) (*hdc.Binary, error)
	// EncodeBoth returns the raw and the bipolar hypervector from a single
	// encoding pass, for callers that need both representations.
	EncodeBoth(ctr *hdc.Counter, x []float64) (raw, bipolar hdc.Vector, err error)
}

// BufferedEncoder is the optional zero-allocation contract fast encoders
// provide on top of Encoder: the representations prediction needs can be
// written into caller-supplied buffers, so hot prediction paths pool their
// D-length encode scratch (internal/core's prediction scratch does exactly
// that) instead of allocating per call. Callers type-assert and fall back to the
// allocating Encoder methods when the encoder does not implement it.
type BufferedEncoder interface {
	Encoder
	// EncodeBipolarInto writes the sign-quantized hypervector into dst.
	EncodeBipolarInto(ctr *hdc.Counter, x []float64, dst hdc.Vector) error
	// EncodeBothInto writes the raw and bipolar hypervectors in one pass.
	EncodeBothInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector) error
}

var (
	_ Encoder         = (*Nonlinear)(nil)
	_ Encoder         = (*IDLevel)(nil)
	_ BufferedEncoder = (*Nonlinear)(nil)
)
