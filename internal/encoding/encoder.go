package encoding

import (
	"fmt"

	"reghd/internal/hdc"
)

// Encoder is the contract every RegHD encoder satisfies: a similarity-
// preserving map from n-dimensional feature vectors into D-dimensional
// hyperspace. The representations prediction and training consume are
// written into D-length buffers the caller supplies, so hot paths encode
// into pooled scratch instead of allocating per call.
type Encoder interface {
	// Dim returns the hyperdimensional size D.
	Dim() int
	// Features returns the expected input dimensionality n.
	Features() int
	// Encode returns a freshly allocated raw real-valued hypervector.
	Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error)
	// EncodeBipolarInto writes the sign-quantized hypervector in
	// {−1,+1}^D into dst.
	EncodeBipolarInto(ctr *hdc.Counter, x []float64, dst hdc.Vector) error
	// EncodeBothInto writes the raw hypervector and its sign quantization
	// from one encoding pass; the raw output is bit-identical to Encode's
	// and the bipolar output to EncodeBipolarInto's.
	EncodeBothInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector) error
}

var (
	_ Encoder = (*Nonlinear)(nil)
	_ Encoder = (*IDLevel)(nil)
	_ Encoder = (*Sequence)(nil)
)

// encodeFunc is an encoder's raw encode into a caller-supplied D-length
// buffer.
type encodeFunc func(ctr *hdc.Counter, x []float64, dst hdc.Vector) error

// encodeNew is the allocating Encode over an encoder's raw encodeFunc.
func encodeNew(dim int, ctr *hdc.Counter, x []float64, into encodeFunc) (hdc.Vector, error) {
	h := make(hdc.Vector, dim)
	if err := into(ctr, x, h); err != nil {
		return nil, err
	}
	return h, nil
}

// encodeBothInto is EncodeBothInto for encoders whose bipolar form is the
// plain sign of the raw encoding, charged as hdc.SignInto.
func encodeBothInto(dim int, ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector, into encodeFunc) error {
	if err := into(ctr, x, raw); err != nil {
		return err
	}
	if err := checkDst(dim, bipolar); err != nil {
		return err
	}
	hdc.SignInto(ctr, bipolar, raw)
	return nil
}

// checkArgs validates an input row against the encoder's input length n
// and a caller-supplied destination buffer against its dimension D.
func checkArgs(features, dim int, x []float64, dst hdc.Vector) error {
	if len(x) != features {
		return fmt.Errorf("encoding: input has %d values, encoder expects %d", len(x), features)
	}
	return checkDst(dim, dst)
}

// checkDst validates a caller-supplied destination buffer against the
// encoder's dimension D.
func checkDst(dim int, dst hdc.Vector) error {
	if len(dst) != dim {
		return fmt.Errorf("encoding: destination has dim %d, encoder produces %d", len(dst), dim)
	}
	return nil
}
