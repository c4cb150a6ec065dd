package encoding

import (
	"fmt"

	"reghd/internal/hdc"
)

// Sequence encodes a sliding window of W time steps, each an n-feature
// vector, into a single hypervector: every step is encoded with a shared
// base encoder and rotated by its position before bundling,
//
//	H = Σ_t ρ^t(E(x_t))
//
// the classic HD n-gram construction. Rotation (cyclic permutation) makes
// the encoding order-sensitive — the same step content at a different lag
// lands in a nearly orthogonal subspace — while bundling keeps it similar
// to windows that agree at most positions. Sequence satisfies Encoder over
// the flattened window (Features() = W·n), so it composes directly with
// the RegHD model for time-series forecasting, the IoT workload the
// paper's introduction motivates.
type Sequence struct {
	base   Encoder
	window int
}

// NewSequence wraps a per-step encoder into a window encoder.
func NewSequence(base Encoder, window int) (*Sequence, error) {
	if base == nil {
		return nil, fmt.Errorf("encoding: nil base encoder")
	}
	if window < 1 {
		return nil, fmt.Errorf("encoding: window must be >= 1, got %d", window)
	}
	return &Sequence{base: base, window: window}, nil
}

// Dim returns the hyperdimensional size D.
func (e *Sequence) Dim() int { return e.base.Dim() }

// Features returns the flattened input size W·n.
func (e *Sequence) Features() int { return e.window * e.base.Features() }

// Window returns the number of time steps W.
func (e *Sequence) Window() int { return e.window }

// Encode maps the flattened window into the bundled hypervector.
func (e *Sequence) Encode(ctr *hdc.Counter, x []float64) (hdc.Vector, error) {
	return encodeNew(e.Dim(), ctr, x, e.encodeInto)
}

// encodeInto is Encode writing into a caller-supplied D-length buffer. Each
// step's bipolar encoding goes through one per-call step buffer.
func (e *Sequence) encodeInto(ctr *hdc.Counter, x []float64, out hdc.Vector) error {
	if err := checkArgs(e.Features(), e.Dim(), x, out); err != nil {
		return err
	}
	clear(out)
	n := e.base.Features()
	step := hdc.NewVector(e.Dim())
	for t := 0; t < e.window; t++ {
		if err := e.base.EncodeBipolarInto(ctr, x[t*n:(t+1)*n], step); err != nil {
			return fmt.Errorf("encoding: window step %d: %w", t, err)
		}
		hdc.Add(ctr, out, hdc.Permute(ctr, step, t))
	}
	return nil
}

// EncodeBipolarInto writes the window's sign(H) ∈ {−1,+1}^D into dst.
func (e *Sequence) EncodeBipolarInto(ctr *hdc.Counter, x []float64, dst hdc.Vector) error {
	if err := e.encodeInto(ctr, x, dst); err != nil {
		return err
	}
	hdc.SignInto(ctr, dst, dst)
	return nil
}

// EncodeBothInto writes the raw bundled window encoding and its sign
// quantization.
func (e *Sequence) EncodeBothInto(ctr *hdc.Counter, x []float64, raw, bipolar hdc.Vector) error {
	return encodeBothInto(e.Dim(), ctr, x, raw, bipolar, e.encodeInto)
}
