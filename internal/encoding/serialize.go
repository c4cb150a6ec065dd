package encoding

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"reghd/internal/hdc"
)

// nonlinearState is the wire form of a Nonlinear encoder. The per-dimension
// centers are derived from the biases, so they are not serialized.
type nonlinearState struct {
	Dim, Features int
	Bandwidth     float64
	Proj, Bias    []float64
}

// GobEncode implements gob.GobEncoder.
func (e *Nonlinear) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	st := nonlinearState{
		Dim:       e.dim,
		Features:  e.features,
		Bandwidth: e.bandwidth,
		Proj:      e.proj,
		Bias:      e.bias,
	}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("encoding: serializing nonlinear encoder: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (e *Nonlinear) GobDecode(data []byte) error {
	var st nonlinearState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("encoding: deserializing nonlinear encoder: %w", err)
	}
	switch {
	case st.Dim <= 0 || st.Features <= 0 || st.Bandwidth <= 0:
		return fmt.Errorf("encoding: invalid nonlinear encoder state (dim=%d features=%d bw=%v)", st.Dim, st.Features, st.Bandwidth)
	case len(st.Proj) != st.Features*st.Dim:
		return fmt.Errorf("encoding: projection length %d, want %d", len(st.Proj), st.Features*st.Dim)
	case len(st.Bias) != st.Dim:
		return fmt.Errorf("encoding: bias length %d, want %d", len(st.Bias), st.Dim)
	}
	e.dim = st.Dim
	e.features = st.Features
	e.bandwidth = st.Bandwidth
	e.proj = st.Proj
	e.bias = st.Bias
	e.center = centers(e.bias)
	// Re-derive the bit-packed projection: when every entry is ±1 (bipolar
	// base hypervectors) the restored encoder runs the same sign-selected
	// add/sub kernel as the one that was saved.
	if sm, ok := hdc.PackSignsFlat(e.proj, e.features, e.dim); ok {
		e.packed = sm
	} else {
		e.packed = nil
	}
	return nil
}

// idLevelState is the wire form of an IDLevel encoder.
type idLevelState struct {
	Dim, Features, Levels int
	Lo, Hi                float64
	IDs, Lvls             []hdc.Vector
}

// GobEncode implements gob.GobEncoder.
func (e *IDLevel) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	st := idLevelState{
		Dim: e.dim, Features: e.features, Levels: e.levels,
		Lo: e.lo, Hi: e.hi, IDs: e.ids, Lvls: e.lvls,
	}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("encoding: serializing id-level encoder: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (e *IDLevel) GobDecode(data []byte) error {
	var st idLevelState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("encoding: deserializing id-level encoder: %w", err)
	}
	switch {
	case st.Dim <= 0 || st.Features <= 0 || st.Levels < 2 || !(st.Lo < st.Hi) || math.IsInf(st.Hi-st.Lo, 0):
		return fmt.Errorf("encoding: invalid id-level encoder state")
	case len(st.IDs) != st.Features || len(st.Lvls) != st.Levels:
		return fmt.Errorf("encoding: id-level table sizes %d/%d, want %d/%d", len(st.IDs), len(st.Lvls), st.Features, st.Levels)
	}
	e.dim = st.Dim
	e.features = st.Features
	e.levels = st.Levels
	e.lo, e.hi = st.Lo, st.Hi
	e.ids = st.IDs
	e.lvls = st.Lvls
	return nil
}

// sequenceState is the wire form of a Sequence encoder; the per-step base
// encoder travels as an interface value.
type sequenceState struct {
	Base   Encoder
	Window int
}

// GobEncode implements gob.GobEncoder.
func (e *Sequence) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(sequenceState{Base: e.base, Window: e.window}); err != nil {
		return nil, fmt.Errorf("encoding: serializing sequence encoder: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (e *Sequence) GobDecode(data []byte) error {
	var st sequenceState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("encoding: deserializing sequence encoder: %w", err)
	}
	s, err := NewSequence(st.Base, st.Window)
	if err != nil {
		return err
	}
	*e = *s
	return nil
}

func init() {
	// Register the concrete encoders so they can travel inside an
	// encoding.Encoder interface field.
	gob.Register(&Nonlinear{})
	gob.Register(&IDLevel{})
	gob.Register(&Sequence{})
}
