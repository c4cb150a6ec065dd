package encoding

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestNonlinearGobRoundTrip(t *testing.T) {
	e1, err := NewNonlinearBandwidth(rand.New(rand.NewSource(1)), 5, 300, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e1); err != nil {
		t.Fatal(err)
	}
	e2 := &Nonlinear{}
	if err := gob.NewDecoder(&buf).Decode(e2); err != nil {
		t.Fatal(err)
	}
	if e2.Dim() != 300 || e2.Features() != 5 || e2.Bandwidth() != 1.5 {
		t.Fatalf("restored shape wrong: %d/%d/%v", e2.Dim(), e2.Features(), e2.Bandwidth())
	}
	x := []float64{0.1, -0.2, 0.3, 0.4, -0.5}
	a := bipolarOf(t, e1, nil, x)
	b := bipolarOf(t, e2, nil, x)
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("restored encoder differs (centers not rebuilt?)")
		}
	}
	raw1, _ := e1.Encode(nil, x)
	raw2, _ := e2.Encode(nil, x)
	for j := range raw1 {
		if raw1[j] != raw2[j] {
			t.Fatal("restored raw encoding differs")
		}
	}
}

func TestNonlinearGobRejectsCorrupt(t *testing.T) {
	e := &Nonlinear{}
	if err := e.GobDecode([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Structurally inconsistent state.
	var buf bytes.Buffer
	bad := nonlinearState{Dim: 10, Features: 2, Bandwidth: 1, Proj: make([]float64, 5), Bias: make([]float64, 10)}
	if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
		t.Fatal(err)
	}
	if err := e.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("wrong projection length accepted")
	}
	buf.Reset()
	bad2 := nonlinearState{Dim: 10, Features: 2, Bandwidth: 1, Proj: make([]float64, 20), Bias: make([]float64, 9)}
	if err := gob.NewEncoder(&buf).Encode(bad2); err != nil {
		t.Fatal(err)
	}
	if err := e.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("wrong bias length accepted")
	}
	buf.Reset()
	bad3 := nonlinearState{Dim: 0}
	if err := gob.NewEncoder(&buf).Encode(bad3); err != nil {
		t.Fatal(err)
	}
	if err := e.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("zero-dim state accepted")
	}
}

func TestIDLevelGobRoundTrip(t *testing.T) {
	e1, err := NewIDLevel(rand.New(rand.NewSource(2)), 3, 200, 8, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e1); err != nil {
		t.Fatal(err)
	}
	e2 := &IDLevel{}
	if err := gob.NewDecoder(&buf).Decode(e2); err != nil {
		t.Fatal(err)
	}
	if e2.Dim() != 200 || e2.Features() != 3 || e2.Levels() != 8 {
		t.Fatal("restored id-level shape wrong")
	}
	x := []float64{0.2, -0.7, 0.9}
	a := bipolarOf(t, e1, nil, x)
	b := bipolarOf(t, e2, nil, x)
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("restored id-level encoder differs")
		}
	}
}

func TestIDLevelGobRejectsCorrupt(t *testing.T) {
	e := &IDLevel{}
	if err := e.GobDecode([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	bad := idLevelState{Dim: 10, Features: 2, Levels: 4, Lo: 0, Hi: 1, IDs: nil, Lvls: nil}
	if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
		t.Fatal(err)
	}
	if err := e.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("missing tables accepted")
	}
	buf.Reset()
	bad2 := idLevelState{Dim: 10, Features: 2, Levels: 1}
	if err := gob.NewEncoder(&buf).Encode(bad2); err != nil {
		t.Fatal(err)
	}
	if err := e.GobDecode(buf.Bytes()); err == nil {
		t.Fatal("single level accepted")
	}
}

func TestEncoderInterfaceGobRoundTrip(t *testing.T) {
	// Encoders must survive travel inside an Encoder interface value (the
	// model serialization path).
	e1, _ := NewNonlinear(rand.New(rand.NewSource(3)), 4, 128)
	var enc Encoder = e1
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&enc); err != nil {
		t.Fatal(err)
	}
	var back Encoder
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Dim() != 128 || back.Features() != 4 {
		t.Fatal("interface round trip lost shape")
	}
}

// TestSequenceGobRoundTrip sends Sequence encoders over both base kinds
// through an Encoder interface value: the restored window encodes
// bit-identically, and a state without a base or with a zero window is
// rejected.
func TestSequenceGobRoundTrip(t *testing.T) {
	nl, _ := NewNonlinear(rand.New(rand.NewSource(5)), 2, 256)
	idl, _ := NewIDLevel(rand.New(rand.NewSource(6)), 2, 256, 8, -1, 1)
	x := []float64{0.3, -0.2, 0.8, 0.1, -0.6, 0.4}
	for _, base := range []Encoder{nl, idl} {
		s, err := NewSequence(base, 3)
		if err != nil {
			t.Fatal(err)
		}
		var enc Encoder = s
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&enc); err != nil {
			t.Fatal(err)
		}
		var back Encoder
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if back.Dim() != 256 || back.Features() != 6 || back.(*Sequence).Window() != 3 {
			t.Fatal("sequence round trip lost shape")
		}
		h1, _ := s.Encode(nil, x)
		h2, _ := back.Encode(nil, x)
		for j := range h1 {
			if math.Float64bits(h1[j]) != math.Float64bits(h2[j]) {
				t.Fatalf("restored sequence encoder diverges at %d", j)
			}
		}
	}
	for _, bad := range []sequenceState{{Base: nil, Window: 2}, {Base: nl, Window: 0}} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(bad); err != nil {
			t.Fatal(err)
		}
		var s Sequence
		if err := s.GobDecode(buf.Bytes()); err == nil {
			t.Fatalf("corrupt sequence state %+v accepted", bad)
		}
	}
}
