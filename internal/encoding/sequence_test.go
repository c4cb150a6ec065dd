package encoding

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

func seqBase(t *testing.T, feats, dim int) Encoder {
	t.Helper()
	e, err := NewNonlinearBandwidth(rand.New(rand.NewSource(21)), feats, dim, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewSequenceValidation(t *testing.T) {
	base := seqBase(t, 2, 128)
	if _, err := NewSequence(nil, 3); err == nil {
		t.Fatal("nil base accepted")
	}
	if _, err := NewSequence(base, 0); err == nil {
		t.Fatal("zero window accepted")
	}
	s, err := NewSequence(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 128 || s.Features() != 8 || s.Window() != 4 {
		t.Fatalf("accessors wrong: D=%d n=%d W=%d", s.Dim(), s.Features(), s.Window())
	}
}

func TestSequenceInputLengthChecked(t *testing.T) {
	s, _ := NewSequence(seqBase(t, 2, 128), 3)
	if _, err := s.Encode(nil, make([]float64, 5)); err == nil {
		t.Fatal("wrong window length accepted")
	}
	if err := s.EncodeBipolarInto(nil, make([]float64, 7), hdc.NewVector(128)); err == nil {
		t.Fatal("bipolar accepted wrong length")
	}
	if err := s.EncodeBothInto(nil, make([]float64, 1), hdc.NewVector(128), hdc.NewVector(128)); err == nil {
		t.Fatal("both-forms accepted wrong length")
	}
}

func TestSequenceOrderSensitive(t *testing.T) {
	// Swapping two window steps must change the encoding substantially,
	// while the identical window stays identical.
	s, _ := NewSequence(seqBase(t, 1, 8000), 2)
	a := []float64{0.3, -0.8}
	swapped := []float64{-0.8, 0.3}
	ha := bipolarOf(t, s, nil, a)
	hb := bipolarOf(t, s, nil, append([]float64(nil), a...))
	hs := bipolarOf(t, s, nil, swapped)
	if math.Abs(hdc.Cosine(nil, ha, hb)-1) > 1e-12 {
		t.Fatal("identical windows should encode identically")
	}
	if c := hdc.Cosine(nil, ha, hs); c > 0.5 {
		t.Fatalf("swapped window too similar: %v", c)
	}
}

func TestSequenceSimilarityPreserving(t *testing.T) {
	// Windows that agree on most steps stay similar.
	s, _ := NewSequence(seqBase(t, 1, 8000), 4)
	base := []float64{0.1, -0.2, 0.5, 0.9}
	near := []float64{0.1, -0.2, 0.5, 0.85}
	far := []float64{-0.9, 0.8, -0.5, -0.1}
	hb := bipolarOf(t, s, nil, base)
	hn := bipolarOf(t, s, nil, near)
	hf := bipolarOf(t, s, nil, far)
	if hdc.Cosine(nil, hb, hn) <= hdc.Cosine(nil, hb, hf) {
		t.Fatal("sequence encoding not similarity preserving")
	}
	if hdc.Cosine(nil, hb, hn) < 0.5 {
		t.Fatalf("one-step change lost too much similarity: %v", hdc.Cosine(nil, hb, hn))
	}
}

func TestSequenceBinaryMatchesBipolar(t *testing.T) {
	s, _ := NewSequence(seqBase(t, 2, 300), 3)
	x := []float64{0.1, 0.2, -0.3, 0.4, 0.5, -0.6}
	bin := hdc.Pack(nil, bipolarOf(t, s, nil, x))
	raw, bip2 := hdc.NewVector(300), hdc.NewVector(300)
	if err := s.EncodeBothInto(nil, x, raw, bip2); err != nil {
		t.Fatal(err)
	}
	for j := range bip2 {
		want := 1.0
		if raw[j] < 0 {
			want = -1
		}
		if bip2[j] != want {
			t.Fatal("EncodeBothInto bipolar is not sign of raw")
		}
		if bin.Bit(j) != (want > 0) {
			t.Fatalf("component %d: binary bit disagrees with the sign of raw", j)
		}
	}
}

func TestSequenceWindowOneMatchesBase(t *testing.T) {
	base := seqBase(t, 3, 500)
	s, _ := NewSequence(base, 1)
	x := []float64{0.4, -0.1, 0.7}
	want := bipolarOf(t, base, nil, x)
	got := bipolarOf(t, s, nil, x)
	if math.Abs(hdc.Cosine(nil, want, got)-1) > 1e-12 {
		t.Fatal("window-1 sequence should match the base encoder")
	}
}
