package encoding

import (
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

func TestNewIDLevelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		n, d, levels int
		lo, hi       float64
	}{
		{0, 10, 4, 0, 1},
		{3, 0, 4, 0, 1},
		{3, 10, 1, 0, 1},
		{3, 10, 4, 1, 1},
		{3, 10, 4, 2, 1},
		{3, 10, 4, math.NaN(), 1},
		{3, 10, 4, math.Inf(-1), 1},
		// A width that overflows float64 would quantize finite inputs
		// near hi to level int(Inf/Inf).
		{3, 10, 4, -1e308, 1e308},
	}
	for i, c := range cases {
		if _, err := NewIDLevel(rng, c.n, c.d, c.levels, c.lo, c.hi); err == nil {
			t.Fatalf("case %d: invalid parameters accepted", i)
		}
	}
	e, err := NewIDLevel(rng, 3, 100, 8, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Dim() != 100 || e.Features() != 3 || e.Levels() != 8 {
		t.Fatalf("accessors wrong: %d %d %d", e.Dim(), e.Features(), e.Levels())
	}
}

func TestIDLevelQuantizeClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := NewIDLevel(rng, 1, 64, 10, 0, 1)
	if e.quantize(-5) != 0 {
		t.Fatal("below-range value should clamp to level 0")
	}
	if e.quantize(99) != 9 {
		t.Fatal("above-range value should clamp to top level")
	}
	if e.quantize(0.55) != 5 {
		t.Fatalf("quantize(0.55) = %d, want 5", e.quantize(0.55))
	}
}

func TestIDLevelAdjacentLevelsSimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, _ := NewIDLevel(rng, 1, 10000, 10, 0, 1)
	adj := hdc.Cosine(nil, e.lvls[4], e.lvls[5])
	extreme := hdc.Cosine(nil, e.lvls[0], e.lvls[9])
	if adj < 0.7 {
		t.Fatalf("adjacent levels similarity %v too low", adj)
	}
	if math.Abs(extreme) > 0.15 {
		t.Fatalf("extreme levels similarity %v, want ≈ 0", extreme)
	}
}

func TestIDLevelSimilarityPreserving(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e, _ := NewIDLevel(rng, 5, 8000, 32, -2, 2)
	base := []float64{0.1, -0.5, 1.0, 0.0, -1.2}
	near := []float64{0.15, -0.45, 1.05, 0.05, -1.15}
	far := []float64{-1.8, 1.9, -1.5, 1.7, 1.9}
	hb := bipolarOf(t, e, nil, base)
	hn := bipolarOf(t, e, nil, near)
	hf := bipolarOf(t, e, nil, far)
	if hdc.Cosine(nil, hb, hn) <= hdc.Cosine(nil, hb, hf) {
		t.Fatal("ID-level encoding not similarity preserving")
	}
}

func TestIDLevelInputLengthChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, _ := NewIDLevel(rng, 4, 128, 8, 0, 1)
	if _, err := e.Encode(nil, []float64{1}); err == nil {
		t.Fatal("accepted wrong input length")
	}
	if err := e.EncodeBipolarInto(nil, []float64{1, 2, 3, 4, 5}, hdc.NewVector(128)); err == nil {
		t.Fatal("bipolar accepted wrong length")
	}
	if err := e.EncodeBothInto(nil, []float64{1}, hdc.NewVector(128), hdc.NewVector(128)); err == nil {
		t.Fatal("both-forms accepted wrong length")
	}
}

// TestIDLevelRejectsNaN pins the NaN input check: NaN has no quantization
// level, so every method returns an error instead of indexing the level
// table with int(NaN). ±Inf still clamp to the end levels.
func TestIDLevelRejectsNaN(t *testing.T) {
	e, _ := NewIDLevel(rand.New(rand.NewSource(7)), 3, 128, 8, 0, 1)
	nan := []float64{0.5, math.NaN(), 0.2}
	if _, err := e.Encode(nil, nan); err == nil {
		t.Fatal("Encode accepted a NaN feature")
	}
	if err := e.EncodeBipolarInto(nil, nan, hdc.NewVector(128)); err == nil {
		t.Fatal("EncodeBipolarInto accepted a NaN feature")
	}
	if err := e.EncodeBothInto(nil, nan, hdc.NewVector(128), hdc.NewVector(128)); err == nil {
		t.Fatal("EncodeBothInto accepted a NaN feature")
	}
	inf, err := e.Encode(nil, []float64{math.Inf(-1), math.Inf(1), 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ends, _ := e.Encode(nil, []float64{0, 1, 0.5})
	for j := range inf {
		if inf[j] != ends[j] {
			t.Fatalf("±Inf did not clamp to the end levels at %d", j)
		}
	}
}

func TestIDLevelBinaryMatchesBipolar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e, _ := NewIDLevel(rng, 3, 200, 16, 0, 1)
	x := []float64{0.2, 0.9, 0.5}
	raw, _ := e.Encode(nil, x)
	bin := hdc.Pack(nil, bipolarOf(t, e, nil, x))
	for j := range raw {
		if bin.Bit(j) != (raw[j] >= 0) {
			t.Fatalf("component %d: raw %v, bit %v", j, raw[j], bin.Bit(j))
		}
	}
}

func TestIDLevelDeterministic(t *testing.T) {
	x := []float64{0.3, 0.6}
	e1, _ := NewIDLevel(rand.New(rand.NewSource(11)), 2, 300, 8, 0, 1)
	e2, _ := NewIDLevel(rand.New(rand.NewSource(11)), 2, 300, 8, 0, 1)
	h1, _ := e1.Encode(nil, x)
	h2, _ := e2.Encode(nil, x)
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatal("same seed produced different ID-level encodings")
		}
	}
}
