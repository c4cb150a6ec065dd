package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

func TestPartialFitLearnsStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	all := makeLinear(rng, 1200, 3, 0.05)
	train := all.Subset(seqInts(0, 1000))
	test := all.Subset(seqInts(1000, 1200))

	m := newModel(t, 3, 1000, Config{Models: 1, Epochs: 1, Seed: 2})
	// Stream every sample exactly once (single-pass training).
	for i := range train.X {
		if err := m.PartialFit(train.X[i], train.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Trained() {
		t.Fatal("PartialFit did not mark the model trained")
	}
	mse, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// Target variance ≈ 4 + noise; single-pass must capture most of it.
	if mse > 1.0 {
		t.Fatalf("single-pass test MSE %v too high", mse)
	}
}

func TestPartialFitMatchesEpochOrderedFit(t *testing.T) {
	// Streaming the whole set once must be equivalent in spirit to one
	// epoch: both leave a usable (non-zero) model.
	all := makeLinear(rand.New(rand.NewSource(3)), 100, 2, 0.05)
	m := newModel(t, 2, 256, Config{Models: 2, Epochs: 1, Seed: 4})
	for i := range all.X {
		if err := m.PartialFit(all.X[i], all.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if hv := m.ModelVector(0); isZero(hv) && isZero(m.ModelVector(1)) {
		t.Fatal("streaming left the models empty")
	}
}

func isZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func TestPartialFitValidatesInput(t *testing.T) {
	m := newModel(t, 3, 128, Config{Models: 1, Epochs: 1, Seed: 5})
	if err := m.PartialFit([]float64{1}, 0.5); err == nil {
		t.Fatal("wrong input length accepted")
	}
}

func TestRefreshShadowsStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	all := makeLinear(rng, 600, 3, 0.05)
	cfg := Config{Models: 2, Epochs: 1, Seed: 7, PredictMode: PredictBinaryBoth, ClusterMode: ClusterBinary}
	m := newModel(t, 3, 2000, cfg)
	for i := 0; i < 500; i++ {
		if err := m.PartialFit(all.X[i], all.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Without a refresh, the binary shadows still hold the initial state;
	// refresh and verify deployment predictions improve.
	test := all.Subset(seqInts(500, 600))
	before, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RefreshShadows(all.X[:200], all.Y[:200]); err != nil {
		t.Fatal(err)
	}
	after, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("shadow refresh should improve deployment MSE: before %v after %v", before, after)
	}
	// Mismatched calibration slices are rejected.
	if err := m.RefreshShadows(all.X[:5], all.Y[:4]); err == nil {
		t.Fatal("mismatched calibration slices accepted")
	}
	// nil samples keep current calibration but still re-pack shadows.
	if err := m.RefreshShadows(nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshShadowsRejectsBadInput checks that RefreshShadows validates
// every calibration sample before it changes any state: a length mismatch
// returns hdc.ErrDimensionMismatch, a bad row or target an error wrapping
// ErrInvalidInput, and the learned state and predictions stay bit for bit
// unchanged — shadows are not re-quantized and the calibration is not
// refit.
func TestRefreshShadowsRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	all := makeLinear(rng, 300, 3, 0.05)
	cfg := Config{Models: 2, Epochs: 1, Seed: 7, PredictMode: PredictBinaryBoth, ClusterMode: ClusterBinary}
	m := newModel(t, 3, 1000, cfg)
	// Train, refresh once, then stream more samples so the shadows are
	// stale: a refresh that ran before validation would show.
	for i := 0; i < 200; i++ {
		if err := m.PartialFit(all.X[i], all.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RefreshShadows(all.X[:50], all.Y[:50]); err != nil {
		t.Fatal(err)
	}
	for i := 200; i < 300; i++ {
		if err := m.PartialFit(all.X[i], all.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	fp := m.StateFingerprint()
	probe := all.X[7]
	before, err := m.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := all.X[:4], all.Y[:4]
	withRow := func(i int, x []float64) [][]float64 {
		bx := append([][]float64(nil), xs...)
		bx[i] = x
		return bx
	}
	for _, tc := range []struct {
		name string
		xs   [][]float64
		ys   []float64
		want error
	}{
		{"length mismatch", xs, ys[:3], hdc.ErrDimensionMismatch},
		{"rows without targets", xs, nil, hdc.ErrDimensionMismatch},
		{"+Inf target", xs, []float64{ys[0], ys[1], ys[2], math.Inf(1)}, ErrInvalidInput},
		{"NaN target", xs, []float64{math.NaN(), ys[1], ys[2], ys[3]}, ErrInvalidInput},
		{"NaN feature", withRow(1, []float64{0.1, math.NaN(), 0.3}), ys, ErrInvalidInput},
		{"-Inf feature", withRow(2, []float64{math.Inf(-1), 0, 0}), ys, ErrInvalidInput},
		{"nil row", withRow(0, nil), ys, ErrInvalidInput},
		{"short row", withRow(0, []float64{1, 2}), ys, ErrInvalidInput},
	} {
		err := m.RefreshShadows(tc.xs, tc.ys)
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if got := m.StateFingerprint(); got != fp {
			t.Fatalf("%s: rejected refresh changed the learned state", tc.name)
		}
		after, err := m.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(after) != math.Float64bits(before) {
			t.Fatalf("%s: rejected refresh moved a prediction %v -> %v", tc.name, before, after)
		}
	}
	// The same samples without the defect are accepted and do refresh.
	if err := m.RefreshShadows(xs, ys); err != nil {
		t.Fatal(err)
	}
	if m.StateFingerprint() == fp {
		t.Fatal("a valid refresh left the stale shadows in place")
	}
}
