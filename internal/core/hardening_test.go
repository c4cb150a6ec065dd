package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reghd/internal/hdc"
)

// trainedSmall returns a small trained multi-model fixture.
func trainedSmall(t *testing.T, cfg Config) *Model {
	t.Helper()
	all := makeLinear(rand.New(rand.NewSource(7)), 150, 3, 0.05)
	m := newModel(t, 3, 256, cfg)
	if _, err := m.Fit(all); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPartialFitRejectsInvalidSamples(t *testing.T) {
	m := trainedSmall(t, Config{Models: 4, Epochs: 3, Seed: 1})
	before, err := m.Predict([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		x    []float64
		y    float64
	}{
		{"nan-target", []float64{0.1, 0.2, 0.3}, math.NaN()},
		{"inf-target", []float64{0.1, 0.2, 0.3}, math.Inf(1)},
		{"nan-feature", []float64{0.1, math.NaN(), 0.3}, 1},
		{"inf-feature", []float64{math.Inf(-1), 0.2, 0.3}, 1},
		{"short-row", []float64{0.1, 0.2}, 1},
		{"long-row", []float64{0.1, 0.2, 0.3, 0.4}, 1},
		{"nil-row", nil, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := m.PartialFit(tc.x, tc.y)
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("want ErrInvalidInput, got %v", err)
			}
		})
	}
	// The rejected samples must not have touched any learned state.
	after, err := m.Predict([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("rejected samples changed the model: %v -> %v", before, after)
	}
}

func TestValidateRow(t *testing.T) {
	if err := ValidateRow([]float64{1, 2}, 2); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := ValidateRow([]float64{1, 2}, 0); err != nil {
		t.Fatalf("length check not skipped for features=0: %v", err)
	}
	if err := ValidateRow([]float64{1, 2}, 3); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("want ErrInvalidInput for wrong arity, got %v", err)
	}
	if err := ValidateTarget(2.5); err != nil {
		t.Fatalf("valid target rejected: %v", err)
	}
}

func TestSaveFileAtomic(t *testing.T) {
	m := trainedSmall(t, Config{Models: 2, Epochs: 3, Seed: 2})
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")

	// First save creates the file; a second save must replace it atomically
	// and leave no temp litter behind.
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := m.PartialFit([]float64{0.1, 0.2, 0.3}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := m.Predict([]float64{0.1, 0.2, 0.3})
	got, err := back.Predict([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("reloaded checkpoint predicts differently: %v vs %v", want, got)
	}
}

func TestLoadCorruptFile(t *testing.T) {
	m := trainedSmall(t, Config{Models: 2, Epochs: 3, Seed: 3})
	dir := t.TempDir()
	good := filepath.Join(dir, "model.gob")
	if err := m.SaveFile(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		bytes []byte
	}{
		{"truncated", raw[:len(raw)/2]},
		{"empty", nil},
		{"garbage", []byte("not a gob model at all")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, tc.name)
			if err := os.WriteFile(bad, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadFile(bad)
			if !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("want ErrCorruptModel, got %v", err)
			}
		})
	}

	// A well-formed checkpoint whose binary cluster shadows do not fit the
	// model is corrupt too, not a panic while building the shadow slab.
	bm := trainedSmall(t, Config{Models: 2, Epochs: 1, Seed: 3, ClusterMode: ClusterBinary})
	bm.clustersBin[1] = hdc.NewBinary(bm.dim + 1)
	var buf bytes.Buffer
	if err := bm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("mismatched cluster shadows: want ErrCorruptModel, got %v", err)
	}

	// A missing file is an I/O error, not a corrupt checkpoint.
	if _, err := LoadFile(filepath.Join(dir, "nope.gob")); errors.Is(err, ErrCorruptModel) {
		t.Fatal("missing file misreported as corrupt")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := trainedSmall(t, Config{Models: 4, Epochs: 3, Seed: 4, ClusterMode: ClusterBinary, PredictMode: PredictBinaryBoth})
	c := m.Clone()
	x := []float64{0.3, -0.2, 0.5}
	want, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("clone predicts differently: %v vs %v", want, got)
	}
	// Corrupting the clone's stores must not move the original.
	fv := c.FaultView()
	for _, mb := range fv.ModelsBin {
		mb.FlipBits([]int{0, 1, 2, 3, 4, 5, 6, 7})
	}
	for _, cv := range fv.Clusters {
		cv[0] += 1000
	}
	after, err := m.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if after != want {
		t.Fatalf("mutating the clone changed the original: %v -> %v", want, after)
	}
}

func TestPredictBatchParallelCtxCancellation(t *testing.T) {
	m := trainedSmall(t, Config{Models: 2, Epochs: 3, Seed: 5})
	s := m.Snapshot()
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = []float64{0.1, 0.2, 0.3}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PredictBatchParallelCtx(ctx, xs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// And an unexpired context serves the whole batch.
	ys, err := s.PredictBatchParallelCtx(context.Background(), xs, 4)
	if err != nil || len(ys) != len(xs) {
		t.Fatalf("clean batch failed: %v (%d rows)", err, len(ys))
	}
}
