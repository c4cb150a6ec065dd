package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// encoderKinds builds one encoder of each kind over feats features per row:
// IDLevel, Sequence over a Nonlinear step encoder, and Nonlinear with each
// projection kind.
func encoderKinds(t *testing.T, feats, dim int) map[string]encoding.Encoder {
	t.Helper()
	idl, err := encoding.NewIDLevel(rand.New(rand.NewSource(91)), feats, dim, 16, -2.5, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	step, err := encoding.NewNonlinearBandwidth(rand.New(rand.NewSource(92)), 1, dim, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := encoding.NewSequence(step, feats)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := encoding.NewNonlinearProjection(rand.New(rand.NewSource(93)), feats, dim, 1.0, encoding.ProjBipolar)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := encoding.NewNonlinearProjection(rand.New(rand.NewSource(94)), feats, dim, 2.0, encoding.ProjGaussian)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]encoding.Encoder{"idlevel": idl, "sequence": seq, "nonlinear-bipolar": nb, "nonlinear-gaussian": ng}
}

// TestEncoderPredictPathsAgree trains a model over every encoder kind in
// every PredictMode (alternating integer and binary clusters), and checks
// that every serving entry point runs the one pooled-scratch encode path
// identically: Model.Predict, Snapshot.Predict, PredictBatchParallel over 4
// workers and a saved and reloaded model agree bit for bit, with equal
// inference Counters.
func TestEncoderPredictPathsAgree(t *testing.T) {
	const feats, dim, rows = 4, 384, 48
	data := makeLinear(rand.New(rand.NewSource(42)), 96, feats, 0.05)
	xs := data.X[:rows]
	modes := []PredictMode{PredictFull, PredictBinaryQuery, PredictBinaryModel, PredictBinaryBoth}
	for name, enc := range encoderKinds(t, feats, dim) {
		for i, mode := range modes {
			cluster := []ClusterMode{ClusterInteger, ClusterBinary}[i%2]
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Models = 4
				cfg.Epochs = 4
				cfg.Seed = 7
				cfg.ClusterMode = cluster
				cfg.PredictMode = mode
				m, err := New(enc, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Fit(data); err != nil {
					t.Fatal(err)
				}

				var ctr hdc.Counter
				m.InferCounter = &ctr
				want := make([]float64, rows)
				for i, x := range xs {
					if want[i], err = m.Predict(x); err != nil {
						t.Fatal(err)
					}
				}
				m.InferCounter = nil
				agree := func(path string, got []float64, ops [hdc.NumOps]uint64) {
					t.Helper()
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s row %d: %v, Model.Predict %v", path, i, got[i], want[i])
						}
					}
					if ops != ctr.Snapshot() {
						t.Fatalf("%s op counts diverge from Model.Predict:\n%v\n%v", path, ops, &ctr)
					}
				}

				snap := m.Snapshot()
				var actr hdc.AtomicCounter
				snap.SetCounter(&actr)
				got := make([]float64, rows)
				for i, x := range xs {
					if got[i], err = snap.Predict(x); err != nil {
						t.Fatal(err)
					}
				}
				agree("Snapshot.Predict", got, actr.Snapshot())

				var bctr hdc.Counter
				m.InferCounter = &bctr
				got, err = m.PredictBatchParallel(xs, 4)
				if err != nil {
					t.Fatal(err)
				}
				m.InferCounter = nil
				agree("PredictBatchParallel", got, bctr.Snapshot())

				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				var lctr hdc.Counter
				loaded.InferCounter = &lctr
				got, err = loaded.PredictBatch(xs)
				if err != nil {
					t.Fatal(err)
				}
				agree("Save/Load", got, lctr.Snapshot())
			})
		}
	}
}

// TestBufferedScratchReuse drives many sequential predictions through one
// model's pooled scratch to confirm the encode buffers are fully
// overwritten between calls (IDLevel and Sequence accumulate into theirs):
// every round must agree with a freshly loaded model predicting the rows in
// reverse order, whose buffers saw a different history.
func TestBufferedScratchReuse(t *testing.T) {
	const feats, dim = 3, 256
	data := makeLinear(rand.New(rand.NewSource(8)), 80, feats, 0.1)
	for name, enc := range encoderKinds(t, feats, dim) {
		for _, mode := range []PredictMode{PredictFull, PredictBinaryQuery} {
			cfg := DefaultConfig()
			cfg.Models = 4
			cfg.Epochs = 6
			cfg.Seed = 3
			cfg.PredictMode = mode
			m, err := New(enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Fit(data); err != nil {
				t.Fatal(err)
			}
			var saved bytes.Buffer
			if err := m.Save(&saved); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				fresh, err := Load(bytes.NewReader(saved.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				for i := len(data.X) - 1; i >= 0; i-- {
					want, err := fresh.Predict(data.X[i])
					if err != nil {
						t.Fatal(err)
					}
					got, err := m.Predict(data.X[i])
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s %v round %d row %d: pooled %v, fresh %v", name, mode, round, i, got, want)
					}
				}
			}
		}
	}
}

// TestEncodeBinaryOwnsResult checks that Model.EncodeBinary hands out a
// copy of the pooled packed query: a later call does not change an earlier
// result.
func TestEncodeBinaryOwnsResult(t *testing.T) {
	m := newModel(t, 3, 256, DefaultConfig())
	first, err := m.EncodeBinary([]float64{0.1, -0.4, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	keep := first.Clone()
	if _, err := m.EncodeBinary([]float64{-2, 1.5, 0.3}); err != nil {
		t.Fatal(err)
	}
	if !first.Equal(keep) {
		t.Fatal("a later EncodeBinary call rewrote an earlier result")
	}
}
