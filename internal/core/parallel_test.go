package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"reghd/internal/hdc"
)

func TestPredictBatchParallelMatchesSequential(t *testing.T) {
	type tcase struct {
		name string
		cfg  Config
	}
	cases := []tcase{
		{"single", Config{Models: 1, Epochs: 3, Seed: 1}},
		{"multi", Config{Models: 4, Epochs: 3, Seed: 2}},
		{"binary", Config{Models: 4, Epochs: 3, Seed: 3, ClusterMode: ClusterBinary, PredictMode: PredictBinaryBoth}},
	}
	for _, k := range []int{1, 4} {
		for _, pm := range []PredictMode{PredictFull, PredictBinaryQuery, PredictBinaryModel, PredictBinaryBoth} {
			for _, cm := range []ClusterMode{ClusterInteger, ClusterBinary, ClusterNaiveBinary} {
				cases = append(cases, tcase{
					fmt.Sprintf("k%d/%v/%v", k, pm, cm),
					Config{Models: k, Epochs: 3, Seed: 11, ClusterMode: cm, PredictMode: pm},
				})
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			all := makeLinear(rand.New(rand.NewSource(4)), 300, 3, 0.05)
			m := newModel(t, 3, 512, tc.cfg)
			if _, err := m.Fit(all); err != nil {
				t.Fatal(err)
			}
			seq, err := m.PredictBatch(all.X)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 7} {
				par, err := m.PredictBatchParallel(all.X, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range seq {
					if par[i] != seq[i] {
						t.Fatalf("workers=%d: row %d differs: %v vs %v", workers, i, par[i], seq[i])
					}
				}
			}
			checkModelSnapshotAgree(t, m, all.X[:32])
			checkBatchStageCounts(t, m, all.X, seq)
			if tc.cfg.Models > 1 && tc.cfg.ClusterMode != ClusterInteger {
				checkClusterSlab(t, m, all.X[:32], all.Y[:32])
			}
		})
	}
}

// checkClusterSlab pins the cluster-shadow slab on a binary-cluster model
// through every path that builds or writes the shadows: Fit, Clone, a
// save/load round trip, a merge, and a bit flip through FaultView. The live
// model reads the shadows from its BinarySet slab while Snapshot copies them
// out of the *Binary views, so a path that swapped in a new *Binary instead
// of writing through its slab row makes the two disagree, and a flip that
// misses the slab leaves Model.Predict unmoved.
func checkClusterSlab(t *testing.T, m *Model, xs [][]float64, ys []float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	worker := m.Clone()
	worker.MarkSync()
	for i, x := range xs {
		if err := worker.PartialFit(x, ys[i]); err != nil {
			t.Fatal(err)
		}
	}
	d, err := worker.Delta()
	if err != nil {
		t.Fatal(err)
	}
	merged := m.Clone()
	if m.cfg.ClusterMode == ClusterBinary {
		err = merged.MergeQuantized(d)
	} else {
		err = merged.Merge(d)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *Model
	}{{"clone", m.Clone()}, {"load", loaded}, {"merge", merged}, {"fit", m}} {
		checkModelSnapshotAgree(t, c.m, xs)
		before, err := c.m.PredictBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		// An odd number of flips always moves cluster 0's Hamming distance.
		c.m.FaultView().ClustersBin[0].FlipBits([]int{0, 1, 2, 3, 4, 5, 6})
		after, err := c.m.PredictBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		moved := false
		for i := range after {
			moved = moved || math.Float64bits(after[i]) != math.Float64bits(before[i])
		}
		if !moved {
			t.Fatalf("%s: a FaultView cluster-shadow flip did not reach Model.Predict", c.name)
		}
		checkModelSnapshotAgree(t, c.m, xs)
	}
}

// checkModelSnapshotAgree pins Model.Predict and Snapshot.Predict to the
// same per-row path: Float64bits-identical outputs and equal op counts,
// with stage timing off and on, and timing must change neither.
func checkModelSnapshotAgree(t *testing.T, m *Model, xs [][]float64) {
	t.Helper()
	var ref []float64
	var refOps [hdc.NumOps]uint64
	for _, timed := range []bool{false, true} {
		m.InferCounter = &hdc.Counter{}
		m.Stages = nil
		snap := m.Snapshot()
		snap.SetCounter(&hdc.AtomicCounter{})
		var mst, sst *StageTimes
		if timed {
			mst, sst = &StageTimes{}, &StageTimes{}
			m.Stages = mst
			snap.SetStages(sst)
		}
		got := make([]float64, len(xs))
		for i, x := range xs {
			ym, err := m.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			ys, err := snap.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ym) != math.Float64bits(ys) {
				t.Fatalf("timed=%v: row %d: Model.Predict %v, Snapshot.Predict %v", timed, i, ym, ys)
			}
			got[i] = ym
		}
		ops := m.InferCounter.Snapshot()
		if snapOps := snap.Counter().Snapshot(); ops != snapOps {
			t.Fatalf("timed=%v: Model ops %v, Snapshot ops %v", timed, ops, snapOps)
		}
		for s := Stage(0); s < NumStages; s++ {
			if mc, sc := mst.Stat(s).Calls, sst.Stat(s).Calls; mc != sc {
				t.Fatalf("timed=%v: %v calls: Model %d, Snapshot %d", timed, s, mc, sc)
			}
		}
		if !timed {
			ref, refOps = got, ops
			continue
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("row %d: timed %v, untimed %v", i, got[i], ref[i])
			}
		}
		if ops != refOps {
			t.Fatalf("stage timing changed op counts: %v vs %v", ops, refOps)
		}
	}
	m.InferCounter = nil
	m.Stages = nil
}

// checkBatchStageCounts runs PredictBatchParallel with Stages installed and
// checks that every worker count records one encode and one readout per
// row, and one similarity per row exactly when k>1.
func checkBatchStageCounts(t *testing.T, m *Model, xs [][]float64, want []float64) {
	t.Helper()
	n := int64(len(xs))
	wantSim := n
	if m.Models() == 1 {
		wantSim = 0
	}
	for _, workers := range []int{1, 2, 7} {
		st := &StageTimes{}
		m.Stages = st
		got, err := m.PredictBatchParallel(xs, workers)
		m.Stages = nil
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d timed: row %d: %v vs %v", workers, i, got[i], want[i])
			}
		}
		s := st.Summary()
		if s.Encode.Calls != n || s.Readout.Calls != n || s.Similarity.Calls != wantSim {
			t.Fatalf("workers=%d: stage calls encode/similarity/readout = %d/%d/%d, want %d/%d/%d",
				workers, s.Encode.Calls, s.Similarity.Calls, s.Readout.Calls, n, wantSim, n)
		}
	}
}

func TestPredictBatchParallelErrors(t *testing.T) {
	m := newModel(t, 3, 128, Config{Models: 2, Epochs: 2, Seed: 5})
	if _, err := m.PredictBatchParallel([][]float64{{1, 2, 3}}, 2); err != ErrNotTrained {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
	all := makeLinear(rand.New(rand.NewSource(6)), 100, 3, 0.05)
	if _, err := m.Fit(all); err != nil {
		t.Fatal(err)
	}
	bad := [][]float64{{1, 2, 3}, {1}} // second row has wrong arity
	if _, err := m.PredictBatchParallel(bad, 2); err == nil {
		t.Fatal("wrong feature count accepted")
	}
}

func TestPredictBatchParallelCountsAggregated(t *testing.T) {
	all := makeLinear(rand.New(rand.NewSource(7)), 64, 3, 0.05)
	m := newModel(t, 3, 256, Config{Models: 2, Epochs: 2, Seed: 8})
	if _, err := m.Fit(all); err != nil {
		t.Fatal(err)
	}
	m.InferCounter = &hdc.Counter{}
	if _, err := m.PredictBatch(all.X); err != nil {
		t.Fatal(err)
	}
	seqCounts := m.InferCounter.Snapshot()
	m.InferCounter = &hdc.Counter{}
	if _, err := m.PredictBatchParallel(all.X, 4); err != nil {
		t.Fatal(err)
	}
	parCounts := m.InferCounter.Snapshot()
	if seqCounts != parCounts {
		t.Fatalf("parallel counts differ from sequential:\n%v\n%v", seqCounts, parCounts)
	}
}

func TestParallelFitDeterministic(t *testing.T) {
	// The parallel encoding pass must not change training results (the
	// shuffled update order comes from the model RNG, not goroutine order).
	all := makeLinear(rand.New(rand.NewSource(9)), 400, 3, 0.05)
	run := func() float64 {
		m := newModel(t, 3, 512, Config{Models: 4, Epochs: 5, Tol: 1e-12, Patience: 1000, Seed: 10})
		if _, err := m.Fit(all); err != nil {
			t.Fatal(err)
		}
		y, err := m.Predict(all.X[0])
		if err != nil {
			t.Fatal(err)
		}
		return y
	}
	if run() != run() {
		t.Fatal("parallel encoding made training nondeterministic")
	}
}
