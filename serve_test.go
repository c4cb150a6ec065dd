package reghd

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// fitServeFixture returns a fitted pipeline plus held-out rows in original
// units.
func fitServeFixture(t *testing.T) (*Pipeline, *Dataset) {
	t.Helper()
	d, err := SyntheticDataset("ccpp", 1)
	if err != nil {
		t.Fatal(err)
	}
	d.X = d.X[:400]
	d.Y = d.Y[:400]
	enc, err := NewEncoder(d.Features(), 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 8
	m, err := NewModel(enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(m)
	if _, err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	return p, d
}

func TestEngineRequiresTrainedModel(t *testing.T) {
	enc, err := NewEncoder(3, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(enc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(m); err != ErrNotTrained {
		t.Fatalf("expected ErrNotTrained, got %v", err)
	}
	if _, err := NewPipelineEngine(NewPipeline(m)); err == nil {
		t.Fatal("unfitted pipeline accepted")
	}
}

func TestPipelineEngineMatchesPipeline(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.PredictBatch(d.X[:50])
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.PredictBatch(d.X[:50])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("engine row %d = %v, pipeline = %v", i, got[i], want[i])
		}
	}
	y1, err := e.Predict(d.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if y1 != want[0] {
		t.Fatalf("engine Predict = %v, pipeline = %v", y1, want[0])
	}

	// Concurrent single-row serving is bit-identical to the published
	// snapshot's Predict on the same standardized row.
	snap, sc := e.Snapshot(), p.Scaler()
	ref := make([]float64, 8)
	for i := range ref {
		row := append([]float64(nil), d.X[i]...)
		if err := sc.TransformRow(row); err != nil {
			t.Fatal(err)
		}
		y, err := snap.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = sc.InverseY(y)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 50; it++ {
				i := (g + it) % len(ref)
				y, err := e.Predict(d.X[i])
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(y) != math.Float64bits(ref[i]) {
					t.Errorf("row %d: concurrent Engine.Predict %v, Snapshot.Predict %v", i, y, ref[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineServeWhileTraining is the facade-level stress test: concurrent
// readers hit Engine.Predict while a writer streams PartialFit updates with
// automatic republication. Readers must always observe finite predictions,
// and any snapshot they pin must stay deterministic.
func TestEngineServeWhileTraining(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPublishEvery(25)

	pinned := e.Snapshot()
	row := append([]float64(nil), d.X[0]...)
	if err := p.Scaler().TransformRow(row); err != nil {
		t.Fatal(err)
	}
	frozen, err := pinned.Predict(row)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := SyntheticDataset("ccpp", 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if err := e.PartialFit(stream.X[i], stream.Y[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const readers = 6
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < 100; r++ {
				y, err := e.Predict(d.X[rng.Intn(len(d.X))])
				if err != nil {
					t.Error(err)
					return
				}
				if math.IsNaN(y) || math.IsInf(y, 0) {
					t.Errorf("engine prediction not finite: %v", y)
					return
				}
				if yf, err := pinned.Predict(row); err != nil || yf != frozen {
					t.Errorf("pinned snapshot drifted: %v (err %v) != %v", yf, err, frozen)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The writer's 300 updates crossed the publish interval many times, so
	// the engine must now serve a newer snapshot than the pinned one.
	if e.Snapshot() == pinned {
		t.Fatal("engine never republished during the PartialFit stream")
	}
}

func TestEnginePublishAndUpdate(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	if err := e.Publish(); err != nil {
		t.Fatal(err)
	}
	if e.Snapshot() == before {
		t.Fatal("Publish did not swap the snapshot")
	}
	prev, err := e.Predict(d.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(m *Model) error {
		return m.Sparsify(0.9)
	}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Predict(d.X[0])
	if err != nil {
		t.Fatal(err)
	}
	if after == prev {
		t.Fatal("Update's mutation not visible after republication")
	}
}

func TestEngineOpCounting(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	ctr := e.EnableOpCounting()
	if _, err := e.PredictBatch(d.X[:32]); err != nil {
		t.Fatal(err)
	}
	if ctr.Total() == 0 {
		t.Fatal("op counter saw no operations")
	}
	n := ctr.Total()
	if _, err := e.Predict(d.X[0]); err != nil {
		t.Fatal(err)
	}
	if ctr.Total() <= n {
		t.Fatal("op counter did not advance on Predict")
	}
}

func TestEngineMetricsDisabled(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.MetricsEnabled() {
		t.Fatal("metrics enabled before EnableMetrics")
	}
	if _, err := e.Predict(d.X[0]); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.Enabled || m.Predict.Count != 0 || m.Snapshot.Publishes != 0 {
		t.Fatalf("disabled metrics not zero: %+v", m)
	}
}

// TestEngineMetricsUnderLoad is the observability version of the serving
// race-stress test: concurrent readers and a PartialFit writer run with
// metrics enabled, and every acceptance metric — latency quantiles,
// throughput, stage timing, snapshot staleness — must come out non-zero
// and internally consistent.
func TestEngineMetricsUnderLoad(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPublishEvery(25)
	e.EnableMetrics()
	e.EnableMetrics() // idempotent

	stream, err := SyntheticDataset("ccpp", 2)
	if err != nil {
		t.Fatal(err)
	}
	const updates = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < updates; i++ {
			if err := e.PartialFit(stream.X[i], stream.Y[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const readers, perReader = 6, 100
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for r := 0; r < perReader; r++ {
				if _, err := e.Predict(d.X[rng.Intn(len(d.X))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := e.PredictBatch(d.X[:40]); err != nil {
		t.Fatal(err)
	}

	m := e.Metrics()
	if !m.Enabled {
		t.Fatal("metrics not enabled")
	}
	if m.Predict.Count != readers*perReader || m.Predict.Errors != 0 {
		t.Fatalf("predict count/errors = %d/%d, want %d/0", m.Predict.Count, m.Predict.Errors, readers*perReader)
	}
	if m.Predict.P50NS <= 0 || m.Predict.P99NS < m.Predict.P50NS || m.Predict.MaxNS < m.Predict.P99NS {
		t.Fatalf("latency quantiles inconsistent: %+v", m.Predict)
	}
	if m.Predict.RatePerSec <= 0 {
		t.Fatalf("throughput not positive: %v", m.Predict.RatePerSec)
	}
	if m.PartialFit.Count != updates || m.PartialFit.P50NS <= 0 {
		t.Fatalf("partial_fit digest wrong: %+v", m.PartialFit)
	}
	if m.PredictBatch.Count != 1 || m.PredictBatchRows != 40 {
		t.Fatalf("batch digest wrong: %+v rows %d", m.PredictBatch, m.PredictBatchRows)
	}
	// Stage accounting: every served prediction passes standardize and
	// encode; multi-model configs also search and read out.
	wantStaged := int64(readers*perReader + 40)
	if m.Stages.Encode.Calls != wantStaged || m.Stages.Readout.Calls != wantStaged {
		t.Fatalf("stage calls = %+v, want %d encodes", m.Stages, wantStaged)
	}
	if m.Stages.Standardize.Calls != readers*perReader+1 { // one per call, batch counts once
		t.Fatalf("standardize calls = %d", m.Stages.Standardize.Calls)
	}
	if m.Stages.Encode.TotalNS <= 0 || m.Stages.Encode.MeanNS <= 0 {
		t.Fatalf("encode stage not timed: %+v", m.Stages.Encode)
	}
	// The writer crossed the publish interval repeatedly.
	if m.Snapshot.Publishes < 2 {
		t.Fatalf("publishes = %d, want several", m.Snapshot.Publishes)
	}
	if m.Snapshot.AgeSeconds < 0 || m.UptimeSeconds <= 0 {
		t.Fatalf("gauges inconsistent: %+v", m.Snapshot)
	}
}

// TestEngineSnapshotStaleness pins the staleness gauges' semantics: updates
// accumulate the publish lag, Publish resets both the lag and the age.
func TestEngineSnapshotStaleness(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetPublishEvery(0) // manual publication only
	e.EnableMetrics()
	for i := 0; i < 5; i++ {
		if err := e.PartialFit(d.X[i], d.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	m := e.Metrics()
	if m.Snapshot.UpdatesSincePublish != 5 {
		t.Fatalf("updates_since_publish = %d, want 5", m.Snapshot.UpdatesSincePublish)
	}
	if m.Snapshot.AgeSeconds < 0.02 {
		t.Fatalf("age_s = %v, want ≥ 20ms", m.Snapshot.AgeSeconds)
	}
	publishes := m.Snapshot.Publishes
	if err := e.Publish(); err != nil {
		t.Fatal(err)
	}
	m = e.Metrics()
	if m.Snapshot.UpdatesSincePublish != 0 {
		t.Fatalf("publish did not reset lag: %d", m.Snapshot.UpdatesSincePublish)
	}
	if m.Snapshot.Publishes != publishes+1 {
		t.Fatalf("publishes = %d, want %d", m.Snapshot.Publishes, publishes+1)
	}
	if m.Snapshot.AgeSeconds > 0.02 {
		t.Fatalf("age_s = %v after publish, want fresh", m.Snapshot.AgeSeconds)
	}
	// PartialFit-triggered auto-publication resets the gauge too.
	e.SetPublishEvery(3)
	for i := 0; i < 3; i++ {
		if err := e.PartialFit(d.X[i], d.Y[i]); err != nil {
			t.Fatal(err)
		}
	}
	if m = e.Metrics(); m.Snapshot.UpdatesSincePublish != 0 {
		t.Fatalf("auto-publish did not reset lag: %d", m.Snapshot.UpdatesSincePublish)
	}
}

// TestEngineMetricsErrors: validation rejections land in the invalid-input
// counter without polluting the latency digest, while failures inside the
// serving path (here a panic from poisoned model state) are digested as
// errors.
func TestEngineMetricsErrors(t *testing.T) {
	p, d := fitServeFixture(t)
	e, err := NewPipelineEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableMetrics()
	if _, err := e.Predict([]float64{1}); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("short feature vector: err = %v, want ErrInvalidInput", err)
	}
	m := e.Metrics()
	if m.Robustness.InvalidInputs != 1 {
		t.Fatalf("invalid_inputs = %d, want 1", m.Robustness.InvalidInputs)
	}
	if m.Predict.Errors != 0 || m.Predict.Count != 0 {
		t.Fatalf("rejected request reached the digest: errors/count = %d/%d", m.Predict.Errors, m.Predict.Count)
	}
	// Poison the published state: truncating a model hypervector makes the
	// readout dot panic, which the engine must contain per-request.
	if err := e.Update(func(m *Model) error {
		fv := m.FaultView()
		fv.Models[0] = fv.Models[0][:8]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var pe *PanicError
	if _, err := e.Predict(d.X[0]); !errors.As(err, &pe) {
		t.Fatalf("poisoned predict: err = %v, want PanicError", err)
	}
	if m = e.Metrics(); m.Predict.Errors != 1 || m.Predict.Count != 1 {
		t.Fatalf("errors/count = %d/%d, want 1/1", m.Predict.Errors, m.Predict.Count)
	}
	if m.Robustness.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered = %d, want 1", m.Robustness.PanicsRecovered)
	}
}

func TestPipelineStageTiming(t *testing.T) {
	p, d := fitServeFixture(t)
	st := p.EnableStageTiming()
	if st != p.EnableStageTiming() || st != p.StageTimes() {
		t.Fatal("EnableStageTiming not idempotent")
	}
	if _, err := p.Predict(d.X[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.PredictBatch(d.X[:8]); err != nil {
		t.Fatal(err)
	}
	s := st.Summary()
	if s.Standardize.Calls != 2 { // one Predict + one batch observation
		t.Fatalf("standardize calls = %d, want 2", s.Standardize.Calls)
	}
	if s.Encode.Calls != 9 || s.Similarity.Calls != 9 || s.Readout.Calls != 9 {
		t.Fatalf("stage calls = %+v, want 9 each", s)
	}
	if s.Encode.TotalNS <= 0 {
		t.Fatalf("encode not timed: %+v", s.Encode)
	}
}

func TestPipelinePredictBatchUnfitted(t *testing.T) {
	enc, err := NewEncoder(3, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(enc, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPipeline(m).PredictBatch([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("unfitted pipeline PredictBatch accepted")
	}
}
