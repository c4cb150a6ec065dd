package reghd

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

func makeData(seed int64, n int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{Name: "facade", X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		d.X[i] = []float64{a, b}
		d.Y[i] = 100 + 20*(a+math.Sin(2*b)) + 0.5*rng.NormFloat64()
	}
	return d
}

func TestPipelineEndToEnd(t *testing.T) {
	all := makeData(1, 800)
	train := all.Subset(seq(0, 600))
	test := all.Subset(seq(600, 800))
	enc, err := NewEncoder(2, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 30
	m, err := NewModel(enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe := NewPipeline(m)
	res, err := pipe.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs recorded")
	}
	mse, err := pipe.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// Target std is ≈ 28 in original units; a fitted model must be far
	// below the variance (≈ 800).
	if mse > 80 {
		t.Fatalf("pipeline test MSE %v too high", mse)
	}
	if pipe.Model() != m {
		t.Fatal("Model accessor wrong")
	}
}

func TestPipelinePredictBeforeFit(t *testing.T) {
	enc, _ := NewEncoder(2, 128, 1)
	m, _ := NewModel(enc, DefaultConfig())
	pipe := NewPipeline(m)
	if _, err := pipe.Predict([]float64{1, 2}); err == nil {
		t.Fatal("unfitted pipeline accepted Predict")
	}
}

func TestPipelineOriginalUnits(t *testing.T) {
	// The pipeline must return predictions near the original target scale
	// (here ≈100), not standardized values near 0.
	all := makeData(2, 500)
	enc, _ := NewEncoder(2, 1000, 3)
	cfg := DefaultConfig()
	cfg.Epochs = 15
	m, _ := NewModel(enc, cfg)
	pipe := NewPipeline(m)
	if _, err := pipe.Fit(all); err != nil {
		t.Fatal(err)
	}
	var mean float64
	preds, err := pipe.PredictBatch(all.X[:100])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		mean += p
	}
	mean /= float64(len(preds))
	if mean < 50 || mean > 150 {
		t.Fatalf("predictions not in original units: mean %v", mean)
	}
}

func TestEncoderConstructors(t *testing.T) {
	if _, err := NewEncoder(0, 100, 1); err == nil {
		t.Fatal("invalid encoder accepted")
	}
	e, err := NewEncoderBandwidth(3, 100, 0.5, 1)
	if err != nil || e.Dim() != 100 {
		t.Fatalf("bandwidth encoder: %v", err)
	}
	idl, err := NewIDLevelEncoder(3, 100, 8, 0, 1, 1)
	if err != nil || idl.Features() != 3 {
		t.Fatalf("id-level encoder: %v", err)
	}
	m, err := NewModel(idl, DefaultConfig())
	if err != nil || m.Dim() != 100 {
		t.Fatalf("model over id-level encoder: %v", err)
	}
}

// TestIDLevelRejectsNaNThroughFacade pins that a NaN feature reaching an
// ID-level model through the public Pipeline and Model entry points returns
// an error instead of panicking in the encoder's level lookup.
func TestIDLevelRejectsNaNThroughFacade(t *testing.T) {
	d, err := SyntheticDataset("airfoil", 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewIDLevelEncoder(d.Features(), 512, 16, -3, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m, err := NewModel(enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(m)
	if _, err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	row := append([]float64(nil), d.X[0]...)
	if _, err := p.Predict(row); err != nil {
		t.Fatal(err)
	}
	row[2] = math.NaN()
	if _, err := p.Predict(row); err == nil {
		t.Fatal("Pipeline.Predict accepted a NaN feature")
	}
	if _, err := p.PredictBatch([][]float64{d.X[1], row}); err == nil {
		t.Fatal("Pipeline.PredictBatch accepted a NaN feature")
	}
	if _, err := m.Predict(row); err == nil {
		t.Fatal("Model.Predict accepted a NaN feature")
	}
}

func TestSyntheticDatasets(t *testing.T) {
	names := SyntheticNames()
	if len(names) != 7 {
		t.Fatalf("expected 7 synthetic datasets, got %v", names)
	}
	d, err := SyntheticDataset("boston", 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 506 || d.Features() != 13 {
		t.Fatalf("boston shape %dx%d", d.Len(), d.Features())
	}
	if _, err := SyntheticDataset("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestCSVRoundTripFacade(t *testing.T) {
	d, _ := SyntheticDataset("diabetes", 1)
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := SaveCSV(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path, "diabetes", true)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() {
		t.Fatal("round trip changed size")
	}
}

func TestMetricsFacade(t *testing.T) {
	mse, err := MSE([]float64{1, 2}, []float64{1, 4})
	if err != nil || mse != 2 {
		t.Fatalf("MSE = %v, %v", mse, err)
	}
	if _, err := RMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("RMSE length mismatch accepted")
	}
	mae, _ := MAE([]float64{0}, []float64{3})
	if mae != 3 {
		t.Fatalf("MAE = %v", mae)
	}
	r2, _ := R2([]float64{1, 2, 3}, []float64{1, 2, 3})
	if r2 != 1 {
		t.Fatalf("R2 = %v", r2)
	}
}

func TestHardwareFacade(t *testing.T) {
	enc, _ := NewEncoder(2, 256, 1)
	cfg := DefaultConfig()
	cfg.Epochs = 2
	m, _ := NewModel(enc, cfg)
	m.TrainCounter = &OpCounter{}
	all := makeData(3, 100)
	sc, _ := FitScaler(all, true)
	allS, _ := sc.Transform(all)
	if _, err := m.Fit(allS); err != nil {
		t.Fatal(err)
	}
	cost, err := EstimateCost(m.TrainCounter, FPGAProfile())
	if err != nil {
		t.Fatal(err)
	}
	if cost.Seconds <= 0 || cost.Joules <= 0 {
		t.Fatalf("degenerate cost %+v", cost)
	}
	armCost, err := EstimateCost(m.TrainCounter, ARMProfile())
	if err != nil {
		t.Fatal(err)
	}
	if armCost.Seconds <= cost.Seconds {
		t.Fatal("ARM should be slower than the FPGA for this workload")
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
