// Package reghd is a pure-Go implementation of RegHD (DAC 2021), regression
// in hyperdimensional computing: inputs are mapped into a high-dimensional
// space by a similarity-preserving nonlinear encoder, clustered at run time
// against k cluster hypervectors, and regressed by k model hypervectors
// whose outputs are blended by softmax confidence. A quantization framework
// replaces the expensive cosine similarity with Hamming distance on binary
// cluster shadows, and can binarize queries and/or models for multiply-free
// prediction on embedded hardware.
//
// Quick start:
//
//	enc, _ := reghd.NewEncoder(nFeatures, 4000, 1)
//	model, _ := reghd.NewModel(enc, reghd.DefaultConfig())
//	pipe := reghd.NewPipeline(model)
//	_ = pipe.Fit(trainingData)                 // *reghd.Dataset
//	y, _ := pipe.Predict([]float64{ /* ... */ })
//
// The Pipeline standardizes features and target around the model, which is
// how every experiment in the paper's evaluation is run; use Model directly
// for pre-standardized data or streaming updates. For concurrent serving —
// lock-free prediction while a writer streams PartialFit updates — wrap the
// model (or fitted pipeline) in an Engine, which publishes immutable
// Snapshots through an atomic pointer.
//
// The serving stack is observable: Engine.EnableMetrics adds latency
// histograms, per-stage timing, and snapshot-staleness gauges read back
// with Engine.Metrics (see docs/OBSERVABILITY.md for the metric reference,
// and cmd/reghd-serve for an instrumented demo server).
package reghd

import (
	"io"
	"math/rand"

	"reghd/internal/core"
	"reghd/internal/encoding"
	"reghd/internal/hdc"
)

// Config holds the RegHD hyper-parameters. See DefaultConfig for the
// evaluation defaults.
type Config = core.Config

// Model is a RegHD regressor.
type Model = core.Model

// TrainResult summarizes an iterative training run.
type TrainResult = core.TrainResult

// UpdateRule selects how the multi-model error update distributes the
// prediction error across the k regression models.
type UpdateRule = core.UpdateRule

// ClusterMode selects the cluster-similarity implementation.
type ClusterMode = core.ClusterMode

// PredictMode selects the query/model quantization of the prediction dot
// product.
type PredictMode = core.PredictMode

// OpCounter accumulates primitive-operation counts for the hardware cost
// model; attach one to Model.TrainCounter or Model.InferCounter. It is a
// plain (single-threaded) accumulator; for concurrent serving use
// AtomicOpCounter via Snapshot.SetCounter or Engine.EnableOpCounting.
type OpCounter = hdc.Counter

// Re-exported mode constants.
const (
	// UpdateWeighted updates every model scaled by its softmax confidence.
	UpdateWeighted = core.UpdateWeighted
	// UpdateHardMax updates only the most-similar model.
	UpdateHardMax = core.UpdateHardMax

	// ClusterInteger keeps full-precision clusters with cosine similarity.
	ClusterInteger = core.ClusterInteger
	// ClusterBinary uses binary cluster shadows with Hamming similarity
	// (the paper's quantized clustering framework).
	ClusterBinary = core.ClusterBinary
	// ClusterNaiveBinary binarizes clusters once and never updates them.
	ClusterNaiveBinary = core.ClusterNaiveBinary

	// PredictFull uses the raw query against the integer model.
	PredictFull = core.PredictFull
	// PredictBinaryQuery uses the bipolar query against the integer model.
	PredictBinaryQuery = core.PredictBinaryQuery
	// PredictBinaryModel uses the raw query against the binarized model.
	PredictBinaryModel = core.PredictBinaryModel
	// PredictBinaryBoth uses the bipolar query against the binarized model
	// (pure XOR+popcount prediction).
	PredictBinaryBoth = core.PredictBinaryBoth
)

// ErrNotTrained is returned by prediction before training.
var ErrNotTrained = core.ErrNotTrained

// DefaultConfig returns the hyper-parameters used throughout the paper's
// evaluation.
func DefaultConfig() Config { return core.DefaultConfig() }

// Encoder is the similarity-preserving map from feature vectors into
// hyperdimensional space. Every encoder implements one contract: Dim and
// Features report D and the input length n; Encode returns a freshly
// allocated raw hypervector; EncodeBipolarInto writes the {−1,+1}^D
// quantization into a caller-supplied D-length buffer; EncodeBothInto
// writes both from one pass, bit-identical to the other two. A non-nil
// counter argument accumulates the primitive operations.
type Encoder = encoding.Encoder

// NewEncoder builds the paper's Eq. 1 nonlinear encoder for nFeatures-
// dimensional inputs into dim-dimensional hyperspace, seeded
// deterministically. The kernel bandwidth defaults to 2√nFeatures,
// appropriate for standardized features.
func NewEncoder(nFeatures, dim int, seed int64) (Encoder, error) {
	return encoding.NewNonlinear(rand.New(rand.NewSource(seed)), nFeatures, dim)
}

// NewEncoderBandwidth builds the Eq. 1 encoder with an explicit kernel
// bandwidth: the induced similarity between inputs decays as
// exp(−2‖Δx‖²/bandwidth²), so smaller bandwidths resolve finer target
// structure at the cost of generalization.
func NewEncoderBandwidth(nFeatures, dim int, bandwidth float64, seed int64) (Encoder, error) {
	return encoding.NewNonlinearBandwidth(rand.New(rand.NewSource(seed)), nFeatures, dim, bandwidth)
}

// NewIDLevelEncoder builds the record-based ID-level encoder (random
// per-feature ID hypervectors bound to quantized level hypervectors), an
// alternative for sensor-style data; levels quantize values over [lo, hi].
func NewIDLevelEncoder(nFeatures, dim, levels int, lo, hi float64, seed int64) (Encoder, error) {
	return encoding.NewIDLevel(rand.New(rand.NewSource(seed)), nFeatures, dim, levels, lo, hi)
}

// NewSequenceEncoder wraps a per-step encoder into a sliding-window
// encoder for time-series forecasting: each of the window's steps is
// encoded with base, rotated by its position, and bundled, so the result
// is order-sensitive while staying similar for windows that mostly agree.
// The returned encoder expects window·base.Features() flattened inputs.
func NewSequenceEncoder(base Encoder, window int) (Encoder, error) {
	return encoding.NewSequence(base, window)
}

// NewModel constructs an untrained RegHD model over the encoder.
func NewModel(enc Encoder, cfg Config) (*Model, error) {
	return core.New(enc, cfg)
}

// LoadModel restores a model previously written with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// LoadModelFile restores a model from a file written with Model.SaveFile.
func LoadModelFile(path string) (*Model, error) { return core.LoadFile(path) }
