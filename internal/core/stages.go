package core

import (
	"sync/atomic"
	"time"
)

// Stage identifies one phase of the prediction pipeline for per-stage wall
// time accounting. The stages mirror the dataflow of the paper's Fig. 4:
// feature standardization (facade layer), the Eq. 1 nonlinear encoding, the
// Eq. 5 cluster similarity search plus softmax, and the Eq. 6
// confidence-weighted readout (including the output calibration of
// binary-model modes).
type Stage int

const (
	// StageStandardize is feature/target standardization. core never
	// records it — the reghd facade does, around its Scaler — but the slot
	// lives here so one accumulator covers the whole serving path.
	StageStandardize Stage = iota
	// StageEncode is the hyperdimensional encoding of the query (Eq. 1
	// projection plus bit-packing).
	StageEncode
	// StageSimilarity is the cluster similarity search and softmax
	// normalization (Eqs. 5); zero calls for single-model configurations.
	StageSimilarity
	// StageReadout is the per-model dot products, confidence-weighted
	// accumulation, and output calibration (Eq. 6).
	StageReadout

	// NumStages is the number of prediction stages.
	NumStages
)

var stageNames = [NumStages]string{"standardize", "encode", "similarity", "readout"}

// String returns the lower-case stage name used in metrics and reports.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "stage(?)"
	}
	return stageNames[s]
}

// StageTimes accumulates per-stage wall time and call counts with atomic
// adds, so any number of concurrent predictions may record into one
// accumulator while readers summarize it. The zero value is ready to use; a
// nil *StageTimes is valid everywhere and records nothing, mirroring the
// nil-Counter convention of the instrumented kernels.
//
// The prediction path takes its timestamps in one place, the stage clock
// (stageClock), which reads the wall clock once per stage boundary and only
// when a StageTimes is installed (Model.Stages, Snapshot.SetStages,
// Engine.EnableMetrics).
type StageTimes struct {
	ns    [NumStages]atomic.Int64
	calls [NumStages]atomic.Int64
}

// Observe records one execution of stage s that took d. Observe on a nil
// accumulator is a no-op.
func (t *StageTimes) Observe(s Stage, d time.Duration) {
	if t == nil || s < 0 || s >= NumStages {
		return
	}
	t.ns[s].Add(int64(d))
	t.calls[s].Add(1)
}

// StageStat is the accumulated cost of one prediction stage.
type StageStat struct {
	// Calls is how many times the stage executed.
	Calls int64 `json:"calls"`
	// TotalNS is the total wall time spent in the stage, in nanoseconds.
	TotalNS int64 `json:"total_ns"`
	// MeanNS is TotalNS/Calls (0 when the stage never ran).
	MeanNS int64 `json:"mean_ns"`
}

// StageSummary reports every stage's accumulated cost, JSON-ready for the
// /metrics endpoint.
type StageSummary struct {
	Standardize StageStat `json:"standardize"`
	Encode      StageStat `json:"encode"`
	Similarity  StageStat `json:"similarity"`
	Readout     StageStat `json:"readout"`
}

// Stat returns the accumulated cost of one stage. Counts and times are
// loaded independently, so a summary taken under concurrent recording is
// consistent per field, not across fields.
func (t *StageTimes) Stat(s Stage) StageStat {
	if t == nil || s < 0 || s >= NumStages {
		return StageStat{}
	}
	st := StageStat{Calls: t.calls[s].Load(), TotalNS: t.ns[s].Load()}
	if st.Calls > 0 {
		st.MeanNS = st.TotalNS / st.Calls
	}
	return st
}

// Summary returns every stage's accumulated cost.
func (t *StageTimes) Summary() StageSummary {
	return StageSummary{
		Standardize: t.Stat(StageStandardize),
		Encode:      t.Stat(StageEncode),
		Similarity:  t.Stat(StageSimilarity),
		Readout:     t.Stat(StageReadout),
	}
}

// Reset zeroes all stages. Concurrent Observes racing a Reset land either
// before or after it per field.
func (t *StageTimes) Reset() {
	if t == nil {
		return
	}
	for i := range t.ns {
		t.ns[i].Store(0)
		t.calls[i].Store(0)
	}
}

// stageClock times consecutive prediction stages into a StageTimes: each
// lap records the wall time since the previous one. A nil clock does
// nothing and never reads the wall clock, so untimed predictions pay one
// nil check per stage.
type stageClock struct {
	st   *StageTimes
	last time.Time
}

// read returns the wall time since the previous read and starts the next
// interval.
func (c *stageClock) read() time.Duration {
	//lint:nondeterm wall-clock telemetry: stage timing feeds StageTimes metrics only
	now := time.Now()
	d := now.Sub(c.last)
	c.last = now
	return d
}

// lap records the interval since the previous lap as stage s.
func (c *stageClock) lap(s Stage) {
	if c != nil {
		c.st.Observe(s, c.read())
	}
}
