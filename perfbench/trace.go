package main

import (
	"sync"
	"time"

	"reghd"
)

// span is one timed call into a layer of the program: the layer function's
// name, the request it served (spans of one request share req), the span
// that caused it (-1 for a root), and its start and end.
type span struct {
	name       string
	req        int64
	parent     int
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory for the length of a traced run. A nil
// tracer records nothing, so untraced code paths pay one nil check.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, req int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: now})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// durations returns the durations of every closed span called name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// time its direct children cover.
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.parent >= 0 && !s.end.IsZero() {
			child[s.parent] += s.dur()
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if s.name == name && !s.end.IsZero() {
			out = append(out, s.dur()-child[i])
		}
	}
	return out
}

// spanCost measures what recording one span costs: the mean of many empty
// begin/end pairs on a scratch tracer. Traced means are reported net of it.
func spanCost() time.Duration {
	const n = 20000
	t := &tracer{spans: make([]span, 0, n)}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", int64(i), -1))
	}
	return time.Since(t0) / n
}

// addStages sums the stage counters of several engines.
func addStages(a, b reghd.StageSummary) reghd.StageSummary {
	add := func(x, y reghd.StageStat) reghd.StageStat {
		return reghd.StageStat{Calls: x.Calls + y.Calls, TotalNS: x.TotalNS + y.TotalNS}
	}
	return reghd.StageSummary{
		Standardize: add(a.Standardize, b.Standardize),
		Encode:      add(a.Encode, b.Encode),
		Similarity:  add(a.Similarity, b.Similarity),
		Readout:     add(a.Readout, b.Readout),
	}
}

// engineLayers fills the engine and stage metrics from the spans around
// Engine.PredictCtx (µs, net of the span cost) and the engines' own stage
// counters, and prints how they reconcile: the predict mean is the sum of
// the stage means plus the engine's front (the remainder).
func engineLayers(e *env, r *result, predict []float64, st reghd.StageSummary, shed uint64) {
	stage := func(s reghd.StageStat) float64 {
		if s.Calls == 0 {
			return 0
		}
		return float64(s.TotalNS) / float64(s.Calls) / 1e3
	}
	scaler, enc, sim, read := stage(st.Standardize), stage(st.Encode), stage(st.Similarity), stage(st.Readout)
	predictMean := mean(predict)
	front := predictMean - (scaler + enc + sim + read)
	r.metrics["engine.predict_us.p50"] = percentile(predict, 0.50)
	r.metrics["engine.predict_us.p99"] = percentile(predict, 0.99)
	r.metrics["engine.front_us"] = front
	r.metrics["engine.shed_ratio"] = float64(shed) / float64(len(predict))
	r.metrics["scaler.us"] = scaler
	r.metrics["encoding.us"] = enc
	r.metrics["hdc.similarity_us"] = sim
	r.metrics["hdc.readout_us"] = read
	e.logf("reconcile %s: engine.predict_us mean %.1f = scaler %.1f + encoding %.1f + similarity %.1f + readout %.1f + front %.1f us (front is the remainder; encoding is %.0f%% of the mean; %d calls)",
		e.workload, predictMean, scaler, enc, sim, read, front, 100*enc/predictMean, len(predict))
}
