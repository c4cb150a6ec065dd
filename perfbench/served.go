package main

import (
	"fmt"
	"math/bits"
	"time"
)

// This file runs the shared measurement plan of the two serving workloads
// (fleet-churn and engine-stream): a warm-up; a fixed light rate and a
// fixed busy rate, offered in alternating segments so that a noisy
// stretch of the host falls on both; and a bisection for the highest rate
// that meets the latency limit. Percentiles are exact within a window and
// reported at the lower quartile over windows (phase.windowed); a probe
// meets the limit on the median over its windows.

// servedPlan sizes the phases of a serving workload.
type servedPlan struct {
	light, busy float64 // offered rates, requests/s
	sloP99MS    float64 // latency limit on p99
	grid        []float64
	warm        time.Duration
	fixed       time.Duration // total length of the light and of the busy segments
	probe       time.Duration // length of one rate-search probe
	abortLate   time.Duration // a probe stops once a request starts this late
}

// Rates grow by 4% a step on the search grid: max_rps_at_slo resolves the
// capacity to within 4%.
const gridStep = 1.04

func newServedPlan(seconds, light, busy, sloP99MS, gridTop float64) servedPlan {
	p := servedPlan{
		light:    light,
		busy:     busy,
		sloP99MS: sloP99MS,
		grid:     rateGrid(light, gridTop, gridStep),
		warm:     time.Second,
		fixed:    time.Duration(0.25 * seconds * float64(time.Second)),
	}
	// A bisection over the grid takes about log2(len) probes; a failed
	// probe is run a second time (see runServed), which half of them need.
	probes := 1.5 * float64(bits.Len(uint(len(p.grid)-1)))
	p.probe = time.Duration(0.5 * seconds / probes * float64(time.Second))
	p.abortLate = max(time.Duration(25*sloP99MS*float64(time.Millisecond)), 100*time.Millisecond)
	return p
}

const (
	segments     = 4 // light and busy segments each
	probeWindows = 4 // percentile windows per probe
)

// meets reports whether a probe met the limit: windowed p99 within the
// limit, at most one failure per thousand, and no growing backlog.
func (p servedPlan) meets(ph *phase) bool {
	if len(ph.latency) == 0 {
		return false
	}
	return median(windows(ph.latency, 0.99, probeWindows)) <= p.sloP99MS &&
		ph.errorRatio() <= 0.001 &&
		!ph.growingBacklog(p.sloP99MS)
}

// servedRun is what the plan measured. light and busy pool their
// segments in order.
type servedRun struct {
	light, busy *phase
	maxRPS      float64
	probes      int
}

// runServed executes the plan. load(rate, d, part, abortLate) offers one
// open-loop stream at rate for d; part names the stream so its inputs are
// drawn from their own seed. The light rate is taken to meet the limit
// when the light segments do; otherwise the search starts lower.
func runServed(e *env, p servedPlan, load func(rate float64, d time.Duration, part string, abortLate time.Duration) (*phase, error)) (*servedRun, error) {
	if _, err := load(p.light, p.warm, "warm", 0); err != nil {
		return nil, err
	}
	out := &servedRun{light: &phase{rate: p.light}, busy: &phase{rate: p.busy}}
	for s := 0; s < segments; s++ {
		for _, c := range []struct {
			name string
			rate float64
			into *phase
		}{{"light", p.light, out.light}, {"busy", p.busy, out.busy}} {
			settle()
			ph, err := load(c.rate, p.fixed/segments, fmt.Sprintf("%s-%d", c.name, s), 0)
			if err != nil {
				return nil, err
			}
			c.into.merge(ph)
		}
	}
	for _, ph := range []*phase{out.light, out.busy} {
		e.logf("rate %.0f/s: %s", ph.rate, ph.describe(p.sloP99MS))
	}
	grid := p.grid
	if !p.meets(out.light) {
		grid = rateGrid(p.light/8, p.light, gridStep)
	}
	var probeErr error
	out.maxRPS, out.probes = searchRate(grid, func(rate float64) bool {
		if probeErr != nil {
			return false
		}
		// A probe that fails is run once more on a fresh stream, so that a
		// burst of host noise does not halve the search range.
		for try := 0; try < 2; try++ {
			settle()
			ph, err := load(rate, p.probe, fmt.Sprintf("probe-%.0f-%d", rate, try), p.abortLate)
			if err != nil {
				probeErr = err
				return false
			}
			ok := p.meets(ph)
			e.logf("probe %.0f/s: %s -> %v", rate, ph.describe(p.sloP99MS), ok)
			if ok {
				return true
			}
		}
		return false
	})
	return out, probeErr
}

// servedMetrics fills the latency and capacity metrics of a serving run.
func servedMetrics(r *result, s *servedRun) {
	r.metrics["light.p50_ms"] = s.light.windowed(0.50)
	r.metrics["light.p99_ms"] = s.light.windowed(0.99)
	r.metrics["busy.p50_ms"] = s.busy.windowed(0.50)
	r.metrics["busy.p99_ms"] = s.busy.windowed(0.99)
	r.metrics["max_rps_at_slo"] = s.maxRPS
	for _, ph := range []*phase{s.light, s.busy} {
		r.attempted += ph.issued + ph.abandoned
		r.failed += ph.failed + ph.abandoned
	}
}
