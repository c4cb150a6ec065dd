package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the exact q-quantile (0 ≤ q ≤ 1) of xs by the
// nearest-rank rule: the smallest value with at least q·n values at or
// below it. Latencies are kept raw and ranked exactly, never bucketed.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// On a shared virtual machine the host's CPU steal only ever adds time, in
// bursts that can cover a large part of a run. A figure taken over several
// windows or repeats of a run is therefore reported at the quartile least
// disturbed by it: the lower quartile of times, the upper quartile of rates.
func quietTime(xs []float64) float64 { return percentile(xs, 0.25) }
func quietRate(xs []float64) float64 { return percentile(xs, 0.75) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// durationsMS and durationsUS convert durations to fractional
// milliseconds/microseconds.
func durationsMS(ds []time.Duration) []float64 { return scale(durationsUS(ds), 1e-3) }

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

// scale returns xs multiplied by f.
func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
