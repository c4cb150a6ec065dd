package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the benchmark's open-loop load generator. Arrival times are
// drawn up front from the workload seed (Poisson arrivals at a fixed rate).
// Lanes take requests in arrival order. A request that finds every lane
// busy past its due time is timed from the moment it was due, so a stall
// in the program also charges the requests queued behind it. A lane that
// finds its next request not yet due sleeps until it is; how late it then
// wakes is the generator's own lag, reported on its own, and that request
// is timed from when it was sent.

// poissonArrivals returns the due offsets of a Poisson arrival process at
// rate requests/s over d.
func poissonArrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	limit := d.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return due
		}
		due = append(due, time.Duration(t*1e9))
	}
}

// evenArrivals returns n due offsets spaced 1/rate apart.
func evenArrivals(rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * 1e9)
	}
	return due
}

// phase is what one open-loop run of a request stream measured.
type phase struct {
	rate      float64
	issued    int
	failed    int
	latency   []float64 // ms, to completion from the due time (or the send, after a sleep); completed requests only
	service   []float64 // ms, from send to completion
	lag       []float64 // ms, how late a lane that was waiting woke up
	abandoned int       // requests never sent because the backlog exceeded the abort limit
	wall      time.Duration
}

// merge appends another phase's requests to p, in order.
func (p *phase) merge(q *phase) {
	p.issued += q.issued
	p.failed += q.failed
	p.abandoned += q.abandoned
	p.latency = append(p.latency, q.latency...)
	p.service = append(p.service, q.service...)
	p.lag = append(p.lag, q.lag...)
	p.wall += q.wall
}

// errorRatio counts abandoned requests as failed.
func (p *phase) errorRatio() float64 {
	n := p.issued + p.abandoned
	if n == 0 {
		return 0
	}
	return float64(p.failed+p.abandoned) / float64(n)
}

// growingBacklog reports whether requests waited longer at the end of the
// phase than at its start: the p50 latency of the last quarter of the
// requests exceeds twice that of the first quarter and also half the
// latency limit.
func (p *phase) growingBacklog(limitMS float64) bool {
	if p.abandoned > 0 {
		return true
	}
	n := len(p.latency)
	if n < 8 {
		return false
	}
	first := median(p.latency[:n/4])
	last := median(p.latency[n-n/4:])
	return last > 2*first && last > limitMS/2
}

// windowed splits the phase's completed requests, in arrival order, into
// windows of about 250 requests (3 to 12 of them) and returns the exact
// q-quantile within each window, reported at the least disturbed quartile
// of the windows (quietTime).
func (p *phase) windowed(q float64) float64 {
	return quietTime(windows(p.latency, q, min(12, max(3, len(p.latency)/250))))
}

// windows returns the q-quantile of each of k equal windows of xs.
func windows(xs []float64, q float64, k int) []float64 {
	if len(xs) < k {
		return []float64{percentile(xs, q)}
	}
	var per []float64
	for w := 0; w < k; w++ {
		per = append(per, percentile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q))
	}
	return per
}

// describe summarizes the phase for the report.
func (p *phase) describe(limitMS float64) string {
	return fmt.Sprintf("latency p50 %.3f p99 %.3f ms, service p50 %.3f ms, lag p50 %.3f p99 %.3f ms, %d sent, %d failed, %d abandoned, backlog %v",
		percentile(p.latency, 0.5), percentile(p.latency, 0.99), percentile(p.service, 0.5),
		percentile(p.lag, 0.5), percentile(p.lag, 0.99), p.issued, p.failed, p.abandoned, p.growingBacklog(limitMS))
}

// openLoop issues one request per due offset over `lanes` goroutines and
// waits for all of them. op(lane, i) performs request i and reports whether
// it failed. Once a lane starts a request more than abortLate after its due
// time, no further requests are sent (a growing backlog); abortLate <= 0
// never aborts.
func openLoop(due []time.Duration, lanes int, abortLate time.Duration, op func(lane, i int) error) *phase {
	n := len(due)
	lat := make([]float64, n)
	svc := make([]float64, n)
	lag := make([]float64, n)
	done := make([]bool, n)
	failed := make([]bool, n)
	slept := make([]bool, n)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			// A lane keeps its thread, so an op may read its thread's CPU
			// clock (threadCPU) before and after a call.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				dueAt := start.Add(due[i])
				if time.Until(dueAt) > 0 {
					sleepUntil(dueAt)
					slept[i] = true
				}
				sent := time.Now()
				if abortLate > 0 && sent.Sub(dueAt) > abortLate {
					stop.Store(true)
					return
				}
				err := op(lane, i)
				end := time.Now()
				lat[i] = ms(end.Sub(dueAt))
				if slept[i] {
					lat[i] = ms(end.Sub(sent))
				}
				svc[i] = ms(end.Sub(sent))
				lag[i] = ms(sent.Sub(dueAt))
				failed[i] = err != nil
				done[i] = true
			}
		}(l)
	}
	wg.Wait()
	p := &phase{wall: time.Since(start)}
	if len(due) > 0 {
		p.rate = float64(n) / math.Max(due[n-1].Seconds(), 1e-9)
	}
	for i := 0; i < n; i++ {
		if !done[i] {
			p.abandoned++
			continue
		}
		p.issued++
		if failed[i] {
			p.failed++
			continue
		}
		p.latency = append(p.latency, lat[i])
		p.service = append(p.service, svc[i])
		if slept[i] {
			p.lag = append(p.lag, lag[i])
		}
	}
	return p
}

// sleepUntil returns at t. The runtime's timers wake about half a
// millisecond late on some virtual machines, so the lane sleeps in the
// kernel until shortly before t and spins for the rest.
func sleepUntil(t time.Time) {
	const spin = 200 * time.Microsecond
	if w := time.Until(t) - spin; w > 0 {
		ts := syscall.NsecToTimespec(int64(w))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// rateGrid is a geometric grid of offered rates from lo to hi in steps of
// `step` (e.g. 1.04 for 4%).
func rateGrid(lo, hi, step float64) []float64 {
	var g []float64
	for r := lo; r <= hi*1.0000001; r *= step {
		g = append(g, r)
	}
	return g
}

// searchRate returns the highest grid rate for which probe passes, by
// bisection over the grid indices: grid[0] is taken to pass and the rate
// above the grid's top to fail. It also returns the number of probes run.
func searchRate(grid []float64, probe func(rate float64) bool) (float64, int) {
	lo, hi := 0, len(grid)
	probes := 0
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		probes++
		if probe(grid[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return grid[lo], probes
}
