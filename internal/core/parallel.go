package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"reghd/internal/hdc"
)

// rowErr pairs a row index with its error so parallel batch paths report
// the first failure in row order regardless of worker scheduling.
type rowErr struct {
	row int
	err error
}

// firstRowErr returns the recorded error with the lowest row index, or nil.
func firstRowErr(errs []rowErr) error {
	var first error
	best := -1
	for _, re := range errs {
		if re.err != nil && (best < 0 || re.row < best) {
			best = re.row
			first = re.err
		}
	}
	return first
}

// clampWorkers resolves a worker count request against n items: 0 means
// GOMAXPROCS, and the count never exceeds the number of items.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// forEachRowParallelCtx is the one row fan-out: it splits [0, n) into
// contiguous per-worker chunks and calls fn(worker, row) for every row, so
// callers can keep per-worker state (scratch, op counters) indexed by
// worker. Each worker stops its chunk at its first error, and the error of
// the lowest failing row is returned. With one worker (or one row) it runs
// inline as worker 0.
//
// Every worker checks ctx before each row, so a deadline or cancellation
// stops the batch at row granularity instead of running it to completion.
// The reported error for a cancelled row wraps ctx.Err(). The background
// context's Err is a constant nil, so the uncancellable path pays only a
// dynamic method call per row — noise against a D-dimensional prediction.
func forEachRowParallelCtx(ctx context.Context, n, workers int, fn func(worker, row int) error) error {
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: row %d cancelled: %w", i, err)
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]rowErr, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if err := ctx.Err(); err != nil {
					errs[w] = rowErr{row: i, err: fmt.Errorf("core: row %d cancelled: %w", i, err)}
					return
				}
				if err := fn(w, i); err != nil {
					errs[w] = rowErr{row: i, err: err}
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return firstRowErr(errs)
}

// workerCounters returns one private op counter per worker of a fan-out
// that charges into total, or nil entries when total is nil (counting
// off): workers never share a plain Counter, and the caller adds theirs
// into total afterwards.
func workerCounters(total *hdc.Counter, workers int) []*hdc.Counter {
	ctrs := make([]*hdc.Counter, workers)
	if total != nil {
		for w := range ctrs {
			ctrs[w] = &hdc.Counter{}
		}
	}
	return ctrs
}

// PredictBatchParallel predicts every row of xs using the given number of
// worker goroutines (0 means GOMAXPROCS). Prediction only reads model
// state, so workers share the model and carry private pooled scratch —
// the data parallelism the paper highlights as inherent to HD computing.
// Every row runs the same per-row path as Predict, stage timing included.
// Operation counting is aggregated across workers into InferCounter, on
// both the success and the failure path, so instrumentation stays
// consistent with the work actually performed; on error the failure with
// the lowest row index is returned.
func (m *Model) PredictBatchParallel(xs [][]float64, workers int) ([]float64, error) {
	if !m.trained {
		return nil, ErrNotTrained
	}
	workers = clampWorkers(workers, len(xs))
	ctrs := workerCounters(m.InferCounter, workers)
	out := make([]float64, len(xs))
	err := forEachRowParallelCtx(context.Background(), len(xs), workers, func(w, i int) error {
		sc := m.scratch.get()
		y, err := m.predictRow(ctrs[w], xs[i], sc, m.Stages)
		m.scratch.put(sc)
		if err != nil {
			return fmt.Errorf("core: predicting row %d: %w", i, err)
		}
		out[i] = y
		return nil
	})
	// Merge per-worker counters before the error check: a failed batch
	// must still account for the operations its workers performed.
	for _, ctr := range ctrs {
		m.InferCounter.AddCounter(ctr)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
