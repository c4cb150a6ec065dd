package core

import (
	"context"
	"fmt"
	"math"

	"reghd/internal/dataset"
	"reghd/internal/hdc"
)

// TrainResult summarizes an iterative training run.
type TrainResult struct {
	// Epochs is the number of passes actually performed.
	Epochs int
	// History holds the monitored MSE after each epoch: the prequential
	// training MSE (prediction-before-update), or the validation MSE when
	// a validation set was supplied.
	History []float64
	// Converged reports whether the run stopped on the convergence test
	// rather than the epoch cap or the callback.
	Converged bool
	// FinalMSE is the last entry of History.
	FinalMSE float64
}

// trainCache holds the per-sample encodings computed once before the
// iterative passes: the bit-packed bipolar encodings always, and the raw
// encodings (as float32 to halve memory) when the prediction mode reads the
// raw query.
type trainCache struct {
	packed []*hdc.Binary
	raw    [][]float32
	y      []float64
}

// prepare encodes the whole training set. Encoding cost is charged to the
// training counter once per sample; the hardware cost model charges it once
// per epoch, matching a streaming implementation that re-encodes each pass.
func (m *Model) prepare(train *dataset.Dataset) (*trainCache, error) {
	if err := train.Validate(); err != nil {
		return nil, err
	}
	if train.Features() != m.enc.Features() {
		return nil, fmt.Errorf("core: dataset has %d features, encoder expects %d", train.Features(), m.enc.Features())
	}
	c := &trainCache{
		packed: make([]*hdc.Binary, train.Len()),
		y:      train.Y,
	}
	needRaw := m.cfg.PredictMode.UsesRawQuery()
	if needRaw {
		c.raw = make([][]float32, train.Len())
	}
	// Encoding is embarrassingly parallel (the encoder is read-only);
	// it dominates Fit's cost, so spread it over the available cores with
	// per-worker operation counters merged afterwards, also when a row
	// fails.
	workers := clampWorkers(0, train.Len())
	ctrs := workerCounters(m.TrainCounter, workers)
	err := forEachRowParallelCtx(context.Background(), train.Len(), workers, func(w, i int) error {
		sc := m.scratch.get()
		defer m.scratch.put(sc)
		e, err := m.encode(ctrs[w], train.X[i], sc)
		if err != nil {
			return fmt.Errorf("core: encoding row %d: %w", i, err)
		}
		c.packed[i] = e.packed.Clone()
		if needRaw {
			r := make([]float32, m.dim)
			for j, v := range e.raw {
				r[j] = float32(v)
			}
			c.raw[i] = r
		}
		return nil
	})
	for _, ctr := range ctrs {
		m.TrainCounter.AddCounter(ctr)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// update applies the Eq. 7 model update and the Eq. 8 cluster update for
// one sample, using the similarities/confidences left by predictTraining.
//
// The update vector matches the query representation of the prediction
// kernel (bipolar S for binary-query modes — the paper's Eq. 2/7 — raw H
// for raw-query modes): mixing representations turns the recursion into an
// asymmetric sign-data LMS that can diverge. The step is normalized by
// D/‖u‖² (NLMS) so that one update moves ŷ by exactly α·(y−ŷ) for every
// representation; for bipolar S the factor is 1 and the update reduces to
// the paper's M ← M + α(y−ŷ)S verbatim.
func (m *Model) update(ctr *hdc.Counter, e encoded, y, yhat float64) {
	m.samples++
	errv := y - yhat
	u := e.s
	gain := m.cfg.LearningRate
	if m.cfg.PredictMode.UsesRawQuery() {
		u = e.raw
		norm2 := hdc.Dot(ctr, u, u)
		if norm2 < 1e-12 {
			return
		}
		gain *= float64(m.dim) / norm2
	}
	if m.cfg.Models == 1 {
		hdc.AXPY(ctr, m.models[0], gain*errv, u)
		return
	}
	// Assignment census: bookkeeping only, so it recomputes the argmax with
	// a nil counter rather than disturbing the charged op counts.
	m.assignN[hdc.Argmax(nil, m.sims)]++
	switch m.cfg.UpdateRule {
	case UpdateWeighted:
		for i := range m.models {
			hdc.AXPY(ctr, m.models[i], gain*errv*m.conf[i], u)
		}
	case UpdateHardMax:
		l := hdc.Argmax(ctr, m.conf)
		hdc.AXPY(ctr, m.models[l], gain*errv, u)
	}
	// Cluster update (Eq. 8): pull the most-similar center toward the
	// sample, damped by (1−δ_l) so dominant patterns cannot saturate it.
	// Naive binarization has no updatable cluster state.
	if m.cfg.ClusterMode != ClusterNaiveBinary {
		l := hdc.Argmax(ctr, m.sims)
		hdc.AXPY(ctr, m.clusters[l], 1-m.sims[l], e.s)
	}
}

// trainOne replays one cached sample through the training pipeline —
// unpack, predict-before-update, Eq. 7/8 update — and returns the squared
// prequential error. It is the shared inner step of the sequential epoch
// and the per-shard worker passes of FitParallel.
func (m *Model) trainOne(cache *trainCache, idx int, scratchS, scratchRaw hdc.Vector) float64 {
	e := encoded{packed: cache.packed[idx], s: scratchS}
	hdc.UnpackInto(scratchS, cache.packed[idx])
	if cache.raw != nil {
		for j, v := range cache.raw[idx] {
			scratchRaw[j] = float64(v)
		}
		e.raw = scratchRaw
	}
	yhat := m.predictTraining(m.TrainCounter, e)
	d := cache.y[idx] - yhat
	m.update(m.TrainCounter, e, cache.y[idx], yhat)
	return d * d
}

// epoch runs one training pass in a shuffled order and returns the
// prequential MSE.
func (m *Model) epoch(cache *trainCache, scratchS, scratchRaw hdc.Vector) float64 {
	n := len(cache.packed)
	order := m.rng.Perm(n)
	var sqErr float64
	for _, idx := range order {
		sqErr += m.trainOne(cache, idx, scratchS, scratchRaw)
	}
	m.refreshBinaryShadows(m.TrainCounter)
	m.calibrate(cache, scratchS, scratchRaw)
	return sqErr / float64(n)
}

// calibrate refits the (a, b) output correction of binary-model modes by
// least squares of the training targets on the uncalibrated deployment
// predictions. It uses at most calibSamples samples per epoch.
const calibSamples = 512

func (m *Model) calibrate(cache *trainCache, scratchS, scratchRaw hdc.Vector) {
	if !m.cfg.PredictMode.UsesBinaryModel() {
		return
	}
	n := len(cache.packed)
	step := 1
	if n > calibSamples {
		step = n / calibSamples
	}
	var fit calibFit
	for idx := 0; idx < n; idx += step {
		e := encoded{packed: cache.packed[idx], s: scratchS}
		hdc.UnpackInto(scratchS, cache.packed[idx])
		if cache.raw != nil {
			for j, v := range cache.raw[idx] {
				scratchRaw[j] = float64(v)
			}
			e.raw = scratchRaw
		}
		fit.add(m.mixture(m.TrainCounter, e, m.modelDot, m.sims, m.conf, nil), cache.y[idx])
	}
	m.calibA, m.calibB = fit.solve()
}

// calibFit accumulates the least-squares fit of targets y on uncalibrated
// deployment predictions p that gives the binary-model output calibration
// y ≈ a·p + b. calibrate and RefreshShadows share it.
type calibFit struct {
	sp, sy, spp, spy, cnt float64
}

func (f *calibFit) add(p, y float64) {
	f.sp += p
	f.sy += y
	f.spp += p * p
	f.spy += p * y
	f.cnt++
}

// solve returns (a, b). A near-constant prediction (variance below 1e-12)
// carries no slope information, so it falls back to a = 1, b = mean(y).
func (f *calibFit) solve() (a, b float64) {
	varP := f.spp/f.cnt - (f.sp/f.cnt)*(f.sp/f.cnt)
	if varP < 1e-12 {
		return 1, f.sy / f.cnt
	}
	a = (f.spy/f.cnt - f.sp/f.cnt*f.sy/f.cnt) / varP
	return a, f.sy/f.cnt - a*f.sp/f.cnt
}

// Fit trains the model on train with iterative passes until the
// convergence criterion or the epoch cap is reached.
func (m *Model) Fit(train *dataset.Dataset) (*TrainResult, error) {
	return m.fit(train, nil, nil)
}

// FitWithValidation trains like Fit but monitors convergence on the MSE of
// the supplied validation set instead of the prequential training MSE.
func (m *Model) FitWithValidation(train, val *dataset.Dataset) (*TrainResult, error) {
	if err := val.Validate(); err != nil {
		return nil, fmt.Errorf("core: validation set: %w", err)
	}
	return m.fit(train, val, nil)
}

// FitCallback trains like Fit, invoking cb after every epoch with the epoch
// index (1-based) and the monitored MSE. Returning false stops training
// early; the run is then reported as not converged.
func (m *Model) FitCallback(train *dataset.Dataset, cb func(epoch int, mse float64) bool) (*TrainResult, error) {
	return m.fit(train, nil, cb)
}

func (m *Model) fit(train, val *dataset.Dataset, cb func(int, float64) bool) (*TrainResult, error) {
	cache, err := m.prepare(train)
	if err != nil {
		return nil, err
	}
	return m.fitCache(cache, val, cb)
}

// fitCache is the iterative-training loop over an already-encoded cache;
// fit and the single-worker path of FitParallel share it so both run the
// identical sequential algorithm.
func (m *Model) fitCache(cache *trainCache, val *dataset.Dataset, cb func(int, float64) bool) (*TrainResult, error) {
	scratchS := hdc.NewVector(m.dim)
	var scratchRaw hdc.Vector
	if cache.raw != nil {
		scratchRaw = hdc.NewVector(m.dim)
	}
	res := &TrainResult{}
	prev := math.Inf(1)
	streak := 0
	for ep := 1; ep <= m.cfg.Epochs; ep++ {
		mse := m.epoch(cache, scratchS, scratchRaw)
		m.trained = true
		if val != nil {
			vm, err := m.evalMSE(val)
			if err != nil {
				return nil, err
			}
			mse = vm
		}
		res.Epochs = ep
		res.History = append(res.History, mse)
		res.FinalMSE = mse
		if cb != nil && !cb(ep, mse) {
			return res, nil
		}
		// Convergence: relative improvement below Tol for Patience
		// consecutive epochs ("minor changes during a few consecutive
		// iterations").
		if prev > 0 && (prev-mse)/math.Max(prev, 1e-12) < m.cfg.Tol {
			streak++
			if streak >= m.cfg.Patience {
				res.Converged = true
				return res, nil
			}
		} else {
			streak = 0
		}
		prev = mse
	}
	return res, nil
}

// evalMSE computes the model's MSE on a dataset using the configured
// prediction pipeline (without charging the inference counter, so training
// instrumentation stays clean).
func (m *Model) evalMSE(d *dataset.Dataset) (float64, error) {
	saved := m.InferCounter
	m.InferCounter = nil
	defer func() { m.InferCounter = saved }()
	pred, err := m.PredictBatch(d.X)
	if err != nil {
		return 0, err
	}
	return dataset.MSE(pred, d.Y)
}

// Evaluate returns the model's MSE on a dataset; a convenience wrapper used
// by experiments and examples.
func (m *Model) Evaluate(d *dataset.Dataset) (float64, error) {
	if !m.trained {
		return 0, ErrNotTrained
	}
	if err := d.Validate(); err != nil {
		return 0, err
	}
	return m.evalMSE(d)
}
