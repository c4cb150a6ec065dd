package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"reghd"
	"reghd/internal/core"
	"reghd/internal/repl"
)

// train-sync: offline training, batch prediction and replica sync on
// ccpp-shaped data (9568×4, DefaultConfig, cosine similarity, D=4096,
// k=8). Training encode, the update loop, the bundling merge, the batch
// fan-out and the delta wire format and fold run only here; the serving
// layers are bypassed.

const (
	trainDim     = 4096
	trainModels  = 8
	trainEpochs  = 3
	trainWorkers = 2
	replicas     = 3
	// Each replica trains on this many samples between sync rounds.
	roundSamples = 64
	// This many PredictBatch rows are checked against Pipeline.Predict.
	trainChecked = 32
)

type trainInputs struct {
	train, test *reghd.Dataset
	seed        int64 // draws the order of the replicas' training stream
}

// newTrainInputs splits the fixed ccpp-shaped data set 75/25 (datasetSeed).
func newTrainInputs(e *env) (*trainInputs, error) {
	data, err := reghd.SyntheticDataset("ccpp", datasetSeed)
	if err != nil {
		return nil, err
	}
	train, test, err := data.Split(rand.New(rand.NewSource(seedFor(datasetSeed, "train-split"))), 0.25)
	if err != nil {
		return nil, err
	}
	return &trainInputs{train: train, test: test, seed: e.seed}, nil
}

// newTrainPipeline is the set-up being timed: the encoder, the model and
// the pipeline around it.
func (in *trainInputs) newPipeline() (*reghd.Pipeline, error) {
	enc, err := reghd.NewEncoder(in.train.Features(), trainDim, seedFor(datasetSeed, "train-enc"))
	if err != nil {
		return nil, err
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = trainModels
	cfg.Epochs = trainEpochs
	cfg.Seed = seedFor(datasetSeed, "train-cfg")
	m, err := reghd.NewModel(enc, cfg)
	if err != nil {
		return nil, err
	}
	return reghd.NewPipeline(m), nil
}

// fitCost is what one FitParallel call cost per training row applied.
type fitCost struct {
	cpuUS      float64 // process CPU time per row, µs
	rowsPerSec float64 // rows per second of wall time
}

// fit trains a fresh pipeline with FitParallel and returns it with its
// cost.
func (in *trainInputs) fit() (*reghd.Pipeline, *reghd.ParallelTrainResult, fitCost, error) {
	p, err := in.newPipeline()
	if err != nil {
		return nil, nil, fitCost{}, err
	}
	t0, c0 := time.Now(), selfCPU()
	res, err := p.FitParallel(in.train, trainWorkers)
	wall, cpu := time.Since(t0), selfCPU()-c0
	if err != nil {
		return nil, nil, fitCost{}, err
	}
	return p, res, fitCost{cpuUS: us(cpu) / float64(res.Rows), rowsPerSec: float64(res.Rows) / wall.Seconds()}, nil
}

// fleet of replicas on one in-process Network, driven from one goroutine.
type replFleet struct {
	reps   []*repl.Replica
	stream [][]float64 // standardized training rows
	ys     []float64
	pos    int
	round  uint64
	tr     *tracer
	seal   int // open Seal span, parent of the sends it makes
	send   int // open send span, parent of the Receive it causes
	// payloads holds one sealed delta per traced round, wire-checked
	// after the round.
	payloads [][]byte
}

// tracedTransport records a span around every send a Seal's flush makes.
type tracedTransport struct {
	f    *replFleet
	next repl.Transport
}

func (t tracedTransport) Send(ctx context.Context, to int, msg repl.Message) error {
	f := t.f
	f.send = f.tr.begin("repl.Flush.send", int64(msg.Seq), f.seal)
	err := t.next.Send(ctx, to, msg)
	f.tr.end(f.send)
	if f.tr != nil && msg.From == 0 && to == 1 {
		f.payloads = append(f.payloads, msg.Payload)
	}
	return err
}

func newReplFleet(p *reghd.Pipeline, in *trainInputs) (*replFleet, error) {
	std, err := p.Scaler().Transform(in.train)
	if err != nil {
		return nil, err
	}
	std.Shuffle(rand.New(rand.NewSource(seedFor(in.seed, "train-stream"))))
	f := &replFleet{stream: std.X, ys: std.Y, seal: -1, send: -1}
	net := repl.NewNetwork()
	for id := 0; id < replicas; id++ {
		rep, err := repl.New(p.Model().Clone(), repl.Config{ID: id, Members: replicas}, tracedTransport{f: f, next: net})
		if err != nil {
			return nil, err
		}
		f.reps = append(f.reps, rep)
		net.Register(id, func(msg repl.Message) error {
			s := f.tr.begin("repl.Receive", int64(msg.Seq), f.send)
			err := rep.Receive(msg)
			f.tr.end(s)
			return err
		})
	}
	return f, nil
}

// syncRound trains every replica on its next samples (not timed), then
// seals the round on each replica in turn and returns the time from the
// first Seal until all replicas have folded the round.
func (f *replFleet) syncRound(ctx context.Context) (time.Duration, error) {
	for _, rep := range f.reps {
		for i := 0; i < roundSamples; i++ {
			j := f.pos % len(f.stream)
			f.pos++
			if err := rep.PartialFit(f.stream[j], f.ys[j]); err != nil {
				return 0, err
			}
		}
	}
	f.round++
	t0 := time.Now()
	for _, rep := range f.reps {
		f.seal = f.tr.begin("repl.Seal", int64(f.round), -1)
		err := rep.Seal(ctx)
		f.tr.end(f.seal)
		if err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	for id, rep := range f.reps {
		if got := rep.Round(); got != f.round {
			return 0, fmt.Errorf("replica %d folded round %d, want %d (last error %v)", id, got, f.round, rep.LastErr())
		}
	}
	return d, nil
}

// converged checks that every replica reports the same state fingerprint.
func (f *replFleet) converged(r *result, tamper bool) {
	want := f.reps[0].Fingerprint()
	for id, rep := range f.reps[1:] {
		got := rep.Fingerprint()
		if tamper && id == 0 {
			got ^= 1
		}
		if got != want {
			r.fail("replica %d fingerprint %016x differs from replica 0's %016x after round %d", id+1, got, want, f.round)
		}
	}
	r.attempted++
}

// checkBatch compares a seeded sample of PredictBatch rows, bit for bit,
// with Pipeline.Predict on the same row.
func checkBatch(r *result, e *env, p *reghd.Pipeline, xs [][]float64, ys []float64) error {
	rng := rand.New(rand.NewSource(seedFor(e.seed, "train-check")))
	for k := 0; k < trainChecked; k++ {
		i := rng.Intn(len(xs))
		want, err := p.Predict(xs[i])
		if err != nil {
			return err
		}
		if e.tamper && k == 0 {
			want = math.Float64frombits(math.Float64bits(want) ^ 1)
		}
		if math.Float64bits(ys[i]) != math.Float64bits(want) {
			r.fail("PredictBatch row %d is %v, Pipeline.Predict gives %v", i, ys[i], want)
		}
		r.attempted++
	}
	return nil
}

func runTrain(e *env) (*result, error) {
	// One Go processor: FitParallel's two workers and PredictBatch's
	// fan-out still run, interleaved, and the process CPU per row is their
	// work. With two, the figures moved by up to 30% on identical code as
	// the shared host placed the two vCPUs differently from hour to hour.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in, err := newTrainInputs(e)
	if err != nil {
		return nil, err
	}
	settle()
	if e.trace {
		return traceTrain(e, in)
	}
	r := newResult()
	rss := startRSS(os.Getpid())
	defer rss.finish()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := in.newPipeline(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.metrics["setup_s"] = median(setups)

	// Training: repeat the same seeded fit; every repeat must reach the
	// same state.
	budget := time.Duration(e.seconds * float64(time.Second))
	var p *reghd.Pipeline
	var rates, fitCPU []float64
	var print uint64
	for t0 := time.Now(); len(rates) < 3 || time.Since(t0) < budget*45/100; {
		settle()
		q, _, cost, err := in.fit()
		r.attempted++
		if err != nil {
			return nil, err
		}
		fp := q.Model().StateFingerprint()
		if p == nil {
			p, print = q, fp
		} else if fp != print {
			r.fail("FitParallel repeat %d reached state %016x, the first reached %016x", len(rates), fp, print)
		}
		rates = append(rates, cost.rowsPerSec)
		fitCPU = append(fitCPU, cost.cpuUS)
	}
	r.metrics["fit_rows_per_s"] = quietRate(rates)
	r.metrics["train_us"] = median(fitCPU)

	// Batch prediction over the held-out rows.
	var prates, predictCPU []float64
	var first []float64
	settle()
	for t0 := time.Now(); len(prates) < 3 || time.Since(t0) < budget*20/100; {
		b0, c0 := time.Now(), selfCPU()
		ys, err := p.PredictBatch(in.test.X)
		wall, cpu := time.Since(b0), selfCPU()-c0
		r.attempted++
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = ys
			if err := checkBatch(r, e, p, in.test.X, ys); err != nil {
				return nil, err
			}
		}
		prates = append(prates, float64(len(ys))/wall.Seconds())
		predictCPU = append(predictCPU, us(cpu)/float64(len(ys)))
	}
	r.metrics["predict_rows_per_s"] = quietRate(prates)
	r.metrics["predict_us"] = median(predictCPU)
	if r.metrics["test_mse"], err = reghd.MSE(first, in.test.Y); err != nil {
		return nil, err
	}

	// Replica sync rounds.
	f, err := newReplFleet(p, in)
	if err != nil {
		return nil, err
	}
	var rounds []float64
	settle()
	ctx := context.Background()
	for t0 := time.Now(); len(rounds) < 5 || time.Since(t0) < budget*35/100; {
		d, err := f.syncRound(ctx)
		r.attempted++
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, ms(d))
	}
	r.metrics["sync_round_ms"] = quietTime(rounds)
	f.converged(r, e.tamper)
	r.metrics["peak_rss_mb"] = rss.finish()
	e.logf("train: %d fits, %d batches of %d rows, %d sync rounds", len(rates), len(prates), in.test.Len(), len(rounds))
	return r, nil
}

// traceTrain is train-sync's traced run: one fit with its training
// counters, timed passes of the public encoder, stage-timed batch
// prediction, the fitted model served row by row through an engine, and
// sync rounds first untraced and then with spans around
// Seal, each send of its flush, Receive, and the delta wire format.
func traceTrain(e *env, in *trainInputs) (*result, error) {
	r := newResult()
	p, res, _, err := in.fit()
	if err != nil {
		return nil, err
	}
	r.attempted++
	r.metrics["core.epoch_ms"] = float64(res.WallNS) / 1e6 / float64(res.Epochs)
	r.metrics["core.merge_share"] = float64(res.MergeNS) / float64(res.WallNS)

	std, err := p.Scaler().Transform(in.train)
	if err != nil {
		return nil, err
	}
	enc := p.Model().Encoder()
	t0 := time.Now()
	for _, x := range std.X {
		if _, err := enc.Encode(nil, x); err != nil {
			return nil, err
		}
	}
	r.metrics["encoding.train_pass_ms"] = ms(time.Since(t0))

	stages := p.EnableStageTiming()
	var perRow []float64
	var calls int64
	rows := 0
	for k := 0; k < 3; k++ {
		c0 := stages.Stat(reghd.StageEncode).Calls
		t0 := time.Now()
		ys, err := p.PredictBatch(in.test.X)
		wall := time.Since(t0)
		calls += stages.Stat(reghd.StageEncode).Calls - c0
		if err != nil {
			return nil, err
		}
		perRow = append(perRow, us(wall)/float64(len(ys)))
		rows += len(ys)
		r.attempted++
		if k == 0 {
			if err := checkBatch(r, e, p, in.test.X, ys); err != nil {
				return nil, err
			}
		}
	}
	r.metrics["core.batch_us_per_row"] = median(perRow)
	// Encode-stage calls per batch row: one per row when batch prediction
	// reports its stages, zero where it bypasses the stage clock.
	r.metrics["core.stage_calls_per_row"] = float64(calls) / float64(rows)
	if err := traceServedModel(e, r, p, in.test.X); err != nil {
		return nil, err
	}

	f, err := newReplFleet(p, in)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	n := max(5, int(e.seconds*4))
	for k := 0; k < 5; k++ { // warm-up
		if _, err := f.syncRound(ctx); err != nil {
			return nil, err
		}
	}
	var plain, traced []float64
	m0 := readMemStats()
	t0 = time.Now()
	for k := 0; k < n; k++ {
		d, err := f.syncRound(ctx)
		if err != nil {
			return nil, err
		}
		plain = append(plain, ms(d))
	}
	wall := time.Since(t0)
	m1 := readMemStats()
	f.tr = &tracer{}
	for k := 0; k < n; k++ {
		d, err := f.syncRound(ctx)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ms(d))
	}
	r.attempted += 2 * n
	f.converged(r, e.tamper)
	runtimeMetrics(r, m0, m1, wall, n)
	r.metrics["trace.overhead_ratio"] = mean(traced) / mean(plain)

	// Wire format: decode and re-encode one sealed delta per round; the
	// re-encoding must reproduce the payload byte for byte.
	var encMS, decMS, kb []float64
	for _, b := range f.payloads {
		t0 := time.Now()
		d, err := core.DecodeDelta(b)
		decMS = append(decMS, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		again, err := d.Encode()
		encMS = append(encMS, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		r.attempted++
		if !bytes.Equal(again, b) {
			r.fail("re-encoding a decoded %d-byte delta gave %d different bytes", len(b), len(again))
		}
		kb = append(kb, float64(len(b))/1024)
	}
	r.metrics["repl.delta_kb"] = median(kb)
	r.metrics["repl.encode_ms"] = median(encMS)
	r.metrics["repl.decode_ms"] = median(decMS)

	cost := ms(spanCost())
	net := func(ds []time.Duration) []float64 {
		out := durationsMS(ds)
		for i := range out {
			out[i] -= cost
		}
		return out
	}
	// Means, so that the layers add up to a round. Per Seal: its own work
	// (delta, encode, own fold) and the time its flush spent delivering to
	// the peers, which includes their Receive.
	r.metrics["repl.seal_ms"] = mean(net(f.tr.selfTimes("repl.Seal")))
	r.metrics["repl.flush_ms"] = mean(net(f.tr.durations("repl.Flush.send"))) * (replicas - 1)
	r.metrics["repl.receive_ms"] = mean(net(f.tr.durations("repl.Receive")))
	layers := float64(replicas) * (r.metrics["repl.seal_ms"] + r.metrics["repl.flush_ms"])
	e.logf("reconcile train-sync: sync round mean %.3f ms = %d × (seal %.3f + flush %.3f) ms + residual %.3f ms (flush includes %d × receive %.3f ms)",
		mean(traced), replicas, r.metrics["repl.seal_ms"], r.metrics["repl.flush_ms"], mean(traced)-layers,
		replicas-1, r.metrics["repl.receive_ms"])
	return r, nil
}

// traceServedModel serves the fitted pipeline through NewPipelineEngine,
// one PredictCtx per held-out row with a span around each, and fills the
// engine and stage metrics from the spans and the engine's own counters.
// Every answer must equal Pipeline.Predict on the same row.
func traceServedModel(e *env, r *result, p *reghd.Pipeline, xs [][]float64) error {
	eng, err := reghd.NewPipelineEngine(p)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, x := range xs[:min(len(xs), 256)] { // warm-up
		if _, err := eng.PredictCtx(ctx, x); err != nil {
			return err
		}
	}
	eng.EnableMetrics()
	tr := &tracer{}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		s := tr.begin("engine.PredictCtx", int64(i), -1)
		ys[i], err = eng.PredictCtx(ctx, x)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	if err := checkBatch(r, e, p, xs, ys); err != nil {
		return err
	}
	cost := us(spanCost())
	predict := durationsUS(tr.durations("engine.PredictCtx"))
	for i := range predict {
		predict[i] -= cost
	}
	m := eng.Metrics()
	engineLayers(e, r, predict, m.Stages, m.Robustness.RequestsShed)
	return nil
}
