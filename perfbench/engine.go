package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"reghd"
)

// engine-stream: an in-process reghd.Engine from NewPipelineEngine over a
// wine-shaped model (n=11, D=4096, k=8, ClusterBinary). One open-loop lane
// calls Engine.PredictCtx while one writer lane calls Engine.PartialFit at
// 200 updates/s with the default publish-every 64, so the engine
// republishes about three times a second. There is no HTTP and no
// registry: encode dominates a predict, and reads run beside writes.

const (
	engineDim       = 4096
	engineModels    = 8
	engineEpochs    = 3
	engineWriteRate = 200.0

	// Rates sized on a 2-vCPU virtual machine, where one predict takes
	// about 0.33 ms and scheduling stalls of a few ms reach p99 at any
	// rate; the 10 ms limit puts max_rps_at_slo at the queueing knee.
	engineLight   = 600.0 // 20% and 60% of one lane's capacity
	engineBusy    = 1800.0
	engineSLOMS   = 10.0
	engineGridTop = 4800.0
)

// engineInputs are the generated inputs of one engine-stream run.
type engineInputs struct {
	checkpoint string
	stream     *reghd.Dataset // PartialFit samples, in order
	test       *reghd.Dataset // prediction queries and the test_mse set
}

// newEngineInputs splits wine-shaped data 60/20/20 into train, stream and
// test rows and writes the model trained on the first part. The data set,
// the split and the model's seeds are fixed (datasetSeed); the workload
// seed draws the order of the PartialFit stream.
func newEngineInputs(e *env) (*engineInputs, error) {
	data, err := reghd.SyntheticDataset("wine", datasetSeed)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(seedFor(datasetSeed, "engine-split"))).Perm(data.Len())
	n1, n2 := data.Len()*6/10, data.Len()*8/10
	train, stream, test := data.Subset(perm[:n1]), data.Subset(perm[n1:n2]), data.Subset(perm[n2:])
	stream.Shuffle(rand.New(rand.NewSource(seedFor(e.seed, "engine-stream"))))
	enc, err := reghd.NewEncoder(data.Features(), engineDim, seedFor(datasetSeed, "engine-enc"))
	if err != nil {
		return nil, err
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = engineModels
	cfg.Epochs = engineEpochs
	cfg.ClusterMode = reghd.ClusterBinary
	cfg.Seed = seedFor(datasetSeed, "engine-cfg")
	m, err := reghd.NewModel(enc, cfg)
	if err != nil {
		return nil, err
	}
	p := reghd.NewPipeline(m)
	if _, err := p.Fit(train); err != nil {
		return nil, err
	}
	in := &engineInputs{checkpoint: filepath.Join(e.work, "engine.gob"), stream: stream, test: test}
	return in, p.SaveFile(in.checkpoint)
}

// openEngine is the set-up being timed: load the checkpoint and wrap it in
// a serving engine.
func openEngine(path string) (*reghd.Engine, error) {
	p, err := reghd.LoadPipelineFile(path)
	if err != nil {
		return nil, err
	}
	return reghd.NewPipelineEngine(p)
}

// engineLoad drives the two lanes and checks every answer: each y must be
// finite and PublishSeq must never decrease as seen from either lane.
type engineLoad struct {
	e      *env
	eng    *reghd.Engine
	in     *engineInputs
	order  []int // query order over the test rows
	wpos   int   // next stream row the writer applies
	tr     *tracer
	r      *result           // receives failed output checks
	writes map[string]*phase // writer phase per stream part
	// advanced records, per traced write, whether it advanced PublishSeq.
	advanced []bool
	// cpu and wcpu hold the thread CPU time (µs) of every predict and
	// every write of the light and busy segments.
	cpu, wcpu []float64
}

func (l *engineLoad) run(rate float64, d time.Duration, part string, abortLate time.Duration) (*phase, error) {
	rng := rand.New(rand.NewSource(seedFor(l.e.seed, "engine-"+part)))
	due := poissonArrivals(rng, rate, d)
	wdue := evenArrivals(engineWriteRate, int(engineWriteRate*d.Seconds()))
	ctx := context.Background()
	flag := func(format string, args ...any) { l.r.fail(part+": "+format, args...) }
	start := l.wpos
	stream := l.in.stream
	var wph *phase
	wcpu := make([]float64, len(wdue))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		wph = openLoop(wdue, 1, 0, func(_, i int) error {
			j := (start + i) % stream.Len()
			seq0 := l.eng.PublishSeq()
			s := l.tr.begin("engine.PartialFit", int64(i), -1)
			c0 := threadCPU()
			err := l.eng.PartialFit(stream.X[j], stream.Y[j])
			wcpu[i] = us(threadCPU() - c0)
			l.tr.end(s)
			seq := l.eng.PublishSeq()
			if l.tr != nil {
				l.advanced = append(l.advanced, seq > seq0)
			}
			if seq < last || seq < seq0 {
				flag("PublishSeq went back from %d to %d", max(last, seq0), seq)
			}
			last = seq
			return err
		})
	}()
	var last uint64
	cpu := make([]float64, len(due))
	ph := openLoop(due, 1, abortLate, func(_, i int) error {
		x := l.in.test.X[l.order[i%len(l.order)]]
		s := l.tr.begin("engine.PredictCtx", int64(i), -1)
		c0 := threadCPU()
		y, err := l.eng.PredictCtx(ctx, x)
		cpu[i] = us(threadCPU() - c0)
		l.tr.end(s)
		if err != nil {
			return err
		}
		if l.e.tamper && part == "light-0" && i == 0 {
			y = math.NaN()
		}
		if math.IsNaN(y) || math.IsInf(y, 0) {
			flag("request %d answered %v", i, y)
		}
		if seq := l.eng.PublishSeq(); seq < last {
			flag("PublishSeq went back from %d to %d", last, seq)
		} else {
			last = seq
		}
		return nil
	})
	wg.Wait()
	l.wpos += len(wdue)
	l.writes[part] = wph
	if strings.HasPrefix(part, "light") || strings.HasPrefix(part, "busy") {
		l.cpu = append(l.cpu, cpu[:ph.issued]...)
		l.wcpu = append(l.wcpu, wcpu[:wph.issued]...)
	}
	return ph, nil
}

// testMSE scores the published snapshot on the test rows.
func (l *engineLoad) testMSE() (float64, error) {
	ys, err := l.eng.PredictBatch(l.in.test.X)
	if err != nil {
		return 0, err
	}
	return reghd.MSE(ys, l.in.test.Y)
}

func runEngine(e *env) (*result, error) {
	in, err := newEngineInputs(e)
	if err != nil {
		return nil, err
	}
	settle()
	rss := startRSS(os.Getpid())
	var setups []float64
	var eng *reghd.Engine
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if eng, err = openEngine(in.checkpoint); err != nil {
			rss.finish()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r := newResult()
	l := &engineLoad{e: e, eng: eng, in: in, r: r, writes: map[string]*phase{}}
	l.order = rand.New(rand.NewSource(seedFor(e.seed, "engine-order"))).Perm(in.test.Len())
	if e.trace {
		rss.finish()
		return traceEngine(e, l)
	}
	r.metrics["setup_s"] = median(setups)

	plan := newServedPlan(e.seconds, engineLight, engineBusy, engineSLOMS, engineGridTop)
	var mse float64
	var mseErr error
	run, err := runServed(e, plan, func(rate float64, d time.Duration, part string, abortLate time.Duration) (*phase, error) {
		ph, err := l.run(rate, d, part, abortLate)
		if part == fmt.Sprintf("busy-%d", segments-1) {
			// The model has now absorbed a fixed number of updates, so the
			// score is the same on every run with this seed.
			mse, mseErr = l.testMSE()
		}
		return ph, err
	})
	peak := rss.finish()
	if err != nil {
		return nil, err
	}
	if mseErr != nil {
		return nil, mseErr
	}
	servedMetrics(r, run)
	updates := &phase{}
	for s := 0; s < segments; s++ {
		for _, part := range []string{"light", "busy"} {
			updates.merge(l.writes[fmt.Sprintf("%s-%d", part, s)])
		}
	}
	r.attempted += updates.issued
	r.failed += updates.failed
	r.metrics["predict_us"] = median(l.cpu)
	r.metrics["train_us"] = median(l.wcpu)
	r.metrics["update.p50_ms"] = updates.windowed(0.50)
	r.metrics["update.p99_ms"] = updates.windowed(0.99)
	r.metrics["test_mse"] = mse
	r.metrics["peak_rss_mb"] = peak
	e.logf("engine: %d publishes, %d probes", eng.PublishSeq(), run.probes)
	return r, nil
}

// traceEngine is engine-stream's traced run: an untraced phase at the
// light rate, then the same rate with engine metrics on and spans around
// Engine.PredictCtx and Engine.PartialFit.
func traceEngine(e *env, l *engineLoad) (*result, error) {
	r := l.r
	if _, err := l.run(engineLight, time.Second, "warm", 0); err != nil {
		return nil, err
	}
	m0 := readMemStats()
	plain, err := l.run(engineLight, time.Duration(0.3*e.seconds*float64(time.Second)), "light-0", 0)
	if err != nil {
		return nil, err
	}
	m1 := readMemStats()
	plainWrites := l.writes["light-0"]
	l.eng.EnableMetrics()
	l.tr = &tracer{}
	ph, err := l.run(engineLight, time.Duration(0.5*e.seconds*float64(time.Second)), "traced", 0)
	if err != nil {
		return nil, err
	}
	for _, p := range []*phase{plain, plainWrites, ph, l.writes["traced"]} {
		r.attempted += p.issued
		r.failed += p.failed
	}

	cost := us(spanCost())
	predict := durationsUS(l.tr.durations("engine.PredictCtx"))
	for i := range predict {
		predict[i] -= cost
	}
	var fitUS, publishMS []float64
	for i, d := range l.tr.durations("engine.PartialFit") {
		if l.advanced[i] {
			publishMS = append(publishMS, ms(d)-cost/1e3)
		} else {
			fitUS = append(fitUS, us(d)-cost)
		}
	}
	m := l.eng.Metrics()
	engineLayers(e, r, predict, m.Stages, m.Robustness.RequestsShed)
	r.metrics["core.partial_fit_us.p50"] = percentile(fitUS, 0.50)
	r.metrics["core.publish_ms.p50"] = percentile(publishMS, 0.50)
	r.metrics["loadgen.lag_p99_ms"] = percentile(ph.lag, 0.99)
	r.metrics["trace.overhead_ratio"] = mean(ph.service) / mean(plain.service)
	runtimeMetrics(r, m0, m1, plain.wall, plain.issued+plainWrites.issued)

	predictMean := mean(predict)
	engineOwn := float64(m.Predict.MeanNS) / 1e3
	e.logf("reconcile engine-stream: span mean %.1f us vs the engine's own Predict mean %.1f us (residual %.1f us over %d calls; %d writes, %d of them published)",
		predictMean, engineOwn, predictMean-engineOwn, len(predict), len(fitUS)+len(publishMS), len(publishMS))
	return r, nil
}
