package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"reghd"
)

// fleet-churn: a reghd-serve process in multi-model mode over 64 tenant
// checkpoints with 16 resident, driven over at most two keep-alive
// connections by open-loop Poisson arrivals whose tenants follow one
// global zipf law. Per-request compute is small, so HTTP/JSON, routing and
// checkpoint loads dominate: a hit sets p50 and a load sets p99.

const (
	fleetTenants  = 64
	fleetResident = 16
	fleetDim      = 1024
	fleetModels   = 8
	fleetZipfS    = 1.2
	fleetConns    = 2

	// About 30% and 65% of max_rps_at_slo (about 1400/s) on a 2-vCPU
	// virtual machine.
	fleetLight   = 400.0
	fleetBusy    = 900.0
	fleetSLOMS   = 20.0
	fleetGridTop = 4800.0

	// One request in fleetCheckEvery is checked against the same
	// checkpoint served in-process.
	fleetCheckEvery = 32
)

func tenantName(i int) string { return fmt.Sprintf("t%02d", i) }

// fleetTraining is what writing the tenant checkpoints measured.
type fleetTraining struct {
	cpu  []time.Duration // process CPU time of each tenant's Pipeline.Fit
	rows []int           // each tenant's training rows
	mse  []float64       // per tenant, on its held-out rows
}

// usPerRow is the CPU time per training row of each pair of neighbouring
// tenants (one DefaultConfig, one ClusterBinary), at the median over the
// pairs, so that a burst of host noise during a few fits does not move it.
func (ft *fleetTraining) usPerRow() float64 {
	var pairs []float64
	for i := 0; i+1 < len(ft.cpu); i += 2 {
		pairs = append(pairs, us(ft.cpu[i]+ft.cpu[i+1])/float64(ft.rows[i]+ft.rows[i+1]))
	}
	return median(pairs)
}

// writeFleet trains the tenant checkpoints, one after another (Fit spreads
// its encoding over the cores itself): airfoil-shaped data, n=5, D=1024,
// k=8, one epoch; even tenants use DefaultConfig, odd tenants
// ClusterBinary with PredictBinaryBoth. Each tenant trains on 80% of its
// data and is scored on the rest. This is input generation and is not part
// of set-up time; the CPU time of the fits is train_us. The fits run on
// one Go processor, so that their CPU time is Fit's work: spread over two
// vCPUs it moved by up to 30% on identical code as the shared host placed
// them differently.
func writeFleet(dir string, seed int64) (*fleetTraining, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ft := &fleetTraining{}
	for i := 0; i < fleetTenants; i++ {
		if err := writeTenant(dir, seed, i, ft); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

func writeTenant(dir string, seed int64, i int, ft *fleetTraining) error {
	name := tenantName(i)
	data, err := reghd.SyntheticDataset("airfoil", seedFor(seed, "tenant-data-"+name))
	if err != nil {
		return err
	}
	train, test, err := data.Split(rand.New(rand.NewSource(seedFor(seed, "tenant-split-"+name))), 0.2)
	if err != nil {
		return err
	}
	enc, err := reghd.NewEncoder(data.Features(), fleetDim, seedFor(seed, "tenant-enc-"+name))
	if err != nil {
		return err
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = fleetModels
	cfg.Epochs = 1
	cfg.Seed = seedFor(seed, "tenant-cfg-"+name)
	if i%2 == 1 {
		cfg.ClusterMode = reghd.ClusterBinary
		cfg.PredictMode = reghd.PredictBinaryBoth
	}
	m, err := reghd.NewModel(enc, cfg)
	if err != nil {
		return err
	}
	p := reghd.NewPipeline(m)
	c0 := selfCPU()
	if _, err := p.Fit(train); err != nil {
		return fmt.Errorf("training tenant %s: %w", name, err)
	}
	ft.cpu = append(ft.cpu, selfCPU()-c0)
	ft.rows = append(ft.rows, train.Len())
	ys, err := p.PredictBatch(test.X)
	if err != nil {
		return err
	}
	mse, err := reghd.MSE(ys, test.Y)
	if err != nil {
		return err
	}
	ft.mse = append(ft.mse, mse)
	return p.SaveFile(filepath.Join(dir, name+reghd.ModelExt))
}

// fleetStream is one open-loop request stream: arrival offsets and, per
// request, the tenant and the query row.
type fleetStream struct {
	due    []time.Duration
	tenant []int
	row    []int
}

func newFleetStream(seed int64, part string, rate float64, d time.Duration, rows int) *fleetStream {
	rng := rand.New(rand.NewSource(seedFor(seed, "fleet-"+part)))
	s := &fleetStream{due: poissonArrivals(rng, rate, d)}
	zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetTenants-1)
	for range s.due {
		s.tenant = append(s.tenant, int(zipf.Uint64()))
		s.row = append(s.row, rng.Intn(rows))
	}
	return s
}

// server is one reghd-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr chan struct{}
}

// startServer launches reghd-serve over the model directory and returns
// once /healthz answers.
func startServer(bin, dir string) (*server, error) {
	cmd := exec.Command(bin, "-models-dir", dir, "-max-resident", fmt.Sprint(fleetResident), "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// The server and the benchmark's client share the machine's two vCPUs.
	// With one Go processor the server's CPU per request is its work; with
	// two it also held the runtime's spinning for work, and moved by up to
	// 37% on identical code as the shared host placed the vCPUs differently.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting reghd-serve: %w", err)
	}
	s := &server{cmd: cmd, stderr: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stderr)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "serving on http://"); ok {
				select {
				case addr <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("reghd-serve did not report its address")
	case <-s.stderr:
		s.stop()
		return nil, fmt.Errorf("reghd-serve exited before serving")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("reghd-serve /healthz not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.stderr
	s.cmd.Wait()
}

// getJSON decodes one JSON endpoint of the server.
func (s *server) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *server) memstats() (memStats, error) {
	var v struct {
		Memstats memStats `json:"memstats"`
	}
	err := s.getJSON("/debug/vars", &v)
	return v.Memstats, err
}

func (s *server) registry() (reghd.RegistryMetrics, error) {
	var v struct {
		Registry reghd.RegistryMetrics `json:"reghd.registry"`
	}
	err := s.getJSON("/metrics", &v)
	return v.Registry, err
}

// heapAfterGC forces a collection in the server (the heap profile
// endpoint's gc=1) and returns the live heap it leaves.
func (s *server) heapAfterGC() (uint64, error) {
	resp, err := http.Get(s.base + "/debug/pprof/heap?gc=1")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	m, err := s.memstats()
	return m.HeapAlloc, err
}

// fleetClient sends the stream over at most fleetConns keep-alive
// connections and checks a sample of the answers.
type fleetClient struct {
	client *http.Client
	urls   []string // per tenant
	bodies [][]byte // per query row
}

func newFleetClient(base string, bodies [][]byte) *fleetClient {
	tr := &http.Transport{
		MaxIdleConns:        fleetConns,
		MaxIdleConnsPerHost: fleetConns,
		MaxConnsPerHost:     fleetConns,
		DisableCompression:  true,
	}
	c := &fleetClient{client: &http.Client{Transport: tr, Timeout: 5 * time.Second}, bodies: bodies}
	for i := 0; i < fleetTenants; i++ {
		c.urls = append(c.urls, base+"/predict/"+tenantName(i))
	}
	return c
}

func (c *fleetClient) predict(tenant, row int) (float64, error) {
	resp, err := c.client.Post(c.urls[tenant], "application/json", bytes.NewReader(c.bodies[row]))
	if err != nil {
		return 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	var out struct {
		Y *float64 `json:"y"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.Y == nil {
		return 0, fmt.Errorf("bad answer %q", b)
	}
	return *out.Y, nil
}

// run offers one stream and returns the phase plus every answer.
func (c *fleetClient) run(s *fleetStream, abortLate time.Duration) (*phase, []float64) {
	ys := make([]float64, len(s.due))
	ph := openLoop(s.due, fleetConns, abortLate, func(_, i int) error {
		y, err := c.predict(s.tenant[i], s.row[i])
		if err != nil {
			y = math.NaN() // counted as failed; not checked
		}
		ys[i] = y
		return err
	})
	return ph, ys
}

// fleetChecker compares sampled HTTP answers, bit for bit, with the same
// checkpoint served in-process through NewPipelineEngine.
type fleetChecker struct {
	dir     string
	rows    [][]float64
	engines map[int]*reghd.Engine
	tamper  bool
	checked int
}

func (k *fleetChecker) check(r *result, part string, s *fleetStream, ys []float64) error {
	for i := range s.due {
		if i%fleetCheckEvery != 0 || math.IsNaN(ys[i]) {
			continue
		}
		eng := k.engines[s.tenant[i]]
		if eng == nil {
			p, err := reghd.LoadPipelineFile(filepath.Join(k.dir, tenantName(s.tenant[i])+reghd.ModelExt))
			if err != nil {
				return err
			}
			if eng, err = reghd.NewPipelineEngine(p); err != nil {
				return err
			}
			k.engines[s.tenant[i]] = eng
		}
		want, err := eng.Predict(k.rows[s.row[i]])
		if err != nil {
			return err
		}
		if k.tamper && k.checked == 0 {
			want = math.Float64frombits(math.Float64bits(want) ^ 1)
		}
		k.checked++
		if math.Float64bits(ys[i]) != math.Float64bits(want) {
			r.fail("%s request %d to %s answered %v over HTTP, in-process %v", part, i, tenantName(s.tenant[i]), ys[i], want)
		}
	}
	return nil
}

// fleetInputs are the generated inputs of one fleet-churn run.
type fleetInputs struct {
	dir    string
	train  *fleetTraining
	rows   [][]float64
	bodies [][]byte
}

func newFleetInputs(e *env) (*fleetInputs, error) {
	in := &fleetInputs{dir: filepath.Join(e.work, "models")}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if in.train, err = writeFleet(in.dir, e.seed); err != nil {
		return nil, err
	}
	q, err := reghd.SyntheticDataset("airfoil", seedFor(e.seed, "queries"))
	if err != nil {
		return nil, err
	}
	in.rows = q.X
	for _, x := range q.X {
		b, err := json.Marshal(map[string][]float64{"x": x})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	return in, nil
}

func runFleet(e *env) (*result, error) {
	in, err := newFleetInputs(e)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceFleet(e, in)
	}
	r := newResult()
	// Set-up: start the server several times and keep the last one.
	var setups []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if srv, err = startServer(e.serveBin, in.dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	r.metrics["setup_s"] = median(setups)

	plan := newServedPlan(e.seconds, fleetLight, fleetBusy, fleetSLOMS, fleetGridTop)
	client := newFleetClient(srv.base, in.bodies)
	defer client.client.CloseIdleConnections()
	checker := &fleetChecker{dir: in.dir, rows: in.rows, engines: map[int]*reghd.Engine{}, tamper: e.tamper}
	// The server's CPU time per request of each light and busy segment.
	cpuPerReq := map[string][]float64{}
	run, err := runServed(e, plan, func(rate float64, d time.Duration, part string, abortLate time.Duration) (*phase, error) {
		s := newFleetStream(e.seed, part, rate, d, len(in.rows))
		fixed := strings.HasPrefix(part, "light") || strings.HasPrefix(part, "busy")
		c0, err := processCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		ph, ys := client.run(s, abortLate)
		if !fixed {
			return ph, nil
		}
		c1, err := processCPU(srv.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		name, _, _ := strings.Cut(part, "-")
		cpuPerReq[name] = append(cpuPerReq[name], us(c1-c0)/float64(ph.issued))
		return ph, checker.check(r, part, s, ys)
	})
	if err != nil {
		return nil, err
	}
	servedMetrics(r, run)
	// The median segment of each rate, averaged over the two rates.
	r.metrics["predict_us"] = (median(cpuPerReq["light"]) + median(cpuPerReq["busy"])) / 2
	r.metrics["train_us"] = in.train.usPerRow()
	r.metrics["test_mse"] = mean(in.train.mse)
	r.attempted += checker.checked
	hwm, ok := procStatusKB(srv.cmd.Process.Pid, "VmHWM")
	if !ok {
		return nil, fmt.Errorf("reading the server's peak RSS")
	}
	r.metrics["peak_rss_mb"] = hwm / 1024
	e.logf("fleet: server CPU per request (us) by segment: light %.1f, busy %.1f", cpuPerReq["light"], cpuPerReq["busy"])
	e.logf("fleet: %d requests checked bit-for-bit against in-process engines; %d probes", checker.checked, run.probes)
	return r, nil
}

// traceFleet is fleet-churn's traced run. It offers the light stream over
// HTTP (untraced; server counters and memstats around it), then replays
// the same stream in-process through a Registry, untraced and then with
// spans around Registry.Engine and Engine.PredictCtx.
func traceFleet(e *env, in *fleetInputs) (*result, error) {
	r := newResult()
	srv, err := startServer(e.serveBin, in.dir)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	h0, err := srv.heapAfterGC()
	if err != nil {
		return nil, err
	}
	fixed := time.Duration(0.4 * e.seconds * float64(time.Second))
	warm := newFleetStream(e.seed, "warm", fleetLight, time.Second, len(in.rows))
	light := newFleetStream(e.seed, "light", fleetLight, fixed, len(in.rows))
	client := newFleetClient(srv.base, in.bodies)
	defer client.client.CloseIdleConnections()
	client.run(warm, 0)
	c0, err := srv.registry()
	if err != nil {
		return nil, err
	}
	m0, err := srv.memstats()
	if err != nil {
		return nil, err
	}
	ph, ys := client.run(light, 0)
	c1, err := srv.registry()
	if err != nil {
		return nil, err
	}
	m1, err := srv.memstats()
	if err != nil {
		return nil, err
	}
	h1, err := srv.heapAfterGC()
	if err != nil {
		return nil, err
	}
	checker := &fleetChecker{dir: in.dir, rows: in.rows, engines: map[int]*reghd.Engine{}, tamper: e.tamper}
	if err := checker.check(r, "light", light, ys); err != nil {
		return nil, err
	}
	r.attempted += ph.issued + ph.abandoned + checker.checked
	r.failed += ph.failed + ph.abandoned

	routed := float64(c1.Routed - c0.Routed)
	loads := float64(c1.Loads - c0.Loads)
	r.metrics["registry.hit_ratio"] = (routed - loads) / routed
	r.metrics["registry.evictions_per_s"] = float64(c1.Evictions-c0.Evictions) / ph.wall.Seconds()
	r.metrics["registry.reported_kb_per_resident"] = float64(c1.ResidentBytes) / float64(c1.Residents) / 1024
	r.metrics["registry.heap_kb_per_resident"] = (float64(h1) - float64(h0)) / float64(c1.Residents) / 1024
	r.metrics["loadgen.lag_p99_ms"] = percentile(ph.lag, 0.99)
	runtimeMetrics(r, m0, m1, ph.wall, ph.issued)

	// In-process replays of the same warm-up and light streams; the first
	// only warms this process.
	if _, err := replayFleet(in, warm, light, nil); err != nil {
		return nil, err
	}
	plainRun, err := replayFleet(in, warm, light, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	tracedRun, err := replayFleet(in, warm, light, tr)
	if err != nil {
		return nil, err
	}
	plain, traced, hit := plainRun.meanUS, tracedRun.meanUS, tracedRun.hit
	cost := us(spanCost())
	var route, load, predict []float64
	engineSpans := tr.durations("registry.Engine")
	for i, d := range engineSpans {
		if hit[i] {
			route = append(route, us(d)-cost)
		} else {
			load = append(load, ms(d)-cost/1e3)
		}
	}
	for _, d := range tr.durations("engine.PredictCtx") {
		predict = append(predict, us(d)-cost)
	}
	reqs := tr.durations("request")
	httpMean := mean(ph.latency) * 1e3
	r.metrics["http.overhead_us"] = httpMean - plain
	r.metrics["registry.route_us.p50"] = percentile(route, 0.5)
	r.metrics["registry.load_ms.p50"] = percentile(load, 0.5)
	r.metrics["registry.load_ms.p99"] = percentile(load, 0.99)
	r.metrics["trace.overhead_ratio"] = traced / plain
	// Stage means come from the engines resident at the end, which serve
	// the hot tenants; the spans cover every request.
	engineLayers(e, r, predict, tracedRun.stages, tracedRun.shed)

	registryMean := mean(append(route, scale(load, 1e3)...))
	engineMean := mean(predict)
	sum := r.metrics["http.overhead_us"] + registryMean + engineMean
	e.logf("reconcile fleet-churn: HTTP mean %.1f us = http %.1f + registry %.1f + engine %.1f + residual %.1f us (%d requests, %d loads, span cost %.3f us)",
		httpMean, r.metrics["http.overhead_us"], registryMean, engineMean, httpMean-sum, len(reqs), len(load), cost)
	e.logf("memory: registry reports %.1f KiB per resident, server heap grew %.1f KiB per resident after GC (%d residents)",
		r.metrics["registry.reported_kb_per_resident"], r.metrics["registry.heap_kb_per_resident"], c1.Residents)
	return r, nil
}

// fleetReplay is what one in-process replay measured.
type fleetReplay struct {
	meanUS float64 // mean time per light request
	// Traced replays only: whether each light request's Registry.Engine
	// call was a hit, and the stage counters and shed count summed over the
	// engines resident at the end.
	hit    []bool
	stages reghd.StageSummary
	shed   uint64
}

// replayFleet sends the warm-up stream and then the light stream through a
// fresh in-process Registry over the same checkpoints, back to back from
// one goroutine. A traced replay records spans and turns on the engines'
// own metrics.
func replayFleet(in *fleetInputs, warm, light *fleetStream, tr *tracer) (*fleetReplay, error) {
	reg, err := reghd.NewRegistry(reghd.RegistryConfig{Dir: in.dir, MaxResident: fleetResident, MaxInFlight: 256, PublishEvery: 64, EngineMetrics: tr != nil})
	if err != nil {
		return nil, err
	}
	defer reg.EvictAll()
	ctx := context.Background()
	for i := range warm.due {
		if _, err := reg.PredictCtx(ctx, tenantName(warm.tenant[i]), in.rows[warm.row[i]]); err != nil {
			return nil, err
		}
	}
	names := make([]string, fleetTenants)
	for i := range names {
		names[i] = tenantName(i)
	}
	out := &fleetReplay{}
	t0 := time.Now()
	for i := range light.due {
		tenant, x := names[light.tenant[i]], in.rows[light.row[i]]
		root := tr.begin("request", int64(i), -1)
		var loads uint64
		if tr != nil {
			loads = reg.Metrics().Loads
		}
		s := tr.begin("registry.Engine", int64(i), root)
		eng, err := reg.Engine(tenant)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			out.hit = append(out.hit, reg.Metrics().Loads == loads)
		}
		s = tr.begin("engine.PredictCtx", int64(i), root)
		_, err = eng.PredictCtx(ctx, x)
		tr.end(s)
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	out.meanUS = us(time.Since(t0)) / float64(len(light.due))
	if tr != nil {
		for _, name := range reg.Residents() {
			if eng, ok := reg.Resident(name); ok {
				m := eng.Metrics()
				out.stages = addStages(out.stages, m.Stages)
				out.shed += m.Robustness.RequestsShed
			}
		}
	}
	return out, nil
}
