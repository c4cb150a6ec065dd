package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// procStatusKB reads one "Key:   N kB" field of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, bool) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0, false
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			return v, err == nil
		}
	}
	return 0, false
}

// threadCPU is the CPU time the calling thread has run (Linux
// CLOCK_THREAD_CPUTIME_ID). Time the host steals from the virtual CPU, and
// time the thread waits to be scheduled, is not in it.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// selfCPU is the CPU time every thread of this process has run (Linux
// CLOCK_PROCESS_CPUTIME_ID); like threadCPU it leaves out stolen time.
func selfCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU sums the CPU time every thread of process pid has run, from
// /proc/<pid>/task/*/schedstat (nanoseconds on the CPU).
func processCPU(pid int) (time.Duration, error) {
	dir := "/proc/" + strconv.Itoa(pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", dir, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// rssSampler tracks the peak resident set of a process over a window by
// polling VmRSS. It is used for the benchmark's own process, whose
// lifetime peak (VmHWM) would include input generation.
type rssSampler struct {
	pid  int
	once sync.Once
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak float64 // kB
}

func startRSS(pid int) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if v, ok := procStatusKB(s.pid, "VmRSS"); ok {
		s.mu.Lock()
		s.peak = max(s.peak, v)
		s.mu.Unlock()
	}
}

// finish stops polling and returns the peak in MiB. It may be called
// more than once.
func (s *rssSampler) finish() float64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak / 1024
}

// settle collects this process's garbage and returns freed memory to the
// OS between measured parts of a run, so that one part's garbage neither
// inflates the next part's resident set nor is collected on its time.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// memStats is the part of runtime.MemStats the runtime metrics use: read
// in this process, or from the memstats expvar of the server.
type memStats struct {
	HeapAlloc  uint64
	TotalAlloc uint64
	NumGC      uint32
	PauseNs    [256]uint64
}

func readMemStats() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{HeapAlloc: m.HeapAlloc, TotalAlloc: m.TotalAlloc, NumGC: m.NumGC, PauseNs: m.PauseNs}
}

// runtimeMetrics fills the runtime layer's metrics from two memstats
// readings taken around a phase of `ops` operations. The pause ring holds
// the last 256 collections, so the pause p99 covers at most those.
func runtimeMetrics(r *result, m0, m1 memStats, wall time.Duration, ops int) {
	r.metrics["runtime.gc_per_s"] = float64(m1.NumGC-m0.NumGC) / wall.Seconds()
	var pauses []float64
	for n := max(m0.NumGC, m1.NumGC-min(m1.NumGC, 256)); n < m1.NumGC; n++ {
		pauses = append(pauses, float64(m1.PauseNs[n%256])/1e6)
	}
	r.metrics["runtime.gc_pause_p99_ms"] = 0
	if len(pauses) > 0 {
		r.metrics["runtime.gc_pause_p99_ms"] = percentile(pauses, 0.99)
	}
	r.metrics["runtime.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(max(ops, 1))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the git commit when the checkout is
// a git work tree, else "none".
func commitID() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the checkout
// (outside .bench_build), so a result names the code it measured even
// where the checkout is not a git work tree.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runContext is recorded with every result.
type runContext struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256_16"`
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newRunContext(workload string, seed int64, seconds int, trace bool) runContext {
	wd, _ := os.Getwd()
	return runContext{
		Commit:     commitID(),
		Source:     sourceDigest(wd),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
	}
}
