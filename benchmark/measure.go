package main

// The measured phase and the run of one workload. All loops are closed:
// a worker issues its next op only after the previous one completed,
// because the callers of this system (sweep scripts, CI jobs, hsmconf)
// wait for each reply.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// options are the settings of one invocation.
type options struct {
	seconds float64 // length of the measured phase
	procs   int     // GOMAXPROCS, RunGrid workers, HTTP clients
	quick   bool    // ~5 ops per workload, one pass, one set-up
	outDir  string  // where traced runs write their span files
}

// outcome is what one op computed: a digest over everything simulated
// (makespans, sccsim.CoreStats, program output — or the grid report or
// response bytes that carry them), the baseline_ps/rcce_ps ratio of each
// simulated cell, and the failed check if any.
type outcome struct {
	digest   [sha256.Size]byte
	speedups []float64
	fail     string
}

// instance is one workload, set up from a seed and ready to run.
type instance interface {
	// size is the length of the op list.
	size() int
	// workers is the closed-loop concurrency: 1 or procs.
	workers() int
	// run executes op i untraced. Several workers call it concurrently
	// when workers() > 1.
	run(worker, i int) outcome
	// traced reruns the list with spans recorded and fills the
	// per-layer ledger.
	traced(tr *tracer, led ledger) tracedResult
	close()
}

// failureLog counts failed ops and keeps the first few descriptions.
type failureLog struct {
	failed   int
	failures []string
}

// maxFailuresShown bounds the failure descriptions a result carries.
const maxFailuresShown = 5

func (l *failureLog) fail(i int, msg string) {
	l.failed++
	if len(l.failures) < maxFailuresShown {
		l.failures = append(l.failures, fmt.Sprintf("op %d: %s", i, msg))
	}
}

// warmUp runs, untimed, the first op of each distinct key of inst's list,
// so pools and page tables exist before anything is measured.
func warmUp(inst instance, key func(i int) string) error {
	warmed := make(map[string]bool)
	for i := 0; i < inst.size(); i++ {
		k := key(i)
		if warmed[k] {
			continue
		}
		warmed[k] = true
		if out := inst.run(0, i); out.fail != "" {
			return fmt.Errorf("warm-up op %d (%s): %s", i, k, out.fail)
		}
	}
	return nil
}

// tracedResult summarises a traced pass.
type tracedResult struct {
	failureLog
	attempted int
	digest    string // sim_digest as the traced run computed it
	// plain and traced are the wall times of the same ops executed
	// without and with spans; their ratio is the tracing overhead.
	plain, traced time.Duration
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. The last instance is the one measured.
const setupRepeats = 5

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, untraced (end-to-end metrics) or
// traced (per-layer metrics).
type result struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Traced        bool                   `json:"traced"`
	Correct       bool                   `json:"correct"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	Failures      []string               `json:"failures,omitempty"`
	Ops           int                    `json:"ops"`
	Passes        int                    `json:"passes"`
	BeyondP95     int                    `json:"samples_beyond_p95"`
	SimDigest     string                 `json:"sim_digest"`
	SetupWallS    float64                `json:"setup_wall_s"`
	MeasuredWallS float64                `json:"measured_wall_s"`
	Metrics       map[string]metricValue `json:"metrics"`
}

// digestOf folds per-op digests, in list order, into one hex string.
func digestOf(outs []outcome) string {
	h := sha256.New()
	for i := range outs {
		h.Write(outs[i].digest[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostDelta is process-level accounting over an interval.
type hostDelta struct {
	wall, cpu time.Duration
	mallocs   uint64
	gcCycles  uint32
	gcPauseNs uint64
	start     time.Time
	cpu0      time.Duration
	mem0      runtime.MemStats
}

func startHost() *hostDelta {
	h := &hostDelta{}
	runtime.ReadMemStats(&h.mem0)
	h.cpu0 = cpuTime()
	h.start = time.Now()
	return h
}

func (h *hostDelta) stop() {
	h.wall = time.Since(h.start)
	h.cpu = cpuTime() - h.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	h.mallocs = m.Mallocs - h.mem0.Mallocs
	h.gcCycles = m.NumGC - h.mem0.NumGC
	h.gcPauseNs = m.PauseTotalNs - h.mem0.PauseTotalNs
}

// chunksPerPass is how many chunks a pass over the list is cut into. A
// chunk — a few ops, a few hundred requests, some 100-300 ms of work —
// is the unit whose wall and CPU time are compared across passes.
const chunksPerPass = 16

// mark is the clock at a chunk boundary.
type mark struct {
	chunk int // which chunk of the list begins here; -1 at the end of the phase
	wall  time.Time
	cpu   time.Duration
}

// phase is the raw record of a measured phase.
type phase struct {
	// samples[i] are op i's latencies in ms, one per pass.
	samples [][]float64
	// marks are the chunk boundaries in the order they were crossed.
	marks []mark
	// passAlloc are the bytes allocated by each completed pass.
	passAlloc []uint64
	first     []outcome // the first pass, by list index
	failureLog
}

// measure runs inst's op list in a closed loop on inst.workers()
// workers, cycling through the list until d has elapsed and the first
// pass is complete. The first pass defines the outcomes; every later
// execution of an op must reproduce its first outcome bit-for-bit.
func measure(inst instance, d time.Duration) *phase {
	n, workers := inst.size(), inst.workers()
	chunk := max(1, n/chunksPerPass)
	ph := &phase{samples: make([][]float64, n), first: make([]outcome, n)}
	var (
		next atomic.Int64
		mu   sync.Mutex // guards ph and alloc0
		wg   sync.WaitGroup
		mem  runtime.MemStats
	)
	runtime.GC() // set-up garbage is not the measured phase's to collect
	runtime.ReadMemStats(&mem)
	alloc0 := mem.TotalAlloc
	deadline := time.Now().Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n && !time.Now().Before(deadline) {
					return
				}
				i := k % n
				if i%chunk == 0 {
					// A chunk boundary. With several workers the last
					// ops of the ending chunk are still in flight, so a
					// chunk's cost is exact only up to that overlap.
					mu.Lock()
					if i == 0 && k > 0 {
						runtime.ReadMemStats(&mem)
						ph.passAlloc = append(ph.passAlloc, mem.TotalAlloc-alloc0)
						alloc0 = mem.TotalAlloc
					}
					ph.marks = append(ph.marks, mark{i / chunk, time.Now(), cpuTime()})
					mu.Unlock()
				}
				t0 := time.Now()
				out := inst.run(w, i)
				lat := ms(time.Since(t0))
				mu.Lock()
				ph.samples[i] = append(ph.samples[i], lat)
				switch {
				case out.fail != "":
					ph.fail(i, out.fail)
					if k < n {
						ph.first[i] = out
					}
				case k < n:
					ph.first[i] = out
				case out.digest != ph.first[i].digest:
					ph.fail(i, "outcome differs from the first pass")
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// The closing mark completes the last chunk only if the phase ended
	// on a chunk boundary, which a single -quick pass always does.
	if executed := int(next.Load()) - workers; executed%n == 0 {
		ph.marks = append(ph.marks, mark{-1, time.Now(), cpuTime()})
		if len(ph.passAlloc) == 0 {
			runtime.ReadMemStats(&mem)
			ph.passAlloc = append(ph.passAlloc, mem.TotalAlloc-alloc0)
		}
	}
	return ph
}

// typicalPass adds up, over the chunks of the list, the median wall and
// CPU time of each chunk's executions: the cost of a pass in which every
// chunk runs at its typical speed.
func (ph *phase) typicalPass() (wall, cpu time.Duration) {
	walls := make(map[int][]float64)
	cpus := make(map[int][]float64)
	for j := 0; j+1 < len(ph.marks); j++ {
		a, b := ph.marks[j], ph.marks[j+1]
		walls[a.chunk] = append(walls[a.chunk], float64(b.wall.Sub(a.wall)))
		cpus[a.chunk] = append(cpus[a.chunk], float64(b.cpu-a.cpu))
	}
	for c := range walls {
		wall += time.Duration(median(walls[c]))
		cpu += time.Duration(median(cpus[c]))
	}
	return wall, cpu
}

// runWorkload sets a workload up, runs it untraced or traced, checks its
// outputs and returns its metrics.
func runWorkload(w *workloadDecl, seed int64, traced bool, opt options) (*result, error) {
	repeats := setupRepeats
	if opt.quick {
		repeats = 1
	}
	var (
		inst       instance
		setupTimes []float64
	)
	setupStart := time.Now()
	for r := 0; r < repeats; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.Setup(seed, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer inst.close()
	res := &result{
		Workload: w.Name, Seed: seed, Traced: traced,
		SetupWallS: time.Since(setupStart).Seconds(),
		Metrics:    make(map[string]metricValue),
	}
	phaseStart := time.Now()
	if traced {
		if err := runTraced(w, inst, res, opt); err != nil {
			return nil, err
		}
	} else {
		runMeasured(inst, res, median(setupTimes), opt)
	}
	res.MeasuredWallS = time.Since(phaseStart).Seconds()
	res.Correct = res.Failed == 0
	return res, nil
}

// runMeasured runs the measured phase and derives the end-to-end
// metrics. The list is executed several times over, and every timing is
// the median of its repetitions, which another tenant of the host
// slowing some of the passes does not move. An op's latency is the
// median of its executions and percentiles are nearest-rank over the
// list's ops; throughput and CPU per op come from the median execution
// of each chunk of the list; allocation per op is the median over
// completed passes.
func runMeasured(inst instance, res *result, setupS float64, opt options) {
	ph := measure(inst, time.Duration(opt.seconds*float64(time.Second)))
	n := float64(inst.size())
	var speedups, latency, alloc []float64
	for i := range ph.first {
		speedups = append(speedups, ph.first[i].speedups...)
		res.Attempted += len(ph.samples[i])
		latency = append(latency, median(ph.samples[i]))
	}
	for _, a := range ph.passAlloc {
		alloc = append(alloc, float64(a)/1024/n)
	}
	sort.Float64s(latency)
	wall, cpu := ph.typicalPass()
	res.Ops = inst.size()
	res.Passes = len(ph.passAlloc)
	res.Failed = ph.failed
	res.Failures = ph.failures
	res.BeyondP95 = samplesBeyond(res.Attempted, 95)
	res.SimDigest = digestOf(ph.first)
	values := map[string]float64{
		"setup_s":             setupS,
		"ops_per_s":           n / wall.Seconds(),
		"op_ms_p50":           percentile(latency, 50),
		"op_ms_p95":           percentile(latency, 95),
		"cpu_ms_per_op":       ms(cpu) / n,
		"alloc_kb_per_op":     median(alloc),
		"sim_speedup_geomean": geomean(speedups),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
}

func runTraced(w *workloadDecl, inst instance, res *result, opt options) error {
	tr := newTracer()
	led := make(ledger)
	runtime.GC()
	host := startHost()
	tres := inst.traced(tr, led)
	host.stop()
	res.Attempted, res.Failed, res.Failures = tres.attempted, tres.failed, tres.failures
	res.Ops, res.Passes = tres.attempted, 1
	res.SimDigest = tres.digest
	ops := float64(tres.attempted)
	led["host.peak_rss_mb"] = peakRSSMiB()
	led["host.gc_cycles"] = float64(host.gcCycles)
	led["host.gc_pause_ms"] = float64(host.gcPauseNs) / 1e6
	led["host.mallocs_per_op"] = ratio(float64(host.mallocs), ops)
	led["host.cpu_util"] = ratio(host.cpu.Seconds(), host.wall.Seconds()*float64(opt.procs))
	led["bench.cache.hit_ratio"] = ratio(led["bench.cache.hits"], led["bench.cache.hits"]+led["bench.cache.misses"])
	if tres.traced > 0 {
		led["host.trace_overhead_frac"] = 1 - tres.plain.Seconds()/tres.traced.Seconds()
	}
	if extra := led.undeclared(); len(extra) > 0 {
		return fmt.Errorf("%s: ledger has undeclared metrics %v", w.Name, extra)
	}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{led[m.Name], m.Unit}
	}
	if _, err := selfTimes(tr.spans); err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	return tr.writeChrome(fmt.Sprintf("%s/%s.trace.json", opt.outDir, w.Name))
}
