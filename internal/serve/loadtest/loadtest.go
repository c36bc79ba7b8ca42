// Package loadtest is the daemon's proof of correctness under load: a
// seeded generator of mixed request scenarios (compile-heavy fresh
// sources, cache-hot simulates, grid shards, synthetic sweeps, batches,
// deadline-doomed requests), a concurrent driver that fires them at an
// hsmccd server, and an oracle that computes every deterministic
// request's expected response by running the bench harness directly
// in-process — any byte of difference between what the HTTP path
// returned and what the direct run produced is a divergence.
//
// The harness also audits the daemon's resource discipline: goroutine
// counts must return to baseline once the server drains (no leaks),
// heap stays bounded, and throughput must rise with GOMAXPROCS (the
// scaling study). cmd/hsmccd -selftest and the CI load job both run it;
// docs/SERVING.md explains how to read the report.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hsmcc/internal/bench"
	"hsmcc/internal/serve"
	"hsmcc/internal/serve/chaos"
	"hsmcc/internal/synth"
)

// Kind names a request archetype in the mix.
type Kind string

// Request kinds.
const (
	KindCompile   Kind = "compile"   // compile-heavy: distinct fresh sources
	KindHot       Kind = "hot"       // cache-hot simulate: a small repeated pool
	KindSynth     Kind = "synth"     // synthetic-key simulates (sweep-ish)
	KindTranslate Kind = "translate" // translation pipeline
	KindGrid      Kind = "grid"      // small grid sweeps, NDJSON streams
	KindBatch     Kind = "batch"     // heterogeneous batches, NDJSON streams
	KindDoomed    Kind = "doomed"    // 1 ms deadline on heavy work: expect 504
	KindBad       Kind = "bad"       // malformed/over-limit: expect 400
)

// Options parameterises a scenario.
type Options struct {
	// Seed drives every random choice; same seed = same scenario.
	Seed int64
	// Requests is the total request count (default 200).
	Requests int
	// Concurrency is the number of concurrent clients (default 32).
	Concurrency int
	// Scale is the corpus problem-size multiplier (default 0.05 — the
	// harness is about traffic shape, not simulation size).
	Scale float64
	// HotOnly narrows the mix to the cache-hot scenario (the hit-rate
	// acceptance check).
	HotOnly bool
	// NoDoomed removes deadline-doomed requests from the mix (the
	// scaling study wants pure throughput).
	NoDoomed bool
	// Chaos, when non-nil, turns the scenario into a chaos run: the
	// server is built with a seeded fault injector, the driver retries
	// chaos-failed and shed responses with jittered exponential backoff
	// (honoring Retry-After), and the report gains the ChaosReport
	// audit (fault counts, slot-bound witness, drain check).
	Chaos *chaos.Plan
	// SlotBound overrides the server's MaxInFlight for chaos runs
	// (default 16 — small enough that the mix genuinely contends).
	SlotBound int
	// QueueBound overrides the server's MaxQueue for chaos runs.
	QueueBound int
}

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 200
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 32
	}
	if o.Scale <= 0 {
		o.Scale = 0.05
	}
	if o.SlotBound <= 0 {
		o.SlotBound = 16
	}
	if o.QueueBound == 0 {
		o.QueueBound = 256
	}
	return o
}

// Request is one planned request with its expectation.
type Request struct {
	Kind Kind
	Path string
	Body []byte
	// ExpectStatus is the required response status (0 = either 200 or
	// 504, the doomed-request allowance).
	ExpectStatus int
	// ExpectBody, when non-nil, must match the response body exactly.
	ExpectBody []byte
}

// Plan is a generated scenario: the request sequence plus bookkeeping.
type Plan struct {
	Opts     Options
	Requests []Request
}

// Divergence is one observed mismatch between the served response and
// the in-process oracle.
type Divergence struct {
	Kind   Kind   `json:"kind"`
	Path   string `json:"path"`
	Detail string `json:"detail"`
}

// Report is the outcome of one Run.
type Report struct {
	Scenario    string  `json:"scenario"`
	Seed        int64   `json:"seed"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	DurationMs  int64   `json:"duration_ms"`
	Throughput  float64 `json:"throughput_rps"`
	// Client-observed end-to-end latency percentiles (including retry
	// backoff), in milliseconds.
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP95Ms float64 `json:"latency_p95_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	// BadRequestIDs counts responses whose X-Request-Id header was
	// missing or malformed — every response, success or error, must
	// carry one (see RequestIDPattern).
	BadRequestIDs   int64            `json:"bad_request_ids"`
	StatusCounts    map[int]int64    `json:"status_counts"`
	KindCounts      map[Kind]int64   `json:"kind_counts"`
	DivergenceCount int              `json:"divergence_count"`
	Divergences     []Divergence     `json:"divergences,omitempty"`
	Cache           bench.CacheStats `json:"cache"`
	CacheHitRate    float64          `json:"cache_hit_rate"`
	GoroutinesStart int              `json:"goroutines_start"`
	GoroutinesEnd   int              `json:"goroutines_end"`
	HeapAllocMB     float64          `json:"heap_alloc_mb"`
	// Chaos is the fault-injection audit (chaos runs only).
	Chaos *ChaosReport `json:"chaos,omitempty"`
}

// ChaosReport audits one chaos run: what the injector did, how the
// client coped, and the two structural witnesses — the slot-bound
// high-water mark and the drain check.
type ChaosReport struct {
	Seed    int64       `json:"seed"`
	Faults  chaos.Stats `json:"faults"`
	Retries int64       `json:"retries"`
	// GaveUp counts requests that still held a chaos-marked (or shed)
	// failure after the retry budget; they are not divergences — the
	// correctness gate covers successful responses.
	GaveUp int64 `json:"gave_up"`
	// PeakInFlight is the gate's high-water mark; it must never exceed
	// SlotBound.
	PeakInFlight int64 `json:"peak_in_flight"`
	SlotBound    int64 `json:"slot_bound"`
	// Shed counts 503-shed admissions.
	Shed int64 `json:"shed"`
	// Panics is the server's recovered-panic counter.
	Panics int64 `json:"panics"`
	// DrainOK reports that the post-traffic drain check passed:
	// /healthz flipped to draining, new work was refused, and the
	// in-flight request was cut off by CancelInFlight within the drain
	// deadline.
	DrainOK bool `json:"drain_ok"`
	// DrainMs is how long the drain check took end to end.
	DrainMs int64 `json:"drain_ms"`
}

// maxDivergenceDetail caps the per-report divergence detail (the count
// is always exact).
const maxDivergenceDetail = 10

// hotPool is the cache-hot scenario's request pool: a handful of
// distinct cells each requested many times, so the steady state is
// almost pure cache hits on compile/translate/baseline.
func hotPool(scale float64) []serve.SimRequest {
	return []serve.SimRequest{
		{Workload: "pi", Cores: 4, Scale: scale, Policy: "size"},
		{Workload: "dot", Cores: 2, Scale: scale, Policy: "offchip"},
		{Workload: "primes", Cores: 4, Scale: scale, Policy: "size"},
		{Workload: "sum35", Cores: 2, Scale: scale, Policy: "freq"},
	}
}

// synthPool returns n small synthetic vectors (seeded): a few repeated
// sweep points plus genuinely fresh keys to exercise compiles and
// eviction.
func synthPool(seed int64, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		keys = append(keys, synth.ParamsForSeed(seed+int64(i)).Key())
	}
	return keys
}

// Generate builds the deterministic request plan for opts. Oracle
// expectations are NOT resolved here — Resolve computes them (it costs
// real simulation time and callers may want to time only the traffic).
// A generator bug (unmarshalable body) fails the scenario with an
// error like the rest of the driver; it never kills the harness.
func Generate(opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	hot := hotPool(opts.Scale)
	synthKeys := synthPool(opts.Seed, 6)
	freshSynth := synthPool(opts.Seed+1000, opts.Requests/8+1)
	freshIdx := 0

	plan := &Plan{Opts: opts}
	var genErr error
	add := func(k Kind, path string, body any, status int) {
		b, err := json.Marshal(body)
		if err != nil {
			if genErr == nil {
				genErr = fmt.Errorf("loadtest: marshal %T: %w", body, err)
			}
			return
		}
		plan.Requests = append(plan.Requests, Request{Kind: k, Path: path, Body: b, ExpectStatus: status})
	}

	for i := 0; i < opts.Requests; i++ {
		roll := rng.Float64()
		if opts.HotOnly {
			roll = 0 // everything lands in the hot bucket
		}
		switch {
		case roll < 0.40: // cache-hot simulate
			req := hot[rng.Intn(len(hot))]
			add(KindHot, "/v1/simulate", req, 200)
		case roll < 0.55: // compile-heavy: mostly fresh sources
			var key string
			if rng.Float64() < 0.7 && freshIdx < len(freshSynth) {
				key = freshSynth[freshIdx]
				freshIdx++
			} else {
				key = synthKeys[rng.Intn(len(synthKeys))]
			}
			add(KindCompile, "/v1/compile", serve.SimRequest{Workload: key, Cores: 2 + 2*rng.Intn(2), Scale: 1.0}, 200)
		case roll < 0.70: // synthetic simulate sweep points
			req := serve.SimRequest{
				Workload: synthKeys[rng.Intn(len(synthKeys))],
				Cores:    2 + 2*rng.Intn(2),
				Scale:    1.0,
				Policy:   []string{"size", "offchip", "profiled"}[rng.Intn(3)],
			}
			if req.Policy == "profiled" {
				req.MPBBudget = 512
			}
			add(KindSynth, "/v1/simulate", req, 200)
		case roll < 0.78: // translate
			req := hot[rng.Intn(len(hot))]
			req.Policy = []string{"size", "offchip"}[rng.Intn(2)]
			add(KindTranslate, "/v1/translate", req, 200)
		case roll < 0.84: // grid shard
			g := bench.Grid{
				Name:      "load",
				Workloads: []string{hot[rng.Intn(len(hot))].Workload},
				Cores:     []int{2, 4},
				Policies:  []string{"offchip", "size"},
				Scale:     opts.Scale,
			}
			add(KindGrid, "/v1/grid", serve.GridRequest{Grid: g, Parallel: 2}, 200)
		case roll < 0.92: // batch
			n := 2 + rng.Intn(3)
			items := make([]serve.BatchItem, 0, n)
			for j := 0; j < n; j++ {
				op := []string{"compile", "simulate", "translate"}[rng.Intn(3)]
				items = append(items, serve.BatchItem{Op: op, SimRequest: hot[rng.Intn(len(hot))]})
			}
			add(KindBatch, "/v1/batch", serve.BatchRequest{Items: items, Parallel: 2}, 200)
		case roll < 0.96 && !opts.NoDoomed: // doomed: 1 ms budget on heavy work
			req := serve.SimRequest{Workload: "lu", Cores: 8, Scale: 0.5, Policy: "size", DeadlineMs: 1}
			add(KindDoomed, "/v1/simulate", req, 0)
		default: // hostile: over-limit and malformed requests must 400
			bad := []serve.SimRequest{
				{Workload: "pi", Cores: 1 << 20},
				{Workload: "synth:nope"},
				{Workload: "no-such-workload"},
				{Workload: "pi", Cores: 4, Scale: 1e9},
			}[rng.Intn(4)]
			add(KindBad, "/v1/simulate", bad, 400)
		}
	}
	if genErr != nil {
		return nil, genErr
	}
	return plan, nil
}

// Resolve computes the oracle expectation for every deterministic
// request by running the bench harness directly in-process (serially,
// against a fresh unbounded cache — the reference the daemon must
// match byte-for-byte). Doomed and malformed requests keep status-only
// expectations.
func (p *Plan) Resolve() error {
	oracle := newOracle()
	for i := range p.Requests {
		r := &p.Requests[i]
		if r.ExpectStatus != 200 {
			continue
		}
		body, err := oracle.expect(r)
		if err != nil {
			return fmt.Errorf("loadtest: oracle for %s %s: %w", r.Path, r.Body, err)
		}
		r.ExpectBody = body
	}
	return nil
}

// oracle renders expected response bodies from direct in-process runs.
type oracle struct {
	cfgTemplate bench.Config
	// memo collapses identical request bodies to one computation.
	memo map[string][]byte
	srv  *serve.Server
}

func newOracle() *oracle {
	return &oracle{
		cfgTemplate: bench.DefaultConfig().PrecomputeMachineEnv(),
		memo:        make(map[string][]byte),
	}
}

// expect computes the canonical response for r.
//
// Compile/translate/simulate responses are rebuilt from direct
// bench.CompileBaseline / TranslateWorkload / RunBothBackends calls;
// grid streams from a direct serial bench.RunGrid; batch lines from the
// per-item singles. The serve response structs are reused so the JSON
// shape is identical by construction — what is being tested is that
// the daemon's concurrent, shared-cache, HTTP-framed path produces the
// same bytes as this serial direct path.
func (o *oracle) expect(r *Request) ([]byte, error) {
	key := r.Path + "\x00" + string(r.Body)
	if b, ok := o.memo[key]; ok {
		return b, nil
	}
	var body []byte
	var err error
	switch r.Path {
	case "/v1/compile", "/v1/translate", "/v1/simulate":
		var req serve.SimRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return nil, err
		}
		body, err = o.single(r.Path, req)
	case "/v1/grid":
		var req serve.GridRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return nil, err
		}
		body, err = o.grid(req)
	case "/v1/batch":
		var req serve.BatchRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return nil, err
		}
		body, err = o.batch(req)
	default:
		return nil, fmt.Errorf("no oracle for %s", r.Path)
	}
	if err != nil {
		return nil, err
	}
	o.memo[key] = body
	return body, nil
}

func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// single computes one compile/translate/simulate expectation using the
// direct bench API.
func (o *oracle) single(path string, req serve.SimRequest) ([]byte, error) {
	resp, err := o.direct(path, req)
	if err != nil {
		return nil, err
	}
	return marshalLine(resp)
}

// direct runs one operation through the bench harness (no HTTP, no
// shared cache) and shapes the serve response struct.
func (o *oracle) direct(path string, req serve.SimRequest) (any, error) {
	// Mirror the server's defaulting so oracle and daemon agree on the
	// effective request.
	if req.Cores == 0 {
		req.Cores = 4
	}
	if req.Scale == 0 {
		req.Scale = 1.0
	}
	if req.Policy == "" {
		req.Policy = "size"
	}
	w, ok := bench.ByKey(req.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", req.Workload)
	}
	policy, err := bench.ParsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	cfg := o.cfgTemplate
	cfg.Threads = req.Cores
	cfg.Scale = req.Scale
	cfg.MPBCapacity = req.MPBBudget
	cfg.Cache = bench.NewCache()

	switch path {
	case "/v1/compile":
		pr, err := bench.CompileBaseline(w, cfg)
		if err != nil {
			return nil, err
		}
		return &serve.CompileResponse{
			Workload:    req.Workload,
			Cores:       req.Cores,
			Scale:       req.Scale,
			Funcs:       len(pr.Funcs),
			SourceBytes: len(w.Source(req.Cores, req.Scale)),
		}, nil
	case "/v1/translate":
		tr, err := bench.TranslateWorkload(w, cfg, policy)
		if err != nil {
			return nil, err
		}
		resp := &serve.TranslateResponse{
			Workload:    req.Workload,
			Cores:       req.Cores,
			Scale:       req.Scale,
			Policy:      req.Policy,
			MPBBudget:   req.MPBBudget,
			OnChipBytes: tr.OnChipBytes,
			Source:      tr.Source,
		}
		if tr.Placement != nil {
			resp.PlacementDigest = tr.Placement.Digest()
		}
		return resp, nil
	case "/v1/simulate":
		both, err := bench.RunBothBackends(w, cfg, policy)
		if err != nil {
			return nil, err
		}
		return &serve.SimulateResponse{
			Workload:  req.Workload,
			Cores:     req.Cores,
			Scale:     req.Scale,
			Policy:    req.Policy,
			MPBBudget: req.MPBBudget,
			Outcome:   both.Outcome(),
		}, nil
	}
	return nil, fmt.Errorf("no oracle op for %s", path)
}

// grid renders the expected NDJSON stream from a direct serial RunGrid.
func (o *oracle) grid(req serve.GridRequest) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	_, err := bench.RunGrid(req.Grid, bench.RunOptions{
		Parallel: 1,
		OnResult: func(res bench.CellResult) { enc.Encode(res) },
	})
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// batch renders the expected NDJSON stream from per-item direct runs.
func (o *oracle) batch(req serve.BatchRequest) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, item := range req.Items {
		line := serve.BatchLine{Index: i, Op: item.Op}
		resp, err := o.direct("/v1/"+item.Op, item.SimRequest)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		switch item.Op {
		case "compile":
			line.Compile = resp.(*serve.CompileResponse)
		case "translate":
			line.Translate = resp.(*serve.TranslateResponse)
		case "simulate":
			line.Simulate = resp.(*serve.SimulateResponse)
		}
		if err := enc.Encode(line); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// truncate keeps divergence detail readable.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// sortedStatuses renders status counts deterministically for logs.
func sortedStatuses(m map[int]int64) string {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, " %d:%d", k, m[k])
	}
	return buf.String()
}

// memSnapshotMB reports post-GC heap use.
func memSnapshotMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// SettleGoroutines polls until the goroutine count drops to at most
// want (or the timeout passes) and returns the final count — HTTP
// keep-alive workers and timer goroutines need a beat to drain.
func SettleGoroutines(want int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
