package main

// The benchmark's contract: workloads, end-to-end metrics with their
// regression bounds, and the per-layer ledger. BENCHMARK.json at the
// repository root is this file rendered by `-manifest`; the quick smoke
// test fails when the two disagree.

import (
	"encoding/json"
	"sort"
)

// runSeconds is how long one measured phase lasts unless -seconds says
// otherwise (BENCHMARK.json's run_seconds).
const runSeconds = 15

// Metric directions.
const (
	lower  = "lower"
	higher = "higher"
)

// metricDecl declares one metric. Bound applies to end-to-end metrics
// only; Exact marks per-layer counts that must repeat bit-for-bit on the
// same seed (the selfcheck compares them for equality).
type metricDecl struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
}

// workloadDecl declares one workload: its name, the one-line reason it
// exists, and the function that builds a runnable instance from a seed.
type workloadDecl struct {
	Name  string
	Why   string
	Setup func(seed int64, opt options) (instance, error)
}

var workloads = []workloadDecl{
	{"sim_private", "private cached accesses, rare context switches: isolates interp closure dispatch and the sccsim L1/L2 path; front end under 5% of op time", setupSimPrivate},
	{"sim_shared", "the paper's headline cells: shared accesses take the uncached DRAM or MPB path and yield every time, so the scheduler heap and coroutine resume path carry the cost", setupSimShared},
	{"sim_wide", "160-1024 contexts on mesh1024: per-context set-up, heap scheduling at width and wide barriers dominate; where alloc_kb_per_op and GC matter most", setupSimWide},
	{"compile_many", "one distinct generated kernel per op at 4 cores: three parses, Stage 1-5 and closure lowering are most of the op; the hsmconf/fuzz/CI profile and every daemon request's cold path", setupCompileMany},
	{"grid_sweep", "12-cell mini-grids through RunGrid and Report.JSON on procs workers: cross-cell sharing, coalescing, the worker pool, the profiling pass and knapsack, JSON encoding", setupGridSweep},
	{"serve_warm", "the daemon's steady state over loopback HTTP with procs keep-alive clients: 90% cache-hit translate/compile requests set the median, 10% simulate requests set the tail", setupServeWarm},
}

// endToEnd are the user-visible metrics, defined on every workload and
// always measured with tracing off. The four timing bounds sit at the
// contract's ceiling because the host this was sized on repeats a timing
// only to within 3-24% from one run to the next (README, "Bounds").
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "op/s", Better: higher, Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "op_ms_p95", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.05},
	{Name: "sim_speedup_geomean", Unit: "x", Better: higher, Bound: 0.05},
}

// perLayer is the ledger: one group per package, timed from the public
// seams. Every metric is printed on every workload; a layer a workload
// cannot see from outside reads 0 there.
var perLayer = []metricDecl{
	{Name: "cc.lexer.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "cc.lexer.src_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "cc.lexer.tokens", Unit: "count", Better: lower, Exact: true},
	{Name: "cc.lexer.self_ms", Unit: "ms", Better: lower},
	{Name: "cc.parser.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "cc.parser.ast_nodes", Unit: "count", Better: lower, Exact: true},
	{Name: "cc.parser.self_ms", Unit: "ms", Better: lower},
	{Name: "cc.sema.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "cc.sema.self_ms", Unit: "ms", Better: lower},
	{Name: "cc.printer.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "cc.printer.out_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "cc.printer.self_ms", Unit: "ms", Better: lower},
	{Name: "analysis.scope.vars", Unit: "count", Better: lower, Exact: true},
	{Name: "analysis.scope.shared_vars", Unit: "count", Better: lower, Exact: true},
	{Name: "analysis.scope.self_ms", Unit: "ms", Better: lower},
	{Name: "analysis.interthread.self_ms", Unit: "ms", Better: lower},
	{Name: "analysis.pointsto.self_ms", Unit: "ms", Better: lower},
	{Name: "partition.onchip_bytes", Unit: "B", Better: higher, Exact: true},
	{Name: "partition.self_ms", Unit: "ms", Better: lower},
	{Name: "translate.passes_logged", Unit: "count", Better: lower, Exact: true},
	{Name: "translate.self_ms", Unit: "ms", Better: lower},
	{Name: "interp.load.calls", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.load.funcs", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.load.not_fully_compiled", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.load.self_ms", Unit: "ms", Better: lower},
	{Name: "pthreadrt.runs", Unit: "count", Better: lower, Exact: true},
	{Name: "pthreadrt.run_ms", Unit: "ms", Better: lower},
	{Name: "pthreadrt.switches", Unit: "count", Better: lower, Exact: true},
	{Name: "pthreadrt.accesses", Unit: "count", Better: lower, Exact: true},
	{Name: "pthreadrt.host_ns_per_access", Unit: "ns", Better: lower},
	{Name: "rcce.runs", Unit: "count", Better: lower, Exact: true},
	{Name: "rcce.run_ms", Unit: "ms", Better: lower},
	{Name: "rcce.accesses", Unit: "count", Better: lower, Exact: true},
	{Name: "rcce.host_ns_per_access", Unit: "ns", Better: lower},
	{Name: "rcce.onchip_bytes", Unit: "B", Better: higher, Exact: true},
	{Name: "interp.sched.spawns", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.sched.resumes", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.sched.yields", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.sched.blocks", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.sched.spins", Unit: "count", Better: lower, Exact: true},
	{Name: "interp.sched.resumes_per_kacc", Unit: "1/kacc", Better: lower, Exact: true},
	{Name: "sccsim.machines_built", Unit: "count", Better: lower, Exact: true},
	{Name: "sccsim.new_ms", Unit: "ms", Better: lower},
	{Name: "sccsim.loads", Unit: "count", Better: lower, Exact: true},
	{Name: "sccsim.stores", Unit: "count", Better: lower, Exact: true},
	{Name: "sccsim.private_accesses", Unit: "count", Better: lower, Exact: true},
	{Name: "sccsim.shared_accesses", Unit: "count", Better: lower, Exact: true},
	{Name: "sccsim.mpb_accesses", Unit: "count", Better: higher, Exact: true},
	{Name: "sccsim.mpb_remote", Unit: "count", Better: lower, Exact: true},
	{Name: "sccsim.l1_hit_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "sccsim.l2_hit_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "sccsim.sim_mem_ps", Unit: "ps", Better: lower, Exact: true},
	{Name: "sccsim.sim_comp_ps", Unit: "ps", Better: lower, Exact: true},
	{Name: "sccsim.mc_requests", Unit: "count", Better: lower, Exact: true},
	{Name: "sccsim.mc_busy_ps", Unit: "ps", Better: lower, Exact: true},
	{Name: "sccsim.replay.private_l1_ns", Unit: "ns", Better: lower},
	{Name: "sccsim.replay.private_l2_ns", Unit: "ns", Better: lower},
	{Name: "sccsim.replay.private_dram_ns", Unit: "ns", Better: lower},
	{Name: "sccsim.replay.shared_ns", Unit: "ns", Better: lower},
	{Name: "sccsim.replay.mpb_local_ns", Unit: "ns", Better: lower},
	{Name: "sccsim.replay.mpb_remote_ns", Unit: "ns", Better: lower},
	{Name: "sccsim.est_busy_ms", Unit: "ms", Better: lower},
	{Name: "sccsim.est_share", Unit: "ratio", Better: lower},
	{Name: "bench.both_ms", Unit: "ms", Better: lower},
	{Name: "bench.overhead_ms", Unit: "ms", Better: lower},
	{Name: "bench.cache.hits", Unit: "count", Better: higher, Exact: true},
	{Name: "bench.cache.misses", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cache.hit_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "bench.cache.program_compiles", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cache.translate_runs", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cache.baseline_runs", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cache.profile_runs", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cache.entries", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cache.evictions", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.cache.cost_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "bench.grid.cells", Unit: "count", Better: lower, Exact: true},
	{Name: "bench.grid.cached_cells", Unit: "count", Better: higher, Exact: true},
	{Name: "bench.grid.run_ms", Unit: "ms", Better: lower},
	{Name: "bench.grid.cells_per_s", Unit: "1/s", Better: higher},
	{Name: "bench.grid.parallel_speedup", Unit: "x", Better: higher},
	{Name: "bench.report.json_ms", Unit: "ms", Better: lower},
	{Name: "bench.report.json_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "profile.run_ms", Unit: "ms", Better: lower},
	{Name: "profile.optimize_ms", Unit: "ms", Better: lower},
	{Name: "profile.vars", Unit: "count", Better: lower, Exact: true},
	{Name: "synth.gen_ms", Unit: "ms", Better: lower},
	{Name: "conformance.gen_ms", Unit: "ms", Better: lower},
	{Name: "serve.requests", Unit: "count", Better: lower, Exact: true},
	{Name: "serve.status_2xx", Unit: "count", Better: higher, Exact: true},
	{Name: "serve.status_4xx", Unit: "count", Better: lower, Exact: true},
	{Name: "serve.status_5xx", Unit: "count", Better: lower, Exact: true},
	{Name: "serve.shed", Unit: "count", Better: lower, Exact: true},
	{Name: "serve.bytes_out", Unit: "B", Better: lower, Exact: true},
	{Name: "serve.inflight_peak", Unit: "count", Better: lower},
	{Name: "serve.compile_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.translate_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.simulate_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.req_ms_p99", Unit: "ms", Better: lower},
	{Name: "serve.span.decode_us_p50", Unit: "us", Better: lower},
	{Name: "serve.span.admission_us_p50", Unit: "us", Better: lower},
	{Name: "serve.span.compute_us_p50", Unit: "us", Better: lower},
	{Name: "serve.span.other_us_p50", Unit: "us", Better: lower},
	{Name: "serve.compute_share", Unit: "ratio", Better: lower},
	{Name: "trace.recorder_overhead_frac", Unit: "fraction", Better: lower},
	{Name: "trace.events", Unit: "count", Better: lower, Exact: true},
	{Name: "trace.dropped", Unit: "count", Better: lower, Exact: true},
	{Name: "trace.export_ms", Unit: "ms", Better: lower},
	{Name: "trace.export_bytes", Unit: "B", Better: lower, Exact: true},
	{Name: "host.peak_rss_mb", Unit: "MiB", Better: lower},
	{Name: "host.gc_cycles", Unit: "count", Better: lower},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "host.mallocs_per_op", Unit: "count", Better: lower},
	{Name: "host.cpu_util", Unit: "ratio", Better: lower},
	{Name: "host.trace_overhead_frac", Unit: "fraction", Better: lower},
}

func workloadByName(name string) *workloadDecl {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers: cannot fail
	}
	return append(b, '\n')
}

// ledger accumulates per-layer values by metric name during a traced
// run; report() renders it in declaration order, 0 where nothing was
// recorded.
type ledger map[string]float64

func (l ledger) add(name string, v float64) { l[name] += v }

// undeclared lists ledger keys that are not declared per-layer metrics —
// a typo guard the quick test asserts empty.
func (l ledger) undeclared() []string {
	known := make(map[string]bool, len(perLayer))
	for _, m := range perLayer {
		known[m.Name] = true
	}
	var out []string
	for k := range l {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
