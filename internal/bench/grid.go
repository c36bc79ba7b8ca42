package bench

// The parallel experiment grid: the (workload x cores x policy x
// MPB-budget) sweep behind the paper's evaluation, run concurrently
// across goroutines. Each simulated SCC machine is independent, so
// cells parallelise perfectly; results are placed by cell index, which
// makes the output deterministic regardless of worker count — the
// property TestGridDeterminism pins down to byte-identical JSON.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/trace"
)

// Grid is the declarative spec of one experiment sweep.
type Grid struct {
	// Name labels the emitted report (BENCH_<Name>.json).
	Name string `json:"name"`
	// Workloads are workload keys (see All); empty = the full corpus.
	Workloads []string `json:"workloads"`
	// Cores are the thread/core counts to sweep.
	Cores []int `json:"cores"`
	// Policies are Stage 4 policy names: "offchip", "size", "freq", or
	// "profiled" (profile-guided placement; the profiled cells of a
	// (workload, cores) point read one profiling pass, the point's
	// off-chip run).
	Policies []string `json:"policies"`
	// MPBBudgets are Stage 4 on-chip byte budgets; 0 = the machine's
	// full MPB. Empty = [0].
	MPBBudgets []int `json:"mpb_budgets"`
	// Scale is the problem-size multiplier (0 = 1.0).
	Scale float64 `json:"scale"`
	// Machine names the simulated machine preset for every cell
	// (sccsim.PresetNames; "" = the SCC default, scc48). Core counts in
	// Cores must fit the preset's core count.
	Machine string `json:"machine,omitempty"`
}

// DefaultGrid is the full paper sweep: every workload, the Fig 6.3 core
// counts, both Stage 4 placements, full MPB budget.
func DefaultGrid() Grid {
	var keys []string
	for _, w := range All() {
		keys = append(keys, w.Key)
	}
	return Grid{
		Name:      "paper",
		Workloads: keys,
		Cores:     []int{1, 2, 4, 8, 16, 32},
		Policies:  []string{"offchip", "size"},
		Scale:     1.0,
	}
}

// ParsePolicy maps the CLI/JSON policy names (shared with cmd/hsmcc) to
// Stage 4 policies.
func ParsePolicy(name string) (partition.Policy, error) {
	switch name {
	case "size":
		return partition.PolicySizeAscending, nil
	case "freq":
		return partition.PolicyFrequencyDensity, nil
	case "offchip":
		return partition.PolicyOffChipOnly, nil
	case "profiled":
		return partition.PolicyProfiled, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want size, freq, offchip or profiled)", name)
}

// Cell is one point of the grid.
type Cell struct {
	// Index is the cell's position in the deterministic enumeration of
	// the full (unsharded) grid.
	Index     int    `json:"index"`
	Workload  string `json:"workload"`
	Cores     int    `json:"cores"`
	Policy    string `json:"policy"`
	MPBBudget int    `json:"mpb_budget"`
}

// Cells enumerates the grid in deterministic workload-major order:
// workload, then cores, then policy, then budget.
func (g Grid) Cells() []Cell {
	budgets := g.MPBBudgets
	if len(budgets) == 0 {
		budgets = []int{0}
	}
	workloads := g.Workloads
	if len(workloads) == 0 {
		for _, w := range All() {
			workloads = append(workloads, w.Key)
		}
	}
	var cells []Cell
	for _, wk := range workloads {
		for _, n := range g.Cores {
			for _, pol := range g.Policies {
				for _, b := range budgets {
					cells = append(cells, Cell{
						Index:     len(cells),
						Workload:  wk,
						Cores:     n,
						Policy:    pol,
						MPBBudget: b,
					})
				}
			}
		}
	}
	return cells
}

// Validate rejects specs that reference unknown workloads or policies
// before any simulation time is spent.
func (g Grid) Validate() error {
	if len(g.Cores) == 0 {
		return fmt.Errorf("grid %q: no core counts", g.Name)
	}
	if len(g.Policies) == 0 {
		return fmt.Errorf("grid %q: no policies", g.Name)
	}
	for _, wk := range g.Workloads {
		if _, ok := ByKey(wk); !ok {
			return fmt.Errorf("grid %q: unknown workload %q", g.Name, wk)
		}
	}
	for _, p := range g.Policies {
		if _, err := ParsePolicy(p); err != nil {
			return fmt.Errorf("grid %q: %w", g.Name, err)
		}
	}
	mcfg, err := sccsim.PresetConfig(g.Machine)
	if err != nil {
		return fmt.Errorf("grid %q: %w", g.Name, err)
	}
	for _, b := range g.MPBBudgets {
		if _, err := EffectiveBudget(b, mcfg); err != nil {
			return fmt.Errorf("grid %q: %w", g.Name, err)
		}
	}
	for _, n := range g.Cores {
		if n > mcfg.Cores {
			return fmt.Errorf("grid %q: %d cores exceed machine %q (%d cores)",
				g.Name, n, g.MachineName(), mcfg.Cores)
		}
	}
	return nil
}

// MachineName resolves the grid's machine preset name ("" = scc48).
func (g Grid) MachineName() string {
	if g.Machine == "" {
		return "scc48"
	}
	return g.Machine
}

// CellResult is one cell's line of a report: the cell, what it
// measured, and how it ran.
type CellResult struct {
	Cell
	Outcome
	// Error is set (and the metrics zero) if the cell failed.
	Error string `json:"error,omitempty"`
	// Cached reports whether an earlier-indexed cell has the same
	// workload, cores, policy and effective budget (e.g. budget 0 vs
	// the explicit full MPB), so the two are one semantic result.
	// Determined by enumeration order, not execution order, so reports
	// stay byte-identical across worker counts. Cells that differ in
	// policy or budget but pick the same on-chip set also share one
	// translation and one simulation; they are not marked.
	Cached bool `json:"cached"`
}

// RunOptions controls grid execution.
type RunOptions struct {
	// Parallel is the worker count (<=0 = GOMAXPROCS).
	Parallel int
	// ShardIndex/ShardCount select every ShardCount-th cell starting at
	// ShardIndex (round-robin over the deterministic enumeration), so n
	// machines each running shard i/n cover the grid exactly once.
	// ShardCount <= 1 disables sharding.
	ShardIndex, ShardCount int
	// Cache, when non-nil, replaces the per-sweep compile cache: the
	// serving daemon passes its process-lifetime cache here so grid
	// requests reuse (and warm) compiles, baselines and profiles across
	// requests.
	Cache *Cache
	// Hooks are threaded into every cell's Config (see Hooks). Cancel is
	// also polled before each cell and each shared run of a point
	// starts: once it returns non-nil, remaining cells are marked with
	// that error instead of running, and no shared run starts.
	Hooks Hooks
	// OnResult, when non-nil, receives every finished cell in
	// deterministic index order, one call at a time on RunGrid's
	// goroutine, before RunGrid returns (it is InOrder's done) — the
	// daemon streams NDJSON straight from here.
	OnResult func(CellResult)
	// TraceDir, when non-empty, attaches a trace.Recorder to every
	// RCCE simulation the sweep actually executes and writes one Chrome
	// trace_event file per executed run into the directory, named after
	// what the run reads: <workload>_<cores>c_onchip-<set>.trace.json,
	// where <set> lists the declaration indices of the shared variables
	// Stage 4 placed in the MPB, joined by "-" ("none" when it placed
	// none; e.g. pi_4c_onchip-0-1.trace.json). Every cell that
	// picks that set shares the run and writes nothing more, so the
	// file set does not depend on the worker count. At a point with an
	// offchip and a profiled cell, the "none" file traces the profiling
	// pass, which is the off-chip run. A failed write is the error of
	// every cell of that set.
	TraceDir string
}

// Report is the JSON document hsmbench emits as BENCH_<grid>.json.
type Report struct {
	Grid Grid `json:"grid"`
	// Shard is "i/n" when the report covers one shard, "" otherwise.
	Shard   string       `json:"shard,omitempty"`
	Results []CellResult `json:"results"`
	// SynthWins is the profiled-vs-static win map over the report's
	// synthetic cells (hsmbench -synth fills it in via SynthWinMap;
	// empty for corpus-only grids).
	SynthWins []SynthWin `json:"synth_wins,omitempty"`
}

// JSON renders the report with a stable layout (indent + trailing
// newline) so that reruns and shards diff and concatenate cleanly.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Filename is the canonical artifact name for this report's grid.
func (r *Report) Filename() string {
	return fmt.Sprintf("BENCH_%s.json", r.Grid.Name)
}

// gridRunner carries the per-run state.
type gridRunner struct {
	grid Grid
	cfg  Config
	// cells memoizes the sweep's RCCE runs by their simulate-stage key,
	// (workload, cores, on-chip set): cells of different policies and
	// budgets often pick the same set, and so run the same program. At a
	// point with a profiled cell, the entry of the empty set, the
	// off-chip run, is also the point's profiling pass (simulate). It
	// lives and dies with the sweep and is never the shared Cache — a
	// daemon-lifetime cache would serve RCCE runs across requests, and a
	// ?trace=1 request would stop seeing its own simulation. (Baseline
	// runs and profiles need no per-grid memo: RunBaseline and
	// ProfileWorkload memoize through the shared Cache, so every policy
	// and budget cell at one (workload, cores) point shares a single
	// run.)
	cells *Cache
	// traceDir, when non-empty, receives one Chrome trace file per
	// distinct RCCE simulation (RunOptions.TraceDir).
	traceDir string
}

// jobKind is what one unit of a sweep's work runs.
type jobKind uint8

const (
	// cellJob runs one cell.
	cellJob jobKind = iota
	// baselineJob and offChipJob run one of a point's shared runs: its
	// baseline, and the run of its off-chip translation.
	baselineJob
	offChipJob
)

// job is one unit of a sweep's work: a cell, or one of the shared runs
// of a (workload, cores) point, which the job list puts just before
// the point's cells so that workers start them side by side instead of
// queueing on one memo entry behind the point's first cells.
type job struct {
	kind jobKind
	// cell indexes the sweep's cells; a shared run's is the first cell
	// of its point.
	cell int
	// profiled reports whether the point has a profiled cell, whose
	// profiling pass is then the point's off-chip run (simulate).
	profiled bool
}

// jobs lists cells with each point's shared runs ahead of its cells: its
// baseline, and its off-chip run when an offchip cell reads it. Cells
// enumerates a point's cells one after another, so they stay in cell
// order.
func jobs(cells []Cell) []job {
	var out []job
	for first := 0; first < len(cells); {
		end := first
		pt := job{cell: first}
		offChip := false
		for ; end < len(cells) && cells[end].Workload == cells[first].Workload && cells[end].Cores == cells[first].Cores; end++ {
			offChip = offChip || cells[end].Policy == "offchip"
			pt.profiled = pt.profiled || cells[end].Policy == "profiled"
		}
		pt.kind = baselineJob
		out = append(out, pt)
		if offChip {
			pt.kind = offChipJob
			out = append(out, pt)
		}
		pt.kind = cellJob
		for ; first < end; first++ {
			pt.cell = first
			out = append(out, pt)
		}
	}
	return out
}

// RunGrid executes the grid's cells, each point's shared runs ahead of
// them (jobs), on InOrder's workers and returns the report in
// deterministic cell order. Per-cell failures are
// recorded in CellResult.Error rather than aborting the sweep; only
// invalid specs and shards error out.
func RunGrid(g Grid, opt RunOptions) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Cells()
	rep := &Report{Grid: g}
	if opt.ShardCount > 1 {
		if opt.ShardIndex < 0 || opt.ShardIndex >= opt.ShardCount {
			return nil, fmt.Errorf("shard %d/%d out of range", opt.ShardIndex, opt.ShardCount)
		}
		var mine []Cell
		for _, c := range cells {
			if c.Index%opt.ShardCount == opt.ShardIndex {
				mine = append(mine, c)
			}
		}
		cells = mine
		rep.Shard = fmt.Sprintf("%d/%d", opt.ShardIndex, opt.ShardCount)
	}
	r := &gridRunner{grid: g, cfg: DefaultConfig(), cells: NewCache(), traceDir: opt.TraceDir}
	r.cfg.Scale = g.Scale
	if r.cfg.Scale == 0 {
		r.cfg.Scale = 1.0
	}
	// Validate resolved the preset already; a fresh machine per run keeps
	// timing state (controller queues) from leaking between cells.
	mcfg := sccsim.MustPreset(g.Machine)
	r.cfg.Machine = func() *sccsim.Machine { return sccsim.MustNew(mcfg) }
	// One compile cache for the whole sweep: each workload's baseline
	// source and each distinct translated source compile exactly once,
	// and all matrix cells (across all workers) share the immutable
	// compiled Programs. A caller-provided cache (the daemon's
	// process-lifetime one) extends the sharing across sweeps.
	r.cfg.Cache = opt.Cache
	if r.cfg.Cache == nil {
		r.cfg.Cache = NewCache()
	}
	r.cfg.Hooks = opt.Hooks

	// Mark duplicate cells (same workload, cores, policy and effective
	// budget as an earlier-indexed cell) up front, so the Cached flag
	// does not depend on which worker won the race to compute the
	// shared entry. The machine config is fixed across the sweep:
	// fingerprint it once here so per-cell cache-key construction never
	// builds a throwaway machine.
	r.cfg = r.cfg.PrecomputeMachineEnv()
	seen := make(map[Cell]bool)
	dup := make([]bool, len(cells))
	for i, c := range cells {
		c.Index = 0
		c.MPBBudget, _ = EffectiveBudget(c.MPBBudget, r.cfg.machineCfg) // vetted by Validate
		dup[i] = seen[c]
		seen[c] = true
	}

	results := make([]CellResult, len(cells))
	work := jobs(cells)
	var done func(i int)
	if opt.OnResult != nil {
		done = func(i int) {
			if j := work[i]; j.kind == cellJob {
				opt.OnResult(results[j.cell])
			}
		}
	}
	InOrder(len(work), opt.Parallel, func(i int) {
		j := work[i]
		if cancel := opt.Hooks.Cancel; cancel != nil {
			if err := cancel(); err != nil {
				if j.kind == cellJob {
					results[j.cell] = CellResult{Cell: cells[j.cell], Error: fmt.Sprintf("canceled: %v", err), Cached: dup[j.cell]}
				}
				return
			}
		}
		if j.kind != cellJob {
			r.runShared(cells[j.cell], j)
			return
		}
		results[j.cell] = r.safeRunCell(cells[j.cell], j.profiled)
		results[j.cell].Cached = dup[j.cell]
	}, done)
	rep.Results = results
	return rep, nil
}

// InOrder runs do(i) for every i in [0, n) on min(max(workers, 1), n)
// goroutines, where workers <= 0 means GOMAXPROCS. It calls done(i) on
// the calling goroutine, one call at a time and in index order, as soon
// as do(0..i) have all returned; done may be nil. It returns after the
// last done. It recovers no panics: do must not panic.
func InOrder(n, workers int, do, done func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var claimed atomic.Int64
	finished := make(chan int, n) // one send per index, so no worker ever blocks
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(claimed.Add(1) - 1); i < n; i = int(claimed.Add(1) - 1) {
				do(i)
				finished <- i
			}
		}()
	}
	ready := make([]bool, n)
	for next := 0; next < n; {
		ready[<-finished] = true
		for ; next < n && ready[next]; next++ {
			if done != nil {
				done(next)
			}
		}
	}
	wg.Wait()
}

// safeRunCell is runCell behind a panic boundary: a panicking cell
// (injected or genuine) costs exactly that cell — it is recorded as a
// cell error in the report and the worker goroutine survives to drain
// the rest of the sweep. Panics inside memoized computes are already
// captured by the cache layer (evict.go); this catches the rest of the
// per-cell path.
func (r *gridRunner) safeRunCell(cell Cell, profiled bool) (res CellResult) {
	defer func() {
		if v := recover(); v != nil {
			res = CellResult{Cell: cell, Error: fmt.Sprintf("panic: %v", v)}
		}
	}()
	return r.runCell(cell, profiled)
}

// runShared runs one of the shared runs of at's point ahead of its
// cells. What it leaves is the memo entry it fills; a failure or a
// panic is not cached, so each cell that reads the run meets it again
// and reports it as it would have without this job.
func (r *gridRunner) runShared(at Cell, j job) {
	defer func() { _ = recover() }()
	w, _ := ByKey(at.Workload) // vetted by Validate
	cfg := r.cfg
	cfg.Threads = at.Cores
	if j.kind == baselineJob {
		_, _ = RunBaseline(w, cfg)
		return
	}
	if tr, err := cfg.translation(w, partition.PolicyOffChipOnly, 0, nil); err == nil {
		_, _ = r.simulate(w, cfg, tr, j.profiled)
	}
}

// runCell executes one grid cell (baseline + translated run), pulling
// both halves through the memoizing caches. profiled reports whether
// the cell's point has a profiled cell (simulate).
func (r *gridRunner) runCell(cell Cell, profiled bool) CellResult {
	res := CellResult{Cell: cell}
	w, ok := ByKey(cell.Workload)
	if !ok {
		res.Error = fmt.Sprintf("unknown workload %q", cell.Workload)
		return res
	}
	policy, err := ParsePolicy(cell.Policy)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	cfg := r.cfg
	cfg.Threads = cell.Cores
	cfg.MPBCapacity = cell.MPBBudget

	// The baseline is memoized through the sweep's shared bench.Cache
	// (keyed by workload, cores, scale and run environment), so
	// every policy and budget cell shares one run.
	base, err := RunBaseline(w, cfg)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	tr, pl, err := cfg.translate(w, policy)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	run, err := r.simulate(w, cfg, tr, profiled)
	conv, err := tr.export(pl).result(w, cfg, policy, run, err)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Outcome = (&BothResult{Baseline: base, RCCE: conv, Match: SameResults(base.Output, conv.Output)}).Outcome()
	return res
}

// simulated is one run of the sweep's memo and the error of writing its
// trace, which every cell that reads the run reports.
type simulated struct {
	run   *rcce.Result
	trace error
}

// simulate returns the sweep's run of tr at cfg's point: the run reads
// the translated program, so every cell that picked tr's on-chip set
// shares one run. At a point with a profiled cell (profiled), the
// off-chip run is also the point's profiling pass, unless the shared
// cache already holds the profile: the collector only observes, so its
// run is the one the off-chip cells read, and its report fills the
// cache's profile entry that PlacementFor reads. If the pass fails but
// is not canceled, the run is made again unobserved, so the off-chip
// cells read a run of their own, and the profiled cells meet the pass's
// failure when they profile. With a trace directory, whoever runs the
// simulation records it and writes the Chrome trace named by the shared
// identity; cache hits write nothing.
func (r *gridRunner) simulate(w Workload, cfg Config, tr *translation, profiled bool) (*rcce.Result, error) {
	sim, err := memo(r.cells, key{stage: stageSimulate, spec: cfg.spec(w.Key).rcceRun(), onChip: tr.onChip}, func() (*simulated, error) {
		var rec *trace.Recorder
		// traced is cfg recording into a fresh recorder for the trace
		// directory, if there is one, and else into sink.
		traced := func(sink interp.TraceSink) Config {
			if r.traceDir != "" {
				rec = trace.NewRecorder(nil, 0)
				sink = rec
			}
			c := cfg
			c.Hooks.TraceRCCE = sink
			return c
		}
		var run *rcce.Result
		var err error
		if profiled && tr.onChip == "" {
			// The profiling pass fills the shared cache: it records into
			// the sweep's trace recorder only.
			if _, run, err = traced(nil).profile(w, tr); err != nil && !isCancelErr(err) {
				run, err = nil, nil
			}
		}
		if run == nil && err == nil {
			c := traced(cfg.Hooks.TraceRCCE)
			run, err = runStage(c.Hooks, stageSimulate, w.Key, func() (*rcce.Result, error) {
				return c.runRCCE(tr.program)
			})
		}
		if err != nil {
			return nil, err
		}
		sim := &simulated{run: run}
		if rec != nil {
			set := tr.onChip
			if set == "" {
				set = "none"
			}
			name := fmt.Sprintf("%s_%dc_onchip-%s.trace.json", w.Key, cfg.Threads, set)
			if err := rec.WriteFile(filepath.Join(r.traceDir, name)); err != nil {
				sim.trace = fmt.Errorf("write trace: %w", err)
			}
		}
		return sim, nil
	})
	if err != nil {
		return nil, err
	}
	return sim.run, sim.trace
}

// FormatReport renders the grid results as a text table (the
// machine-readable form is Report.JSON).
func FormatReport(rep *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Grid %q — %d cells", rep.Grid.Name, len(rep.Results))
	if rep.Shard != "" {
		fmt.Fprintf(&sb, " (shard %s)", rep.Shard)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "%-10s %6s %-8s %10s %12s %12s %9s %10s %6s\n",
		"Workload", "Cores", "Policy", "MPB-budget", "Pthread (s)", "RCCE (s)", "Speedup", "On-chip B", "Match")
	for _, r := range rep.Results {
		if r.Error != "" {
			fmt.Fprintf(&sb, "%-10s %6d %-8s %10d  ERROR: %s\n", r.Workload, r.Cores, r.Policy, r.MPBBudget, r.Error)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %6d %-8s %10d %12.4f %12.4f %8.1fx %10d %6v\n",
			r.Workload, r.Cores, r.Policy, r.MPBBudget,
			float64(r.BaselinePs)/sccsim.PsPerSecond, float64(r.RCCEPs)/sccsim.PsPerSecond,
			r.Speedup, r.OnChipBytes, r.Match)
	}
	return sb.String()
}

// MergeReports combines shard reports of the same grid into one full
// report ordered by cell index — the reduce step after a sharded sweep.
func MergeReports(parts ...*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("no reports to merge")
	}
	out := &Report{Grid: parts[0].Grid}
	wantSpec, err := json.Marshal(out.Grid)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	for _, p := range parts {
		spec, err := json.Marshal(p.Grid)
		if err != nil {
			return nil, err
		}
		// Name alone is not identity: shards taken at different scales
		// or over different axes must not be mixed into one report.
		if string(spec) != string(wantSpec) {
			return nil, fmt.Errorf("cannot merge reports with different grid specs (%s vs %s)", wantSpec, spec)
		}
		for _, r := range p.Results {
			if seen[r.Index] {
				return nil, fmt.Errorf("duplicate cell %d across shards", r.Index)
			}
			seen[r.Index] = true
			out.Results = append(out.Results, r)
		}
	}
	// A merge is only "the full report" if every cell of the grid is
	// present — catching a forgotten shard before its absence silently
	// skews downstream comparisons.
	if want := len(out.Grid.Cells()); len(out.Results) != want {
		return nil, fmt.Errorf("merge incomplete: %d of %d cells (missing shard?)", len(out.Results), want)
	}
	sort.Slice(out.Results, func(i, j int) bool { return out.Results[i].Index < out.Results[j].Index })
	return out, nil
}
