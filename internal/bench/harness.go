package bench

import (
	"fmt"
	"sort"
	"strings"

	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// RunResult is one measured execution.
type RunResult struct {
	Workload string
	Mode     string // "pthread-1core", "rcce-offchip", "rcce-onchip", "rcce-profiled"
	Threads  int
	Makespan sccsim.Time
	Output   string
	Stats    sccsim.CoreStats
	// TranslatedSource is the RCCE C program (RCCE modes only).
	TranslatedSource string
	// OnChipBytes is what Stage 4 placed in the MPB (RCCE modes only).
	OnChipBytes int
	// PlacementDigest fingerprints the profile-guided placement map
	// (profiled policy only; empty for the static policies).
	PlacementDigest string
}

// Seconds converts the makespan.
func (r *RunResult) Seconds() float64 { return float64(r.Makespan) / sccsim.PsPerSecond }

// Config parameterises harness runs. Its fields are of two kinds, kept
// apart by type: what a run computes from — every memo key is derived
// from those in one place, Config.spec — and Hooks, which no key can
// reach.
type Config struct {
	// Threads is the thread count for the baseline and the UE count for
	// RCCE runs (the paper uses 32 for both).
	Threads int
	// Scale shrinks/grows problem sizes (1.0 = full experiment size).
	Scale float64
	// Baseline holds the single-core Pthread runtime options. Its Params
	// are identity; its Observers pass through to the run (Cancel is
	// replaced by Hooks.Cancel).
	Baseline pthreadrt.Options
	// Machine returns a fresh machine per run (timing state such as
	// controller queues must not leak between runs).
	Machine func() *sccsim.Machine
	// MPBCapacity overrides the Stage 4 on-chip budget (0 = the
	// machine's full MPB; see EffectiveBudget). The partition-policy
	// ablation uses a small budget to create placement pressure.
	MPBCapacity int
	// RCCE holds the RCCE runtime options; NumUEs is taken from Threads.
	// Params and the Cores map are identity (the MPB-placement ablation
	// disables striping here, the conformance matrix installs its
	// many-to-one maps); Cancel and Trace are replaced by Hooks.Cancel
	// and Hooks.TraceRCCE.
	RCCE rcce.Options
	// Cache, when non-nil, memoizes every configuration-pure stage —
	// source analysis, source compile, translation, baseline run,
	// profiling pass, placement — so one computed value serves every
	// cell, and every concurrent worker, with the same inputs. Nil
	// computes every time.
	Cache *Cache
	// Hooks are the per-request seams (cancellation, fault injection,
	// spans, the RCCE trace sink).
	Hooks Hooks
	// machineCfg and machineEnv, set together by PrecomputeMachineEnv,
	// are cfg.Machine().Config() and its fingerprint — sweeps whose
	// machine is fixed (the grid runner) resolve them once so neither
	// cache-key construction nor the full-MPB budget builds a throwaway
	// machine per lookup. machineEnv is empty until then.
	machineCfg sccsim.Config
	machineEnv string
}

// Hooks are a harness run's per-request seams: state of the request that
// asked, not of the result it asked for. The memo keys are built from a
// spec, which has no field a hook could be stored in, so a value
// computed under one request's hooks serves every other request
// unchanged.
type Hooks struct {
	// Cancel, when non-nil, is polled at every scheduling decision of
	// every simulation the config runs (baseline, RCCE, profiling): a
	// non-nil return aborts the run promptly with that error. The
	// serving layer wires a request context's Err here so deadlines and
	// client disconnects stop simulations mid-flight.
	Cancel func() error
	// Fault, when non-nil, is invoked at the entry of every compute
	// stage the config runs — "compile", "translate", "baseline",
	// "simulate", "profile" — before the stage does any work. It is the
	// chaos-injection seam (internal/serve/chaos): the hook may sleep
	// (injected delay), panic (injected crash, recovered into a
	// *PanicError at the nearest isolation boundary) or return an error
	// (spurious cancellation). It fires inside memoized computations, so
	// the cache's drop-on-error discipline is what a fault exercises.
	Fault func(stage string) error
	// Span, when non-nil, is invoked at the entry of every compute stage
	// the config actually executes — same stage names as Fault — and the
	// returned func at its exit. It is the request-tracing seam
	// (internal/serve spans): because it fires inside the memoized
	// computations, a cache hit produces no compute span, which is
	// exactly what a request timeline should show.
	Span func(stage string) func()
	// TraceRCCE, when non-nil, receives the scheduling/memory event
	// stream of the RCCE simulation (the un-memoized half of a run; see
	// internal/trace.Recorder). Observation only: simulation output and
	// cycle stats are identical with or without it.
	TraceRCCE interp.TraceSink
}

// DefaultConfig is the paper's configuration: 32 threads/cores, full
// problem sizes, Table 6.1 machine.
func DefaultConfig() Config {
	return Config{
		Threads:  32,
		Scale:    1.0,
		Baseline: pthreadrt.DefaultOptions(),
		RCCE:     rcce.DefaultOptions(0),
		Machine:  func() *sccsim.Machine { return sccsim.MustNew(sccsim.DefaultConfig()) },
	}
}

// spec is the identity of a harness run: every input a memoized value
// may depend on, as plain comparable data (TestSpecIsPlainData). It is
// derived from a Config here and nowhere else; a field added to
// pthreadrt.Params or rcce.Params is keyed with no further edit.
type spec struct {
	workload string
	threads  int
	scale    float64
	// machine is the machine-config fingerprint: mesh geometry, MPB
	// slice size and latencies decide both where Stage 4 may place a
	// variable and what a placement costs.
	machine  string
	baseline pthreadrt.Params
	rcce     rcce.Params
	// ueMap is the canonical text of the UE-to-core map ("" = ranks on
	// cores 0..N-1).
	ueMap string
}

// spec derives the identity of cfg's runs of the workload keyed wkey.
func (cfg Config) spec(wkey string) spec {
	s := spec{
		workload: wkey,
		threads:  cfg.Threads,
		scale:    cfg.Scale,
		machine:  cfg.machineFingerprint(),
		baseline: cfg.Baseline.Params,
		rcce:     cfg.RCCE.Params,
	}
	s.rcce.NumUEs = cfg.Threads
	if cfg.RCCE.Cores != nil {
		s.ueMap = fmt.Sprint(cfg.RCCE.Cores)
	}
	return s
}

// The projections: a stage's key carries exactly the inputs that stage
// reads, which is what lets one baseline run serve every policy and
// budget of a (workload, cores) point, and one translation serve every
// runtime configuration.

// source is what the program text and Stage 4 read.
func (s spec) source() spec {
	return spec{workload: s.workload, threads: s.threads, scale: s.scale, machine: s.machine}
}

// baselineRun is what the single-core Pthread run reads.
func (s spec) baselineRun() spec {
	s.rcce, s.ueMap = rcce.Params{}, ""
	return s
}

// rcceRun is what a run of the translated program reads.
func (s spec) rcceRun() spec {
	s.baseline = pthreadrt.Params{}
	return s
}

// runStage runs body as the named compute stage of a run under h: the
// fault seam first, then the span around the work. subject names the
// input in the fault's error.
func runStage[V any](h Hooks, st stage, subject string, body func() (V, error)) (V, error) {
	if h.Fault != nil {
		if err := h.Fault(st.String()); err != nil {
			var zero V
			return zero, fmt.Errorf("%s %s: %w", subject, st, err)
		}
	}
	if h.Span != nil {
		defer h.Span(st.String())()
	}
	return body()
}

// rcceOptions resolves the effective RCCE runtime options for cfg.
func (cfg Config) rcceOptions() rcce.Options {
	ropts := cfg.RCCE
	ropts.NumUEs = cfg.Threads
	ropts.Cancel = cfg.Hooks.Cancel
	ropts.Trace = cfg.Hooks.TraceRCCE
	return ropts
}

// MachineConfig returns the configuration of the machines cfg builds,
// preferring the precomputed copy over constructing a throwaway machine
// per lookup.
func (cfg Config) MachineConfig() sccsim.Config {
	if cfg.machineEnv != "" {
		return cfg.machineCfg
	}
	m := cfg.Machine()
	defer m.Release()
	return m.Config()
}

// fingerprint renders a machine configuration for cache keys — the one
// %+v in key construction. sccsim.Config is plain data
// (TestSpecIsPlainData), so the rendering is complete and the same in
// every process.
func fingerprint(mcfg sccsim.Config) string { return fmt.Sprintf("%+v", mcfg) }

// machineFingerprint is the fingerprint of the machines cfg builds.
func (cfg Config) machineFingerprint() string {
	if cfg.machineEnv != "" {
		return cfg.machineEnv
	}
	return fingerprint(cfg.MachineConfig())
}

// PrecomputeMachineEnv returns a copy of cfg carrying the machine
// configuration and its fingerprint, resolved once here from the one
// machine it builds. Harnesses that derive many cell configs from one
// template over a fixed machine (the grid runner, the conformance
// oracle, the daemon) call this on the template so that afterwards
// cfg.Machine is called only for machines that run something.
func (cfg Config) PrecomputeMachineEnv() Config {
	cfg.machineCfg = cfg.MachineConfig()
	cfg.machineEnv = fingerprint(cfg.machineCfg)
	return cfg
}

// EffectiveBudget resolves a Stage 4 on-chip byte budget against the
// machine it is for — the one place the "0 = the machine's full MPB"
// rule lives. A budget the machine does not have is rejected here,
// before any stage has been paid for, instead of by the RCCE allocator
// in the middle of a simulation.
func EffectiveBudget(budget int, mcfg sccsim.Config) (int, error) {
	full := mcfg.MPBTotal()
	switch {
	case budget < 0:
		return 0, fmt.Errorf("negative MPB budget %d (use 0 for the full MPB)", budget)
	case budget == 0:
		return full, nil
	case budget > full:
		return 0, fmt.Errorf("MPB budget %d exceeds the %d-byte MPB of machine %s", budget, full, machineName(mcfg))
	}
	return budget, nil
}

// machineName names mcfg for an error message: its preset name, or its
// size when no preset matches.
func machineName(mcfg sccsim.Config) string {
	for _, name := range sccsim.PresetNames() {
		if fingerprint(sccsim.MustPreset(name)) == fingerprint(mcfg) {
			return name
		}
	}
	return fmt.Sprintf("custom-%dcore", mcfg.Cores)
}

// compile returns the Pthread program (name, src), lowered from the
// source's shared analysis at most once per distinct source even under
// concurrent lookups. Translated programs never come here: each
// translation lowers its own tree (Config.translation).
func (cfg Config) compile(name, src string) (*interp.Program, error) {
	return memo(cfg.Cache, key{stage: stageCompile, name: name, src: src}, func() (*interp.Program, error) {
		return runStage(cfg.Hooks, stageCompile, name, func() (*interp.Program, error) {
			an, err := cfg.analysis(name, src)
			if err != nil {
				return nil, err
			}
			return interp.Load(an.File, an.Sema)
		})
	})
}

// CompileBaseline compiles (or fetches from the cache) the unconverted
// Pthread program for cfg's thread count and scale. The returned Program
// is immutable — one compile serves any number of concurrent runs.
func CompileBaseline(w Workload, cfg Config) (*interp.Program, error) {
	pr, err := cfg.compile(w.Key+".c", w.Source(cfg.Threads, cfg.Scale))
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", w.Key, err)
	}
	return pr, nil
}

// RunBaselineProgram executes an already-compiled baseline program: all
// threads time-share one SCC core (thesis Chapter 6's baseline).
func RunBaselineProgram(w Workload, pr *interp.Program, cfg Config) (*RunResult, error) {
	return runStage(cfg.Hooks, stageBaseline, w.Key, func() (*RunResult, error) {
		opts := cfg.Baseline
		opts.Cancel = cfg.Hooks.Cancel
		m := cfg.Machine()
		defer m.Release()
		res, err := pthreadrt.Run(pr, m, opts)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", w.Key, err)
		}
		return &RunResult{
			Workload: w.Key,
			Mode:     "pthread-1core",
			Threads:  cfg.Threads,
			Makespan: res.Makespan,
			Output:   res.Output,
			Stats:    res.Stats,
		}, nil
	})
}

// RunBaseline measures the unconverted Pthread program. Both the compile
// and the execution are memoized through cfg.Cache: the baseline is a
// pure function of (workload, threads, scale, machine, baseline runtime
// parameters), so every policy and budget cell of a sweep at the same
// configuration shares one run instead of recomputing it.
func RunBaseline(w Workload, cfg Config) (*RunResult, error) {
	return memo(cfg.Cache, key{stage: stageBaseline, spec: cfg.spec(w.Key).baselineRun()}, func() (*RunResult, error) {
		pr, err := CompileBaseline(w, cfg)
		if err != nil {
			return nil, err
		}
		return RunBaselineProgram(w, pr, cfg)
	})
}

// Translation is the compiled outcome of the five-stage pipeline for one
// placement: the emitted RCCE C source, the immutable Program lowered
// from the tree it was printed from, and the Stage 4 on-chip footprint.
type Translation struct {
	Source      string
	Program     *interp.Program
	OnChipBytes int
	// Placement is the profile-guided placement the translation applied
	// (profiled policy only; nil for the static policies).
	Placement *profile.Placement
}

// TranslateWorkload runs the translate pipeline for one cell, reusing
// cfg.Cache: Stage 4's decision is keyed by (workload, threads, scale,
// machine, policy, capacity, placement digest) and names the on-chip
// set; the translation — the emitted source and the Program lowered
// from the translated tree — is keyed by (workload, threads, scale,
// machine, on-chip set), so every cell whose decision picks one set
// shares it, and every translation of one source copies that source's
// one shared analysis. For the profiled policy it first obtains the
// workload's access profile (memoized per configuration) and optimizes
// the placement for the cell's effective budget.
func TranslateWorkload(w Workload, cfg Config, policy partition.Policy) (*Translation, error) {
	tr, pl, err := cfg.translate(w, policy)
	if err != nil {
		return nil, err
	}
	return tr.export(pl), nil
}

// export is the cell's view of a shared translation: pl is the cell's
// own placement.
func (tr *translation) export(pl *profile.Placement) *Translation {
	return &Translation{Source: tr.source, Program: tr.program, OnChipBytes: tr.onChipBytes, Placement: pl}
}

// translate resolves one cell's budget and, for the profiled policy,
// its placement, and returns the shared translation and the placement.
func (cfg Config) translate(w Workload, policy partition.Policy) (*translation, *profile.Placement, error) {
	capacity, err := EffectiveBudget(cfg.MPBCapacity, cfg.MachineConfig())
	if err != nil {
		return nil, nil, fmt.Errorf("%s translate: %w", w.Key, err)
	}
	var pl *profile.Placement
	if policy == partition.PolicyProfiled {
		pl, err = PlacementFor(w, cfg, capacity)
		if err != nil {
			return nil, nil, err
		}
	}
	if policy == partition.PolicyOffChipOnly {
		// Stage 4 ignores the capacity when everything goes off-chip;
		// normalising the decision's identity lets every budget share
		// one decision.
		capacity = 0
	}
	tr, err := cfg.translation(w, policy, capacity, pl)
	if err != nil {
		return nil, nil, err
	}
	return tr, pl, nil
}

// RunRCCEProgram executes a translated program with one process per UE.
func RunRCCEProgram(w Workload, tr *Translation, cfg Config, policy partition.Policy) (*RunResult, error) {
	return runStage(cfg.Hooks, stageSimulate, w.Key, func() (*RunResult, error) {
		run, err := cfg.runRCCE(tr.Program)
		return tr.result(w, cfg, policy, run, err)
	})
}

// runRCCE runs pr with one process per UE: the part of an RCCE cell
// that reads neither its policy nor its budget, only the program they
// translated to, which a grid shares between every cell of one on-chip
// set.
func (cfg Config) runRCCE(pr *interp.Program) (*rcce.Result, error) {
	m := cfg.Machine()
	defer m.Release()
	return rcce.Run(pr, m, cfg.rcceOptions())
}

// result labels one cell's run of tr, or its error, with the cell's own
// mode and placement; run itself is only read.
func (tr *Translation) result(w Workload, cfg Config, policy partition.Policy, run *rcce.Result, err error) (*RunResult, error) {
	mode := "rcce-onchip"
	switch policy {
	case partition.PolicyOffChipOnly:
		mode = "rcce-offchip"
	case partition.PolicyProfiled:
		mode = "rcce-profiled"
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", w.Key, mode, err)
	}
	r := &RunResult{
		Workload:         w.Key,
		Mode:             mode,
		Threads:          cfg.Threads,
		Makespan:         run.Makespan,
		Output:           run.Output,
		Stats:            run.Stats,
		TranslatedSource: tr.Source,
		OnChipBytes:      tr.OnChipBytes,
	}
	if tr.Placement != nil {
		r.PlacementDigest = tr.Placement.Digest()
	}
	return r, nil
}

// RunRCCE translates the Pthread program through the five-stage pipeline
// with the given Stage 4 policy and executes the translated program with
// one process per core. The program is lowered from the translated tree;
// that it is exactly what the translator prints is a test
// (TestPrintedIsWhatRuns), not a re-parse on this path.
func RunRCCE(w Workload, cfg Config, policy partition.Policy) (*RunResult, error) {
	tr, err := TranslateWorkload(w, cfg, policy)
	if err != nil {
		return nil, err
	}
	return RunRCCEProgram(w, tr, cfg, policy)
}

// BothResult pairs one baseline execution with one translated execution
// of the same workload — the unit of differential validation.
type BothResult struct {
	Baseline *RunResult
	RCCE     *RunResult
	// Match reports whether both backends printed the same distinct
	// result lines (see SameResults).
	Match bool
}

// Outcome is what one cell measures: the baseline and translated
// timings, the correctness check, and the simulator counters that
// explain the placement effect. Grid reports and the daemon's simulate
// responses embed it, so its JSON layout is theirs.
type Outcome struct {
	// BaselinePs/RCCEPs are simulated makespans in picoseconds — exact
	// integers, so reports diff cleanly across runs.
	BaselinePs uint64 `json:"baseline_ps"`
	RCCEPs     uint64 `json:"rcce_ps"`
	// Speedup is BaselinePs/RCCEPs.
	Speedup float64 `json:"speedup"`
	// Match is the end-to-end validation: the translated RCCE program
	// printed the same distinct result lines as the Pthread baseline.
	Match bool `json:"match"`
	// OnChipBytes is what Stage 4 placed in the MPB.
	OnChipBytes int `json:"onchip_bytes"`
	// PlacementDigest fingerprints the profile-guided placement map
	// (profiled cells only).
	PlacementDigest string `json:"placement_digest,omitempty"`
	// MPBAccesses/SharedAccesses are the RCCE run's memory counters.
	MPBAccesses    uint64 `json:"mpb_accesses"`
	SharedAccesses uint64 `json:"shared_accesses"`
}

// Outcome reads the cell's measured fields off the two runs.
func (b *BothResult) Outcome() Outcome {
	return Outcome{
		BaselinePs:      uint64(b.Baseline.Makespan),
		RCCEPs:          uint64(b.RCCE.Makespan),
		Speedup:         Speedup(b.Baseline, b.RCCE),
		Match:           b.Match,
		OnChipBytes:     b.RCCE.OnChipBytes,
		PlacementDigest: b.RCCE.PlacementDigest,
		MPBAccesses:     b.RCCE.Stats.MPBAccesses,
		SharedAccesses:  b.RCCE.Stats.SharedAccesses,
	}
}

// RunBothBackends runs w through the single-core Pthread baseline and
// through the full translate→RCCE→sccsim pipeline under the given
// Stage 4 policy, then compares their outputs. This is the validation
// path shared by the experiment figures, the grid runner and the
// conformance engine.
func RunBothBackends(w Workload, cfg Config, policy partition.Policy) (*BothResult, error) {
	base, err := RunBaseline(w, cfg)
	if err != nil {
		return nil, err
	}
	conv, err := RunRCCE(w, cfg, policy)
	if err != nil {
		return nil, err
	}
	return &BothResult{
		Baseline: base,
		RCCE:     conv,
		Match:    SameResults(base.Output, conv.Output),
	}, nil
}

// DistinctLines returns the sorted set of distinct non-empty lines.
func DistinctLines(s string) []string {
	seen := make(map[string]bool)
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			seen[l] = true
		}
	}
	out := make([]string, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// SameResults reports whether two runs computed the same answer: the
// baseline prints each result line once, the RCCE program prints it once
// per core, so we compare distinct line sets.
func SameResults(base, rcceOut string) bool {
	a, b := DistinctLines(base), DistinctLines(rcceOut)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Speedup is baseline time over converted time.
func Speedup(base, conv *RunResult) float64 {
	if conv.Makespan == 0 {
		return 0
	}
	return float64(base.Makespan) / float64(conv.Makespan)
}
