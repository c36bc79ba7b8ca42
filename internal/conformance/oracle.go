package conformance

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"hsmcc/internal/bench"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
)

// Matrix is the (cores × oversubscription × placement policy × MPB
// budget) sweep every kernel is checked across. It mirrors the grid
// axes of internal/bench: policy names parse with bench.ParsePolicy and
// budget 0 means the machine's full MPB.
type Matrix struct {
	Cores    []int
	Policies []string
	Budgets  []int
	// Oversub lists §7.2 many-to-one factors: factor f > 1 runs
	// f×cores UEs assigned round-robin onto the cores (the runtime's
	// AllowOversubscribe mode, time-multiplexed with context-switch
	// costs); factor 1 is the one-UE-per-core default. Empty means [1].
	Oversub []int
}

// DefaultMatrix covers both launch shapes (2 and 4 UEs), all four
// Stage 4 policies — the three static heuristics plus the
// profile-guided `profiled` placement, whose profiling pass and
// optimizer thereby face every generated kernel shape — an
// unconstrained and a pressure-inducing MPB budget, and both the 1:1
// and the §7.2 two-UEs-per-core mapping: the smallest sweep that
// exercises every placement and scheduling decision the paper's claim
// quantifies over.
func DefaultMatrix() Matrix {
	return Matrix{
		Cores:    []int{2, 4},
		Policies: []string{"offchip", "size", "freq", "profiled"},
		Budgets:  []int{0, 512},
		Oversub:  []int{1, 2},
	}
}

// SmokeMatrix is the minimal sweep used by the fuzz target, where
// per-input cost dominates throughput.
func SmokeMatrix() Matrix {
	return Matrix{
		Cores:    []int{2},
		Policies: []string{"offchip", "size"},
		Budgets:  []int{0},
	}
}

// factors returns the oversubscription axis ([1] when unset).
func (m Matrix) factors() []int {
	if len(m.Oversub) == 0 {
		return []int{1}
	}
	return m.Oversub
}

// Cells returns the matrix's RCCE cell count (per kernel, excluding the
// one baseline run per (cores, factor) value).
func (m Matrix) Cells() int {
	return len(m.Cores) * len(m.factors()) * len(m.Policies) * len(m.Budgets)
}

// ParseMatrix builds a validated matrix from the comma-separated flag
// syntax shared by hsmconf and the docs ("2,4", "offchip,size,freq",
// "0,512", "1,2").
func ParseMatrix(cores, policies, budgets, oversub string) (Matrix, error) {
	var m Matrix
	for _, s := range strings.Split(cores, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return m, fmt.Errorf("bad cores value %q: %w", s, err)
		}
		m.Cores = append(m.Cores, v)
	}
	for _, s := range strings.Split(policies, ",") {
		m.Policies = append(m.Policies, strings.TrimSpace(s))
	}
	for _, s := range strings.Split(budgets, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return m, fmt.Errorf("bad budgets value %q: %w", s, err)
		}
		m.Budgets = append(m.Budgets, v)
	}
	if oversub != "" {
		for _, s := range strings.Split(oversub, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return m, fmt.Errorf("bad oversub value %q: %w", s, err)
			}
			m.Oversub = append(m.Oversub, v)
		}
	}
	return m, m.Validate()
}

// Validate rejects malformed matrices before simulation time is spent.
func (m Matrix) Validate() error {
	if len(m.Cores) == 0 || len(m.Policies) == 0 || len(m.Budgets) == 0 {
		return fmt.Errorf("conformance: matrix needs at least one cores value, policy and budget")
	}
	for _, c := range m.Cores {
		if c < 1 || c > 48 {
			return fmt.Errorf("conformance: cores %d out of range [1,48]", c)
		}
	}
	for _, p := range m.Policies {
		if _, err := bench.ParsePolicy(p); err != nil {
			return err
		}
	}
	for _, b := range m.Budgets {
		if b < 0 {
			return fmt.Errorf("conformance: negative MPB budget %d", b)
		}
	}
	for _, f := range m.Oversub {
		if f < 1 || f > 8 {
			return fmt.Errorf("conformance: oversubscription factor %d out of range [1,8]", f)
		}
	}
	return nil
}

// Divergence is one failed differential check: the cell, both outputs,
// and everything needed to reproduce it from the log line alone.
type Divergence struct {
	Seed   int64  `json:"seed"`
	Cores  int    `json:"cores"`
	Policy string `json:"policy"`
	Budget int    `json:"budget"`
	// Oversub is the §7.2 many-to-one factor of the failing cell
	// (0 or 1: one UE per core).
	Oversub int `json:"oversub,omitempty"`
	// Synth marks a synthetic-generator kernel (hsmconf -synth); Seed
	// then reproduces via synth.ParamsForSeed and SynthKey carries the
	// exact parameter vector (which for shrunken vectors is no longer
	// seed-derived).
	Synth    bool   `json:"synth,omitempty"`
	SynthKey string `json:"synth_key,omitempty"`
	BaseOut  string `json:"base_out,omitempty"`
	RCCEOut  string `json:"rcce_out,omitempty"`
	// Err is set when a pipeline stage failed outright (parse, sema,
	// translate, execution) rather than producing divergent output.
	Err string `json:"err,omitempty"`
	// Source is the Pthread kernel; Translated the (possibly mutated)
	// RCCE program it became.
	Source     string `json:"source,omitempty"`
	Translated string `json:"translated,omitempty"`
}

// String is the one-line failure report. It leads with the explicit
// seed and cell so any reported failure is reproducible from the log:
//
//	hsmconf -seed <seed> -n 1 -cores <cores> -policies <policy> -budgets <budget> -oversub <factor>
func (d *Divergence) String() string {
	what := "output divergence"
	if d.Err != "" {
		what = "error: " + d.Err
	}
	f := d.Oversub
	if f < 1 {
		f = 1
	}
	mode := ""
	if d.Synth {
		mode = "-synth "
	}
	return fmt.Sprintf("seed=%d cores=%d oversub=%d policy=%s budget=%d: %s (repro: hsmconf %s-seed %d -n 1 -cores %d -oversub %d -policies %s -budgets %d)",
		d.Seed, d.Cores, f, d.Policy, d.Budget, what, mode, d.Seed, d.Cores, f, d.Policy, d.Budget)
}

// Engine runs kernels through both backends across a matrix.
type Engine struct {
	Matrix Matrix
	// Gen bounds the grammar generator: Grammar(e.Gen) is the
	// seed→kernel function hsmconf runs in grammar mode.
	Gen GenOptions
	// Mutate, when non-nil, corrupts the translated RCCE source before
	// it is re-parsed and executed (runRCCE) — the fault-injection seam
	// used to prove the oracle catches translator bugs.
	Mutate func(src string) string

	// cfgOnce/baseCfg cache the harness config template with its
	// machine fingerprint precomputed, so the thousands of cell configs
	// a soak derives from it never build a machine just for cache keys.
	cfgOnce sync.Once
	baseCfg bench.Config
}

// NewEngine returns an engine over the default matrix and generator.
func NewEngine() *Engine {
	return &Engine{Matrix: DefaultMatrix(), Gen: DefaultGenOptions()}
}

// config assembles the bench harness configuration for one cell. The
// cache — typically one per kernel — lets every matrix cell share the
// kernel's one analysis, its compiled baseline Program and each
// translation (analyse once, run the whole matrix).
func (e *Engine) config(cores, budget int, cache *bench.Cache) bench.Config {
	e.cfgOnce.Do(func() { e.baseCfg = bench.DefaultConfig().PrecomputeMachineEnv() })
	cfg := e.baseCfg
	cfg.Threads = cores
	cfg.MPBCapacity = budget
	cfg.Cache = cache
	return cfg
}

// runRCCE runs the translated program of one cell. With Mutate set, the
// translation's source is mutated and recompiled in its place — after
// the translation memo, and outside the cache, so a mutated program
// never serves an unmutated lookup. Otherwise runs, when non-nil, maps
// each Program already run under cfg's runtime parameters to its run,
// and a cell whose translation is one of them runs nothing.
func (e *Engine) runRCCE(w bench.Workload, cfg bench.Config, pol partition.Policy, runs map[*interp.Program]*bench.RunResult) (*bench.RunResult, error) {
	tr, err := bench.TranslateWorkload(w, cfg, pol)
	if err != nil {
		return nil, err
	}
	if e.Mutate != nil {
		tr.Source = e.Mutate(tr.Source)
		if tr.Program, err = interp.Compile(w.Key+"_rcce.c", tr.Source); err != nil {
			return nil, fmt.Errorf("%s reparse mutated source: %w\n---\n%s", w.Key, err, tr.Source)
		}
		return bench.RunRCCEProgram(w, tr, cfg, pol)
	}
	if run, ok := runs[tr.Program]; ok {
		return run, nil
	}
	run, err := bench.RunRCCEProgram(w, tr, cfg, pol)
	if err == nil && runs != nil {
		runs[tr.Program] = run
	}
	return run, err
}

// workload wraps fixed kernel source as a bench workload. The source is
// already emitted for the right thread count, so the harness parameters
// are ignored.
func kernelWorkload(seed int64, src string) bench.Workload {
	return bench.Workload{
		Key:    fmt.Sprintf("gen%d", seed),
		Name:   fmt.Sprintf("generated kernel %d", seed),
		Class:  "conformance",
		Source: func(threads int, scale float64) string { return src },
	}
}

// cellConfig assembles the harness configuration for one cell: the UE
// count is cores×oversub, and an oversubscribed cell maps those UEs
// round-robin onto cores cores in the runtime's §7.2 many-to-one mode.
func (e *Engine) cellConfig(cores, budget, oversub int, cache *bench.Cache) bench.Config {
	ues := cores * max(oversub, 1)
	cfg := e.config(ues, budget, cache)
	if oversub > 1 {
		cfg.RCCE.Cores = make([]int, ues)
		for i := range cfg.RCCE.Cores {
			cfg.RCCE.Cores[i] = i % cores
		}
		cfg.RCCE.AllowOversubscribe = true
	}
	return cfg
}

// Kernel is one generated program the oracle checks. Two families
// implement it: the grammar generator's *Spec and SynthKernel, a
// synthetic parameter vector. Everything around the differential check
// — the matrix sweep, the one-cell replay, the shrinker, the worker
// pool and the failure record — is written once against this
// interface.
type Kernel interface {
	// Source emits the kernel's Pthread C for ues UEs.
	Source(ues int) string
	// reductions returns the one-step-smaller candidates the shrinker
	// tries, in the order it tries them.
	reductions() []Kernel
	// size is the measure shrinking minimises.
	size() int
	// label is how a divergence names the kernel: its seed and, for a
	// synthetic vector, the vector's canonical key ("" otherwise).
	label() (seed int64, synthKey string)
}

// named stamps a synthetic kernel's key on div (nil stays nil).
func named(div *Divergence, synthKey string) *Divergence {
	if div != nil && synthKey != "" {
		div.Synth = true
		div.SynthKey = synthKey
	}
	return div
}

// CheckCell runs k through both backends at one matrix cell and returns
// the divergence, or nil when the backends agree.
func (e *Engine) CheckCell(k Kernel, cores int, policy string, budget, oversub int) *Divergence {
	seed, key := k.label()
	src := k.Source(cores * max(oversub, 1))
	return named(e.CheckSource(seed, src, cores, policy, budget, oversub), key)
}

// CheckSource differentially checks fixed kernel source at one cell —
// the entry point for replaying persisted corpus kernels, where the .c
// file rather than the generator is the source of truth. The source
// must already be emitted for cores×oversub threads.
func (e *Engine) CheckSource(seed int64, src string, cores int, policy string, budget, oversub int) *Divergence {
	div := &Divergence{Seed: seed, Cores: cores, Policy: policy, Budget: budget, Oversub: oversub, Source: src}
	pol, err := bench.ParsePolicy(policy)
	if err != nil {
		div.Err = err.Error()
		return div
	}
	w, cfg := kernelWorkload(seed, src), e.cellConfig(cores, budget, oversub, bench.NewCache())
	base, err := bench.RunBaseline(w, cfg)
	if err != nil {
		div.Err = err.Error()
		return div
	}
	conv, err := e.runRCCE(w, cfg, pol, nil)
	if err != nil {
		div.Err = err.Error()
		return div
	}
	if bench.SameResults(base.Output, conv.Output) {
		return nil
	}
	div.BaseOut = base.Output
	div.RCCEOut = conv.Output
	div.Translated = conv.TranslatedSource
	return div
}

// Check runs k across the whole matrix, analysing the kernel once per
// distinct source and sharing one baseline run, and returns the first
// divergence (cores-ascending, policy-major) or nil. Sharing matters
// twice over: the matrix's RCCE cells all diff against the same
// reference execution, and the per-kernel cache means each source is
// parsed and analysed once for the whole matrix, every policy and
// budget translating a copy of that one analysis.
func (e *Engine) Check(k Kernel) *Divergence {
	seed, key := k.label()
	return named(e.checkMatrix(seed, k.Source), key)
}

// checkMatrix walks every (cores, oversub, policy, budget) cell of the
// matrix; srcFor emits the kernel for a UE count. Within one (cores,
// oversub) point, cells whose decisions pick one on-chip set translate
// to one shared Program, and it runs once: a later cell reuses the
// earlier cell's run, which passed (a failing one returns first).
func (e *Engine) checkMatrix(seed int64, srcFor func(ues int) string) *Divergence {
	cache := bench.NewCache()
	for _, cores := range e.Matrix.Cores {
		for _, factor := range e.Matrix.factors() {
			ues := cores * factor
			src := srcFor(ues)
			w := kernelWorkload(seed, src)
			base, err := bench.RunBaseline(w, e.cellConfig(cores, 0, factor, cache))
			if err != nil {
				return &Divergence{Seed: seed, Cores: cores, Oversub: factor,
					Policy: e.Matrix.Policies[0], Budget: e.Matrix.Budgets[0],
					Source: src, Err: "baseline: " + err.Error()}
			}
			runs := make(map[*interp.Program]*bench.RunResult)
			for _, policy := range e.Matrix.Policies {
				pol, err := bench.ParsePolicy(policy)
				if err != nil {
					return &Divergence{Seed: seed, Cores: cores, Oversub: factor,
						Policy: policy, Source: src, Err: err.Error()}
				}
				for _, budget := range e.Matrix.Budgets {
					div := &Divergence{Seed: seed, Cores: cores, Oversub: factor,
						Policy: policy, Budget: budget, Source: src}
					conv, err := e.runRCCE(w, e.cellConfig(cores, budget, factor, cache), pol, runs)
					if err != nil {
						div.Err = err.Error()
						return div
					}
					if !bench.SameResults(base.Output, conv.Output) {
						div.BaseOut = base.Output
						div.RCCEOut = conv.Output
						div.Translated = conv.TranslatedSource
						return div
					}
				}
			}
		}
	}
	return nil
}

// SpecForSeed deterministically derives kernel i of a run: the kernel's
// own seed is base+i, so a failure in kernel 137 of a 10k-kernel soak
// reproduces directly via -seed base+137 -n 1.
func SpecForSeed(seed int64, opts GenOptions) *Spec {
	s := Generate(rand.New(rand.NewSource(seed)), opts)
	s.Seed = seed
	return s
}

// Grammar returns the grammar family's seed→kernel function under
// opts: Run over it checks SpecForSeed kernels.
func Grammar(opts GenOptions) func(seed int64) Kernel {
	return func(seed int64) Kernel { return SpecForSeed(seed, opts) }
}

// Failure is one failed kernel with its shrunken reproducer. MinSource
// is Minimized emitted for the failing cell's cores×oversub UEs.
type Failure struct {
	Seed      int64       `json:"seed"`
	Div       *Divergence `json:"divergence"`
	Kernel    Kernel      `json:"kernel"`
	Minimized Kernel      `json:"minimized,omitempty"`
	MinSource string      `json:"min_source,omitempty"`
}

// Report summarises an engine run; Failures are in seed order.
type Report struct {
	BaseSeed int64
	Kernels  int
	Failures []*Failure
}

// Run checks the n kernels kernelFor derives from seeds base..base+n-1
// on parallel workers (<= 0 = GOMAXPROCS; bench.InOrder), shrinking any
// failures to minimal reproducers. Kernel i reproduces directly via
// -seed base+i -n 1. Failures come back, and go to logf (when non-nil)
// one line each, in seed order, so two runs over the same seeds report
// identically at any parallelism.
func (e *Engine) Run(base int64, n, parallel int, kernelFor func(seed int64) Kernel, logf func(format string, args ...any)) *Report {
	found := make([]*Failure, n)
	rep := &Report{BaseSeed: base, Kernels: n}
	bench.InOrder(n, parallel, func(i int) {
		found[i] = e.checkSeed(base+int64(i), kernelFor)
	}, func(i int) {
		f := found[i]
		if f == nil {
			return
		}
		rep.Failures = append(rep.Failures, f)
		if logf != nil {
			logf("conformance: FAIL %s\nminimized (%d lines):\n%s",
				f.Div, strings.Count(f.MinSource, "\n"), f.MinSource)
		}
	})
	return rep
}

// checkSeed checks the kernel of one seed and returns its shrunken
// failure, or nil when it passes.
func (e *Engine) checkSeed(seed int64, kernelFor func(seed int64) Kernel) *Failure {
	k := kernelFor(seed)
	div := e.Check(k)
	if div == nil {
		return nil
	}
	min := e.Shrink(k, div)
	return &Failure{Seed: seed, Div: div, Kernel: k, Minimized: min,
		MinSource: min.Source(div.Cores * max(div.Oversub, 1))}
}
