package bench

// Compile-once batching. A compiled interp.Program is immutable, so one
// compile can serve every matrix cell (and every concurrent worker) that
// executes the same source. The Cache memoizes the compile-side stages
// of a harness run — the Pthread source compile and the
// translate→emit→re-parse pipeline — plus two run-level results that
// are pure functions of their configuration: the single-core baseline
// execution (identical across every policy and budget of a sweep) and
// the access-profiling pass (identical across every budget). A grid
// sweep or a conformance matrix therefore compiles each workload
// exactly once per distinct source, runs its baseline once per
// (workload, cores) and profiles it once per (workload, cores), fanning
// the cells out across host cores against the shared results.

import (
	"fmt"
	"sync/atomic"

	"hsmcc/internal/core"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
)

// programKey identifies one compiled source image.
type programKey struct {
	name string
	src  string
}

// translationKey identifies one run of the five-stage translation
// pipeline. Scale and threads pin the generated source; policy and the
// effective MPB capacity pin the Stage 4 placement; placement is the
// profile-guided placement map digest ("" for the static policies), so
// two profiled translations at the same (cores, policy-name, capacity)
// tuple but with different measured placements — and a profiled cell
// versus a static-policy cell — can never share a cache entry. machine
// is the machine-config digest: now that sweeps span machine presets, a
// translation placed for one machine's MPB geometry must never serve a
// cell on another, even when the effective byte capacities coincide.
// The translated source itself then feeds the program cache, so cells
// whose placements emit identical C (e.g. budgets above the working-set
// size) share one compile.
type translationKey struct {
	workload  string
	threads   int
	scale     float64
	policy    partition.Policy
	capacity  int
	placement string
	machine   string
}

// translation is the cached output of the pipeline before any
// TransformRCCE hook runs (the hook is a per-run fault-injection seam,
// so it must apply after the cache).
type translation struct {
	source      string
	onChipBytes int
	// offChipAllocs/onChipAllocs name the program's shared allocations
	// in runtime call order per region (translate.Unit.Allocs): the
	// labels a profiling run attaches to the RCCE allocator's ranges.
	offChipAllocs, onChipAllocs []string
}

// baselineRunKey identifies one baseline execution. The baseline is a
// pure function of the workload source (workload, threads, scale) and
// the run environment (machine configuration plus baseline runtime
// options, folded into env) — every policy and budget variant
// of a sweep reuses it, the ROADMAP's cross-cell memoization.
type baselineRunKey struct {
	workload string
	threads  int
	scale    float64
	env      string
}

// profileKey identifies one access-profiling pass. The profile is
// measured under the uniform off-chip reference placement, so it is
// budget-independent: every MPB budget of a profiled sweep shares one
// profiling run.
type profileKey struct {
	workload string
	threads  int
	scale    float64
	env      string
}

// placementKey identifies one optimized placement: the profile it was
// derived from plus the effective byte budget. Memoizing the optimizer
// output (not just the profile) means a profiled cell's digest lookup
// and its translation share one knapsack solve.
type placementKey struct {
	profileKey
	budget int
}

// Cache memoizes compile-side work and configuration-pure run results
// across harness runs. Safe for concurrent use; a nil *Cache disables
// caching (every call recomputes).
type Cache struct {
	programs     onceCache[programKey, *interp.Program]
	translations onceCache[translationKey, *translation]
	baselines    onceCache[baselineRunKey, *RunResult]
	profiles     onceCache[profileKey, *profile.Report]
	placements   onceCache[placementKey, *profile.Placement]

	// budget, when non-nil, is the shared LRU spine bounding the total
	// estimated resident cost of the five maps (see evict.go). Sweep
	// caches are unbounded; the serving daemon's process-lifetime cache
	// is sized.
	budget *costBudget

	// Compute counters (not cache lookups): how many times each stage
	// actually ran. Tests pin the cross-cell sharing contract on these.
	programCompiles int64
	translateRuns   int64
	baselineRuns    int64
	profileRuns     int64
}

// NewCache returns an empty, unbounded compile cache — the right shape
// for a sweep, whose cache dies with the run.
func NewCache() *Cache { return &Cache{} }

// NewCacheSized returns a compile cache whose total estimated resident
// cost is bounded by maxCostBytes: admissions beyond the bound evict
// least-recently-used entries (across all five memo maps), and a single
// entry costing more than the whole budget is served but never cached.
// Costs are estimates — the emitted/source text dominates programs and
// translations, outputs dominate baseline runs — chosen so the bound
// tracks real memory to well within an order of magnitude without
// deep-walking every AST. maxCostBytes <= 0 means unbounded.
func NewCacheSized(maxCostBytes int64) *Cache {
	c := &Cache{}
	if maxCostBytes <= 0 {
		return c
	}
	b := newCostBudget(maxCostBytes)
	c.budget = b
	c.programs.budget = b
	c.programs.costOf = func(k programKey, _ *interp.Program) int64 {
		// Compiled closures, frame layouts and the AST together run a
		// small multiple of the source text.
		return 512 + 6*int64(len(k.src))
	}
	c.translations.budget = b
	c.translations.costOf = func(_ translationKey, t *translation) int64 {
		n := 256 + int64(len(t.source))
		for _, s := range t.offChipAllocs {
			n += int64(len(s)) + 16
		}
		for _, s := range t.onChipAllocs {
			n += int64(len(s)) + 16
		}
		return n
	}
	c.baselines.budget = b
	c.baselines.costOf = func(_ baselineRunKey, r *RunResult) int64 {
		return 512 + int64(len(r.Output)) + int64(len(r.TranslatedSource))
	}
	c.profiles.budget = b
	c.profiles.costOf = func(_ profileKey, r *profile.Report) int64 {
		return 256 + 96*int64(len(r.Vars))
	}
	c.placements.budget = b
	c.placements.costOf = func(_ placementKey, p *profile.Placement) int64 {
		return 256 + 64*int64(len(p.Choices))
	}
	return c
}

// CacheStats reports how many times each memoized stage was computed
// (as opposed to served from the cache), plus the lookup and eviction
// counters of the shared LRU budget (zero-valued for unbounded caches
// except Hits/Misses/Entries, which are always tracked).
type CacheStats struct {
	ProgramCompiles int64
	TranslateRuns   int64
	BaselineRuns    int64
	ProfileRuns     int64

	// Hits/Misses count lookups across all five maps. A lookup that
	// coalesces onto another request's in-flight computation counts as
	// a hit (it shares the result without recomputing).
	Hits   int64
	Misses int64
	// Entries is the live entry count across the maps.
	Entries int
	// Evictions, CostBytes and MaxCostBytes describe the LRU budget.
	Evictions    int64
	CostBytes    int64
	MaxCostBytes int64
}

// HitRate is Hits / (Hits + Misses), 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the compute counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	s := CacheStats{
		ProgramCompiles: atomic.LoadInt64(&c.programCompiles),
		TranslateRuns:   atomic.LoadInt64(&c.translateRuns),
		BaselineRuns:    atomic.LoadInt64(&c.baselineRuns),
		ProfileRuns:     atomic.LoadInt64(&c.profileRuns),
	}
	for _, add := range []func() (int64, int64){
		c.programs.counters, c.translations.counters,
		c.baselines.counters, c.profiles.counters, c.placements.counters,
	} {
		h, m := add()
		s.Hits += h
		s.Misses += m
	}
	s.Entries = c.programs.len() + c.translations.len() +
		c.baselines.len() + c.profiles.len() + c.placements.len()
	if c.budget != nil {
		s.CostBytes, s.MaxCostBytes, s.Evictions = c.budget.stats()
	}
	return s
}

// program returns the compiled form of (name, src), compiling at most
// once per distinct source even under concurrent lookups. fault and
// span, when non-nil, fire inside the compute closure (Config.Fault's
// and Config.Span's "compile" seam) so an injected panic or
// cancellation exercises the cache's drop-on-error discipline rather
// than bypassing it — and so a cache hit produces no compile span.
func (c *Cache) program(name, src string, fault func(string) error, span func(string) func()) (*interp.Program, error) {
	compile := func() (*interp.Program, error) {
		if fault != nil {
			if err := fault("compile"); err != nil {
				return nil, fmt.Errorf("%s compile: %w", name, err)
			}
		}
		if span != nil {
			defer span("compile")()
		}
		return interp.Compile(name, src)
	}
	if c == nil {
		return compile()
	}
	return c.programs.get(programKey{name, src}, func() (*interp.Program, error) {
		atomic.AddInt64(&c.programCompiles, 1)
		return compile()
	})
}

// translate runs (or reuses) the translation pipeline for one cell.
// pl carries the profile-guided placement for PolicyProfiled cells (nil
// for the static policies).
func (c *Cache) translate(w Workload, threads int, scale float64, policy partition.Policy, capacity int, pl *profile.Placement, machineEnv string, fault func(string) error, span func(string) func()) (*translation, error) {
	run := func() (*translation, error) {
		if c != nil {
			atomic.AddInt64(&c.translateRuns, 1)
		}
		if fault != nil {
			if err := fault("translate"); err != nil {
				return nil, fmt.Errorf("%s translate: %w", w.Key, err)
			}
		}
		if span != nil {
			defer span("translate")()
		}
		src := w.Source(threads, scale)
		cc := core.Config{
			Cores:       threads,
			Policy:      policy,
			MPBCapacity: capacity,
		}
		if pl != nil {
			cc.Placement = pl.OnChip()
		}
		pipe, err := core.Run(w.Key+".c", src, cc)
		if err != nil {
			return nil, fmt.Errorf("%s translate: %w", w.Key, err)
		}
		t := &translation{source: pipe.Output, onChipBytes: pipe.Part.OnChipBytes}
		for _, a := range pipe.Unit.Allocs {
			if a.OnChip {
				t.onChipAllocs = append(t.onChipAllocs, a.Var)
			} else {
				t.offChipAllocs = append(t.offChipAllocs, a.Var)
			}
		}
		return t, nil
	}
	if c == nil {
		return run()
	}
	key := translationKey{w.Key, threads, scale, policy, capacity, "", machineEnv}
	if pl != nil {
		key.placement = pl.Digest()
	}
	return c.translations.get(key, run)
}

// baselineRun runs (or reuses) the baseline execution for cfg.
func (c *Cache) baselineRun(w Workload, cfg Config) (*RunResult, error) {
	run := func() (*RunResult, error) {
		if c != nil {
			atomic.AddInt64(&c.baselineRuns, 1)
		}
		return runBaselineUncached(w, cfg)
	}
	if c == nil {
		return run()
	}
	key := baselineRunKey{w.Key, cfg.Threads, cfg.Scale, cfg.baselineEnv()}
	return c.baselines.get(key, run)
}

// profileReport runs (or reuses) the access-profiling pass for cfg.
func (c *Cache) profileReport(w Workload, cfg Config) (*profile.Report, error) {
	run := func() (*profile.Report, error) {
		if c != nil {
			atomic.AddInt64(&c.profileRuns, 1)
		}
		return profileUncached(w, cfg)
	}
	if c == nil {
		return run()
	}
	key := profileKey{w.Key, cfg.Threads, cfg.Scale, cfg.rcceEnv()}
	return c.profiles.get(key, run)
}

// placementFor runs (or reuses) the profile→optimize pair for cfg at
// the given effective budget.
func (c *Cache) placementFor(w Workload, cfg Config, budget int) (*profile.Placement, error) {
	run := func() (*profile.Placement, error) {
		rep, err := c.profileReport(w, cfg)
		if err != nil {
			return nil, err
		}
		return profile.Optimize(rep, budget), nil
	}
	if c == nil {
		return run()
	}
	pk := profileKey{w.Key, cfg.Threads, cfg.Scale, cfg.rcceEnv()}
	return c.placements.get(placementKey{pk, budget}, run)
}
