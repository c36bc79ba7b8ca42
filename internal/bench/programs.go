package bench

// Compile-once batching. A compiled interp.Program is immutable, so one
// compile can serve every matrix cell (and every concurrent worker) that
// executes the same source. The Cache memoizes the compile-side stages
// of a harness run — the Pthread source compile and the
// translate→emit→re-parse pipeline — plus the run-level results that
// are pure functions of their configuration: the single-core baseline
// execution (identical across every policy and budget of a sweep), the
// access-profiling pass (identical across every budget) and the
// placement optimized from it. A grid
// sweep or a conformance matrix therefore compiles each workload
// exactly once per distinct source, runs its baseline once per
// (workload, cores) and profiles it once per (workload, cores), fanning
// the cells out across host cores against the shared results.

import (
	"container/list"
	"fmt"
	"sync"

	"hsmcc/internal/core"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
)

// stage names one memoized computation. The first five are also the
// stage names the Hooks.Fault and Hooks.Span seams are called with.
type stage uint8

const (
	stageCompile stage = iota
	stageTranslate
	stageBaseline
	stageSimulate
	stageProfile
	stagePlacement
	numStages
)

func (st stage) String() string {
	return [numStages]string{"compile", "translate", "baseline", "simulate", "profile", "placement"}[st]
}

// key identifies one memoized value: the stage that computes it and
// exactly the inputs that stage reads, every other field left zero. It
// is plain comparable data (TestSpecIsPlainData) and is the map key
// itself — nothing in-tree carries a key across a process boundary, so
// there is no digest.
//
//	compile    name, src — the text is the identity, so cells whose
//	           placements emit identical C (e.g. budgets above the
//	           working-set size) share one compile
//	translate  spec.source(), policy, capacity, placement
//	baseline   spec.baselineRun()
//	profile    spec.rcceRun() — measured under the uniform off-chip
//	           reference placement, so every budget shares one pass
//	placement  spec.rcceRun(), capacity — the optimizer's output, so a
//	           profiled cell's digest lookup and its translation share one
//	           knapsack solve
//	simulate   spec.rcceRun(), policy, capacity, placement — the grid
//	           runner's per-sweep cell memo (never in a shared Cache: an
//	           RCCE run is what a request traces)
//
// placement is the profile-guided placement map digest ("" for the
// static policies), so two profiled translations at the same (cores,
// capacity) but with different measured placements — and a profiled
// cell versus a static-policy cell — can never share an entry. The
// machine fingerprint inside spec keeps a value placed or timed for one
// machine's geometry from ever serving a cell on another, even when the
// effective byte capacities coincide.
type key struct {
	stage     stage
	spec      spec
	policy    partition.Policy
	capacity  int
	placement string
	name, src string
}

// translation is the cached output of the pipeline: the emitted source,
// before it is compiled.
type translation struct {
	source      string
	onChipBytes int
	// offChipAllocs/onChipAllocs name the program's shared allocations
	// in runtime call order per region (translate.Unit.Allocs): the
	// labels a profiling run attaches to the RCCE allocator's ranges.
	offChipAllocs, onChipAllocs []string
}

// Cache memoizes compile-side work and configuration-pure run results
// across harness runs: one map from key to value under one mutex, which
// also guards the LRU list and the cost total of a sized cache (see
// evict.go). Safe for concurrent use; a nil *Cache computes every time.
type Cache struct {
	mu sync.Mutex
	m  map[key]*entry
	// max, when positive, bounds cur, the total estimated resident cost
	// of the admitted entries on ll (front = most recently used). Sweep
	// caches are unbounded; the serving daemon's process-lifetime cache
	// is sized.
	max, cur  int64
	ll        list.List // of *entry
	evictions int64
	hits      int64
	// computes counts, per stage, how many times a value was actually
	// computed rather than served: every miss creates one entry and every
	// entry computes once, so their sum is the miss count. Tests pin the
	// cross-cell sharing contract on these.
	computes [numStages]int64
}

// NewCache returns an empty, unbounded cache — the right shape for a
// sweep, whose cache dies with the run.
func NewCache() *Cache { return NewCacheSized(0) }

// NewCacheSized returns a cache whose total estimated resident cost is
// bounded by maxCostBytes: admissions beyond the bound evict
// least-recently-used entries, whatever their stage, and a single entry
// costing more than the whole budget is served but never cached.
// maxCostBytes <= 0 means unbounded.
func NewCacheSized(maxCostBytes int64) *Cache {
	return &Cache{m: make(map[key]*entry), max: max(maxCostBytes, 0)}
}

// cost estimates the resident bytes of one entry. Estimates — the
// emitted/source text dominates programs and translations, outputs
// dominate runs — chosen so the bound tracks real memory to well within
// an order of magnitude without deep-walking every AST.
func cost(k key, v any) int64 {
	switch v := v.(type) {
	case *interp.Program:
		// Compiled closures, frame layouts and the AST together run a
		// small multiple of the source text.
		return 512 + 6*int64(len(k.src))
	case *translation:
		n := 256 + int64(len(v.source))
		for _, s := range v.offChipAllocs {
			n += int64(len(s)) + 16
		}
		for _, s := range v.onChipAllocs {
			n += int64(len(s)) + 16
		}
		return n
	case *RunResult:
		return 512 + int64(len(v.Output)) + int64(len(v.TranslatedSource))
	case *profile.Report:
		return 256 + 96*int64(len(v.Vars))
	case *profile.Placement:
		return 256 + 64*int64(len(v.Choices))
	}
	return 1
}

// CacheStats reports how many times each memoized stage was computed
// (as opposed to served from the cache), plus the lookup and eviction
// counters (the last three zero-valued for unbounded caches).
type CacheStats struct {
	ProgramCompiles int64
	TranslateRuns   int64
	BaselineRuns    int64
	ProfileRuns     int64

	// Hits/Misses count lookups across all stages. A lookup that
	// coalesces onto another request's in-flight computation counts as
	// a hit (it shares the result without recomputing).
	Hits   int64
	Misses int64
	// Entries is the live entry count.
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

// Stats returns the compute, lookup and eviction counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		ProgramCompiles: c.computes[stageCompile],
		TranslateRuns:   c.computes[stageTranslate],
		BaselineRuns:    c.computes[stageBaseline],
		ProfileRuns:     c.computes[stageProfile],
		Hits:            c.hits,
		Entries:         len(c.m),
		Evictions:       c.evictions,
		CostBytes:       c.cur,
		MaxCostBytes:    c.max,
	}
	for _, n := range c.computes {
		s.Misses += n
	}
	return s
}

// translation runs (or reuses) the five-stage pipeline for w at cfg's
// thread count and scale. pl carries the profile-guided placement for
// PolicyProfiled cells (nil for the static policies).
func (cfg Config) translation(w Workload, policy partition.Policy, capacity int, pl *profile.Placement) (*translation, error) {
	k := key{stage: stageTranslate, spec: cfg.spec(w.Key).source(), policy: policy, capacity: capacity}
	if pl != nil {
		k.placement = pl.Digest()
	}
	return memo(cfg.Cache, k, func() (*translation, error) {
		return runStage(cfg.Hooks, stageTranslate, w.Key, func() (*translation, error) {
			cc := core.Config{
				Cores:       cfg.Threads,
				Policy:      policy,
				MPBCapacity: capacity,
			}
			if pl != nil {
				cc.Placement = pl.OnChip()
			}
			pipe, err := core.Run(w.Key+".c", w.Source(cfg.Threads, cfg.Scale), cc)
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
		})
	})
}
