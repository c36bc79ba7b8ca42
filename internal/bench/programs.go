package bench

// Analyse-once batching. A compiled interp.Program is immutable, and so
// is an analysed source, so one computation can serve every matrix cell
// (and every concurrent worker) that reads the same inputs. The Cache
// memoizes the compile-side stages of a harness run — the analysis of
// each Pthread source (parse, sema, Stages 1-3), the baseline Program
// lowered from the analysed tree, Stage 4's decision (the on-chip set)
// and the translation of each distinct on-chip set (Stage 5 with that
// decision on a copy of that tree, printed, checked and lowered) — plus
// the run-level results that are pure functions of their configuration:
// the single-core baseline execution (identical across every policy and
// budget of a sweep), the access-profiling pass (identical across every
// budget) and the placement optimized from it. A grid sweep or a
// conformance matrix therefore parses and analyses each workload
// exactly once per distinct source, translates it once per distinct
// on-chip set, runs its baseline once per (workload, cores) and
// profiles it once per (workload, cores), fanning the cells out across
// host cores against the shared results.

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"

	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/core"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
)

// stage names one memoized computation. The first five are also the
// stage names the Hooks.Fault and Hooks.Span seams are called with; the
// analysis runs inside whichever of compile, partition and translate
// asks first, and partition, like placement, fires no hook.
type stage uint8

const (
	stageCompile stage = iota
	stageTranslate
	stageBaseline
	stageSimulate
	stageProfile
	stagePlacement
	stageAnalyze
	stagePartition
	numStages
)

func (st stage) String() string {
	return [numStages]string{"compile", "translate", "baseline", "simulate", "profile", "placement", "analyze", "partition"}[st]
}

// key identifies one memoized value: the stage that computes it and
// exactly the inputs that stage reads, every other field left zero. It
// is plain comparable data (TestSpecIsPlainData) and is the map key
// itself — nothing in-tree carries a key across a process boundary, so
// there is no digest.
//
//	analyze    name, src — the Pthread text is the identity: parse,
//	           sema and Stages 1-3, none of which reads the policy, the
//	           budget or the placement, so the baseline's compile and
//	           every translation of the source share one analysis
//	compile    name, src — the Pthread program lowered from that
//	           analysis (translated programs are lowered by translate)
//	partition  spec.source(), policy, capacity, placement — Stage 4's
//	           decision, the on-chip set; the one stage that reads the
//	           policy
//	translate  spec.source(), onChip — Stage 5 with the decision on a
//	           copy of the analysed tree, and the Program lowered from
//	           the translated tree: Stage 5 reads one placement bit per
//	           shared variable and nothing else of Stage 4, so every
//	           policy, budget and placement that picks one set shares
//	           one translation
//	baseline   spec.baselineRun()
//	profile    spec.rcceRun() — measured under the uniform off-chip
//	           reference placement, so every budget shares one pass
//	placement  spec.rcceRun(), capacity — the optimizer's output, so a
//	           profiled cell's digest lookup and its translation share one
//	           knapsack solve
//	simulate   spec.rcceRun(), onChip — the grid runner's per-sweep
//	           memo of an RCCE run, which reads the translated program
//	           (never in a shared Cache: an RCCE run is what a request
//	           traces)
//
// placement is the profile-guided placement map digest ("" for the
// static policies), so two profiled decisions at the same (cores,
// capacity) but with different measured placements — and a profiled
// cell versus a static-policy cell — are decided apart; they share a
// translation only when they pick the same set. onChip is that set
// (onChipSet). The machine fingerprint inside spec keeps a value placed
// or timed for one machine's geometry from ever serving a cell on
// another, even when the effective byte capacities coincide.
type key struct {
	stage     stage
	spec      spec
	policy    partition.Policy
	capacity  int
	placement string
	onChip    string
	name, src string
}

// translation is the cached output of the pipeline: the emitted source
// and the Program lowered from the translated tree it was printed from.
// One translation serves every cell whose decision picks its on-chip
// set, so nothing is ever written into one after it is made.
type translation struct {
	// onChip is the on-chip set the translation applies (onChipSet).
	onChip      string
	source      string
	program     *interp.Program
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
	case *core.Pipeline:
		// The tree, its symbol tables and the Stage 1-3 results.
		return 1024 + 8*int64(len(v.Source))
	case *interp.Program:
		// Compiled closures and frame layouts (the tree is the
		// analysis's) run a small multiple of the source text.
		return 512 + 6*int64(len(k.src))
	case *translation:
		n := 256 + int64(len(v.source))
		if v.program != nil {
			// A Program as above, which owns its translated tree.
			n += 512 + 6*int64(len(v.source))
		}
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
	case string:
		// A partition decision: the on-chip set. The translation it
		// names is its own entry, counted once however many decisions
		// share it.
		return 64 + int64(len(v))
	}
	return 1
}

// CacheStats reports how many times each memoized stage was computed
// (as opposed to served from the cache), plus the lookup and eviction
// counters (the last three zero-valued for unbounded caches).
type CacheStats struct {
	// AnalyzeRuns counts parses with Stages 1-3 (one per distinct
	// source); ProgramCompiles counts Pthread programs lowered from
	// them. A translated program is lowered inside its translate run.
	AnalyzeRuns     int64
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
		AnalyzeRuns:     c.computes[stageAnalyze],
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

// analysis parses and checks (name, src) and runs Stages 1-3 at most
// once per distinct source. The pipeline is shared and only read: the
// baseline lowers its tree and every translation copies it.
func (cfg Config) analysis(name, src string) (*core.Pipeline, error) {
	return memo(cfg.Cache, key{stage: stageAnalyze, name: name, src: src}, func() (*core.Pipeline, error) {
		return core.Analyze(name, src)
	})
}

// translation decides Stage 4 for w at cfg's thread count and scale on
// the source's shared analysis, runs (or reuses) Stage 5 with that
// decision, and lowers the translated tree. pl carries the profile-guided
// placement for PolicyProfiled cells (nil for the static policies). Two
// memo levels: the decision, keyed by what Stage 4 reads, names the
// on-chip set, and the translation is keyed by the set. A warm lookup is
// two map hits: no source text, no analysis lookup and no partition.
func (cfg Config) translation(w Workload, policy partition.Policy, capacity int, pl *profile.Placement) (*translation, error) {
	source := cfg.spec(w.Key).source()
	k := key{stage: stagePartition, spec: source, policy: policy, capacity: capacity}
	if pl != nil {
		k.placement = pl.Digest()
	}
	// A cold decision leaves its analysis and result here for a cold
	// translation; a translation after a warm decision decides again.
	var an *core.Pipeline
	var part *partition.Result
	decide := func() error {
		if part != nil {
			return nil
		}
		var err error
		if an, err = cfg.analysis(w.Key+".c", w.Source(cfg.Threads, cfg.Scale)); err != nil {
			return fmt.Errorf("%s translate: %w", w.Key, err)
		}
		var onChip map[string]bool
		if pl != nil {
			onChip = pl.OnChip()
		}
		if part, err = partition.Decide(an.SharedVars(), policy, capacity, onChip); err != nil {
			return fmt.Errorf("%s translate: %w", w.Key, err)
		}
		return nil
	}
	set, err := memo(cfg.Cache, k, func() (string, error) {
		if err := decide(); err != nil {
			return "", err
		}
		return onChipSet(an.SharedVars(), part), nil
	})
	if err != nil {
		return nil, err
	}
	return memo(cfg.Cache, key{stage: stageTranslate, spec: source, onChip: set}, func() (*translation, error) {
		return runStage(cfg.Hooks, stageTranslate, w.Key, func() (*translation, error) {
			// Stage 5 reads only the placements, so any decision that
			// picked set translates to the same program as this one.
			if err := decide(); err != nil {
				return nil, err
			}
			pipe, err := an.Translate(part)
			if err != nil {
				return nil, fmt.Errorf("%s translate: %w", w.Key, err)
			}
			pr, err := interp.Load(pipe.File, pipe.Sema)
			if err != nil {
				return nil, fmt.Errorf("%s load translated program: %w\n---\n%s", w.Key, err, pipe.Output)
			}
			t := &translation{onChip: set, source: pipe.Output, program: pr, onChipBytes: part.OnChipBytes}
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

// onChipSet is the identity of a Stage 4 decision: the declaration
// indices, within shared, of the variables part places in the MPB,
// joined by "-" ("" when everything is off-chip). It is plain
// comparable data and safe in a file name.
func onChipSet(shared []*scope.VarInfo, part *partition.Result) string {
	var b []byte
	for i, v := range shared {
		if part.Placement(v) != partition.OnChip {
			continue
		}
		if len(b) > 0 {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return string(b)
}
