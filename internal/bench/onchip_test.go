package bench

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"hsmcc/internal/partition"
)

// TestGridSharesByOnChipSet runs grid_sweep-shaped mini-grids (every
// policy × budgets 2048, 65536 and the full MPB at one (workload,
// cores) point) and pins what a cell's translation and RCCE run are
// keyed by: the on-chip set Stage 4 picks. Cells with equal sets share
// one translate compute and one simulation, cells with different sets
// share neither, and each shared translation is the one the cell
// produces alone in a fresh cache. The off-chip run is the point's
// profiling pass, so the RCCE simulations of a point, simulate-stage
// and profile-stage runs together, are one per set. The traces written
// per executed simulation are one file per set, the profiling pass's
// included, the same at any worker count.
func TestGridSharesByOnChipSet(t *testing.T) {
	for _, tc := range []struct {
		workload string
		sets     int
	}{
		// pi shares one word: off-chip or on. dot and hist have a small
		// variable that fits 2048 bytes alone.
		{"pi", 2}, {"dot", 3}, {"hist", 3},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			g := Grid{
				Name:       "mini",
				Workloads:  []string{tc.workload},
				Cores:      []int{8},
				Policies:   []string{"offchip", "size", "freq", "profiled"},
				MPBBudgets: []int{2048, 65536, 0},
				Scale:      0.04,
			}
			count, visited := stageVisits()
			cache := NewCache()
			traces := make(map[int][]string)
			var reports [][]byte
			for _, parallel := range []int{1, 4} {
				dir := t.TempDir()
				opt := RunOptions{Parallel: parallel, TraceDir: dir}
				if parallel == 1 {
					opt.Cache, opt.Hooks.Fault = cache, count
				}
				rep, err := RunGrid(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rep.Results {
					if r.Error != "" || !r.Match {
						t.Fatalf("parallel %d cell %d: error %q, match %v", parallel, r.Index, r.Error, r.Match)
					}
				}
				doc, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				reports = append(reports, doc)
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					traces[parallel] = append(traces[parallel], e.Name())
				}
			}
			if string(reports[0]) != string(reports[1]) {
				t.Error("the report at -parallel 4 differs from the one at 1")
			}
			if !reflect.DeepEqual(traces[1], traces[4]) || len(traces[1]) != tc.sets {
				t.Errorf("trace files: %v at parallel 1, %v at 4; want one per on-chip set, %d", traces[1], traces[4], tc.sets)
			}

			// Resolve every cell against the grid's own cache: the
			// lookups must all hit, so they name what the grid used.
			w, _ := ByKey(tc.workload)
			base := DefaultConfig()
			base.Threads, base.Scale, base.Cache = 8, g.Scale, cache
			base = base.PrecomputeMachineEnv()
			before := cache.computes
			bySet := make(map[string]*translation)
			for _, c := range g.Cells() {
				policy, _ := ParsePolicy(c.Policy)
				cfg := base
				cfg.MPBCapacity = c.MPBBudget
				tr, _, err := cfg.translate(w, policy)
				if err != nil {
					t.Fatal(err)
				}
				if prev, ok := bySet[tr.onChip]; ok && prev != tr {
					t.Errorf("cell %d: set {%s} has two translations", c.Index, tr.onChip)
				}
				bySet[tr.onChip] = tr
				alone := cfg
				alone.Cache = NewCache()
				want, err := TranslateWorkload(w, alone, policy)
				if err != nil {
					t.Fatal(err)
				}
				if tr.source != want.Source || tr.onChipBytes != want.OnChipBytes {
					t.Errorf("cell %d (%s, budget %d): the shared translation of set {%s} differs from the cell's own", c.Index, c.Policy, c.MPBBudget, tr.onChip)
				}
			}
			if cache.computes != before {
				t.Errorf("resolving the cells computed %v more; the grid had not computed them", diffStages(cache.computes, before))
			}
			seen := make(map[*translation]bool)
			for _, tr := range bySet {
				if seen[tr] {
					t.Error("two on-chip sets share a translation")
				}
				seen[tr] = true
			}
			if len(bySet) != tc.sets {
				t.Errorf("%d distinct on-chip sets, want %d", len(bySet), tc.sets)
			}
			if n := cache.computes[stageTranslate]; n != int64(len(bySet)) {
				t.Errorf("%d translate computes for %d on-chip sets", n, len(bySet))
			}
			if visits := visited(); visits["translate"] != len(bySet) || visits["simulate"]+visits["profile"] != len(bySet) || visits["profile"] != 1 {
				t.Errorf("translate ran %d times, simulate %d times and profile %d times for %d on-chip sets; want one simulation per set, one of them the profiling pass",
					visits["translate"], visits["simulate"], visits["profile"], len(bySet))
			}
		})
	}
}

// stageVisits returns a Fault hook that counts the stages it sees.
func stageVisits() (func(string) error, func() map[string]int) {
	var mu sync.Mutex
	visits := make(map[string]int)
	return func(stage string) error {
			mu.Lock()
			visits[stage]++
			mu.Unlock()
			return nil
		}, func() map[string]int {
			mu.Lock()
			defer mu.Unlock()
			return maps.Clone(visits)
		}
}

// TestGridStaticOnlyRunsNoOffChip sweeps a point whose cells all place
// their whole shared set on-chip, so no cell reads the off-chip run: a
// size-only grid, and a profiled-only grid whose profile the shared
// cache already holds. The sweep schedules an off-chip run only where an
// offchip cell reads it, so neither runs nor traces the off-chip run,
// and neither profiles.
func TestGridStaticOnlyRunsNoOffChip(t *testing.T) {
	g := Grid{
		Name:       "on-chip-only",
		Workloads:  []string{"dot"},
		Cores:      []int{8},
		MPBBudgets: []int{65536, 0},
		Scale:      0.04,
	}
	cache := NewCache()
	warm := g
	warm.Policies = []string{"profiled"}
	if _, err := RunGrid(warm, RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"size", "profiled"} {
		g.Policies = []string{policy}
		count, visits := stageVisits()
		dir := t.TempDir()
		before := cache.Stats().ProfileRuns
		rep, err := RunGrid(g, RunOptions{Parallel: 2, Cache: cache, TraceDir: dir, Hooks: Hooks{Fault: count}})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Error != "" || !r.Match {
				t.Fatalf("%s cell %d: error %q, match %v", policy, r.Index, r.Error, r.Match)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if v := visits(); v["simulate"] != 1 || v["profile"] != 0 || len(names) != 1 || strings.Contains(names[0], "onchip-none") {
			t.Errorf("%s: simulate ran %d times and profile %d times, traces %v; want the one on-chip run and no off-chip run",
				policy, v["simulate"], v["profile"], names)
		}
		if n := cache.Stats().ProfileRuns - before; n != 0 {
			t.Errorf("%s: %d profiling passes", policy, n)
		}
	}
}

// TestGridStreamsCellsInOrder streams a two-point grid: the shared runs
// the sweep schedules ahead of each point's cells are not results, so
// OnResult sees exactly the report's cells, in cell order, each one
// before RunGrid returns.
func TestGridStreamsCellsInOrder(t *testing.T) {
	g := Grid{
		Name:       "stream",
		Workloads:  []string{"pi", "dot"},
		Cores:      []int{2, 4},
		Policies:   []string{"offchip", "size", "profiled"},
		MPBBudgets: []int{2048, 0},
		Scale:      0.04,
	}
	for _, parallel := range []int{1, 4} {
		var got []CellResult
		rep, err := RunGrid(g, RunOptions{Parallel: parallel, OnResult: func(r CellResult) { got = append(got, r) }})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rep.Results) {
			t.Fatalf("parallel %d: streamed %d cells unlike the report's %d", parallel, len(got), len(rep.Results))
		}
		for i, r := range got {
			if r.Index != i || r.Error != "" || !r.Match {
				t.Errorf("parallel %d: streamed cell %d is cell %d (error %q, match %v)", parallel, i, r.Index, r.Error, r.Match)
			}
		}
	}
}

// TestGridCanceledStartsNoRun cancels a sweep before it starts: every
// cell reports the cancellation, and no job, shared runs included,
// computes anything.
func TestGridCanceledStartsNoRun(t *testing.T) {
	g := Grid{
		Name:      "canceled",
		Workloads: []string{"pi", "dot"},
		Cores:     []int{4},
		Policies:  []string{"offchip", "size", "profiled"},
		Scale:     0.04,
	}
	count, visits := stageVisits()
	cache := NewCache()
	stop := errors.New("stop")
	rep, err := RunGrid(g, RunOptions{Parallel: 2, Cache: cache, Hooks: Hooks{Cancel: func() error { return stop }, Fault: count}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Error != "canceled: stop" {
			t.Errorf("cell %d: error %q, want the cancellation", r.Index, r.Error)
		}
	}
	if v, misses := visits(), cache.Stats().Misses; len(v) != 0 || misses != 0 {
		t.Errorf("a canceled sweep ran %v and computed %d cache entries", v, misses)
	}
}

// TestGridFailedProfilingPass fails every profiling pass mid-run. The
// sweep's off-chip run is the pass, and it fails; the point's profiled
// cells must report what a single cell's profiling pass reports, and its
// offchip cells must read a run of their own, as they did when the pass
// was a run of its own.
func TestGridFailedProfilingPass(t *testing.T) {
	g := Grid{
		Name:       "failing-pass",
		Workloads:  []string{"dot"},
		Cores:      []int{4},
		Policies:   []string{"offchip", "size", "profiled"},
		MPBBudgets: []int{2048, 0},
		Scale:      0.04,
	}
	// One worker, so a run inside the profile stage's span is the
	// profiling pass.
	var profiling bool
	failed := errors.New("profiling pass failed")
	hooks := Hooks{
		Span: func(stage string) func() {
			if stage != "profile" {
				return func() {}
			}
			profiling = true
			return func() { profiling = false }
		},
		Cancel: func() error {
			if profiling {
				return failed
			}
			return nil
		},
	}
	w, _ := ByKey("dot")
	cfg := DefaultConfig()
	cfg.Threads, cfg.Scale, cfg.Cache, cfg.Hooks = 4, g.Scale, NewCache(), hooks
	_, alone := ProfileWorkload(w, cfg)
	if alone == nil {
		t.Fatal("the injected failure did not fail a profiling pass")
	}
	rep, err := RunGrid(g, RunOptions{Parallel: 1, Hooks: hooks})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		switch {
		case r.Policy == "profiled" && r.Error != alone.Error():
			t.Errorf("profiled cell %d: error %q, want %q", r.Index, r.Error, alone.Error())
		case r.Policy != "profiled" && (r.Error != "" || !r.Match):
			t.Errorf("%s cell %d: error %q, match %v; want the cell's own run", r.Policy, r.Index, r.Error, r.Match)
		}
	}
}

// TestGridTraceWriteFailureRunsOnce points the trace directory at a
// path that does not exist. Every cell reports the failed write of its
// set's trace, and each set still runs once: a run that succeeded is
// kept although its trace could not be written.
func TestGridTraceWriteFailureRunsOnce(t *testing.T) {
	g := Grid{
		Name:       "unwritable",
		Workloads:  []string{"pi"},
		Cores:      []int{8},
		Policies:   []string{"offchip", "size", "profiled"},
		MPBBudgets: []int{2048, 0},
		Scale:      0.04,
	}
	count, visits := stageVisits()
	dir := filepath.Join(t.TempDir(), "missing")
	rep, err := RunGrid(g, RunOptions{Parallel: 1, TraceDir: dir, Hooks: Hooks{Fault: count}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !strings.Contains(r.Error, "write trace: ") {
			t.Errorf("cell %d: error %q, want the failed trace write", r.Index, r.Error)
		}
	}
	if v := visits(); v["simulate"]+v["profile"] != 2 {
		t.Errorf("simulate ran %d times and profile %d times for 2 on-chip sets", v["simulate"], v["profile"])
	}
}

// diffStages names the stages whose compute counts moved.
func diffStages(after, before [numStages]int64) []string {
	var out []string
	for st := stage(0); st < numStages; st++ {
		if after[st] != before[st] {
			out = append(out, st.String())
		}
	}
	sort.Strings(out)
	return out
}

// TestSizedCacheCountsSharedTranslationOnce admits two decisions that
// pick one on-chip set into a sized cache: the translation is one entry,
// so its cost is counted once, and each decision costs only its set.
func TestSizedCacheCountsSharedTranslationOnce(t *testing.T) {
	w, _ := ByKey("dot")
	cfg := identityConfig(t, "scc48")
	cfg.Cache = NewCacheSized(64 << 20)
	if _, err := TranslateWorkload(w, cfg, partition.PolicySizeAscending); err != nil {
		t.Fatal(err)
	}
	one := cfg.Cache.Stats()
	tr, _, err := cfg.translate(w, partition.PolicyFrequencyDensity) // the whole set fits both
	if err != nil {
		t.Fatal(err)
	}
	two := cfg.Cache.Stats()
	if two.TranslateRuns != one.TranslateRuns || two.Entries != one.Entries+1 {
		t.Fatalf("the second policy computed %d translations and added %d entries, want 0 and 1 (its decision)",
			two.TranslateRuns-one.TranslateRuns, two.Entries-one.Entries)
	}
	if got, want := two.CostBytes-one.CostBytes, cost(key{stage: stagePartition}, tr.onChip); got != want {
		t.Errorf("the second decision cost %d bytes, want %d: the set alone", got, want)
	}
}

// TestWarmTranslateReadsNoSource pins the cost of a warm translate: two
// map hits (the decision, then the translation of its set), with no
// source text generated, nothing computed and no allocation but the
// Translation returned.
func TestWarmTranslateReadsNoSource(t *testing.T) {
	dot, _ := ByKey("dot")
	texts := 0
	w := dot
	w.Source = func(threads int, scale float64) string {
		texts++
		return dot.Source(threads, scale)
	}
	cfg := identityConfig(t, "scc48").PrecomputeMachineEnv()
	cfg.Cache = NewCache()
	for _, policy := range []partition.Policy{partition.PolicySizeAscending, partition.PolicyFrequencyDensity, partition.PolicyOffChipOnly} {
		if _, err := TranslateWorkload(w, cfg, policy); err != nil {
			t.Fatal(err)
		}
		texts = 0
		before := cfg.Cache.computes
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := TranslateWorkload(w, cfg, policy); err != nil {
				t.Fatal(err)
			}
		})
		if texts != 0 || cfg.Cache.computes != before || allocs != 1 {
			t.Errorf("policy %v: a warm translate generated the source %d times, computed %v and allocated %.0f times; want 0, nothing and 1",
				policy, texts, diffStages(cfg.Cache.computes, before), allocs)
		}
	}
}

// TestWarmProfiledTranslateAllocatesAsStatic pins the cost of a warm
// profiled translate: the placement's digest, part of the decision key
// and of the cell's result, is computed once with the placement, so a
// warm lookup allocates no more than a static policy's.
func TestWarmProfiledTranslateAllocatesAsStatic(t *testing.T) {
	w, _ := ByKey("dot")
	cfg := identityConfig(t, "scc48").PrecomputeMachineEnv()
	cfg.Cache = NewCache()
	cfg.MPBCapacity = 2048
	warm := func(policy partition.Policy) float64 {
		if _, err := TranslateWorkload(w, cfg, policy); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			tr, err := TranslateWorkload(w, cfg, policy)
			if err != nil {
				t.Fatal(err)
			}
			if policy == partition.PolicyProfiled && tr.Placement.Digest() == "" {
				t.Fatal("a profiled translation without a placement digest")
			}
		})
	}
	size, profiled := warm(partition.PolicySizeAscending), warm(partition.PolicyProfiled)
	if profiled > size {
		t.Errorf("a warm profiled translate allocates %.0f times, a warm size translate %.0f", profiled, size)
	}
}
