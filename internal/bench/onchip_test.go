package bench

import (
	"os"
	"reflect"
	"sort"
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
// produces alone in a fresh cache. The traces written per executed
// simulation are one file per set, the same at any worker count.
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
			var mu sync.Mutex
			visits := make(map[string]int)
			count := func(stage string) error {
				mu.Lock()
				visits[stage]++
				mu.Unlock()
				return nil
			}
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
			if visits["translate"] != len(bySet) || visits["simulate"] != len(bySet) {
				t.Errorf("translate ran %d times and simulate %d times for %d on-chip sets", visits["translate"], visits["simulate"], len(bySet))
			}
		})
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
