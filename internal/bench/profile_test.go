package bench

import (
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
)

// profCfg is the small-scale configuration the profiling tests share.
func profCfg(threads int) Config {
	cfg := DefaultConfig()
	cfg.Threads = threads
	cfg.Scale = 0.05
	cfg.Cache = NewCache()
	return cfg
}

// TestProfiledPolicyEndToEndCorpus runs the profile→optimize→translate→
// execute loop for every corpus workload and checks the translated
// program still computes the baseline's answer.
func TestProfiledPolicyEndToEndCorpus(t *testing.T) {
	cfg := profCfg(4)
	for _, w := range All() {
		both, err := RunBothBackends(w, cfg, partition.PolicyProfiled)
		if err != nil {
			t.Fatalf("%s: %v", w.Key, err)
		}
		if !both.Match {
			t.Errorf("%s: profiled RCCE output diverged from the baseline\nbase:\n%s\nrcce:\n%s",
				w.Key, both.Baseline.Output, both.RCCE.Output)
		}
		if both.RCCE.Mode != "rcce-profiled" {
			t.Errorf("%s: mode %q", w.Key, both.RCCE.Mode)
		}
		if both.RCCE.PlacementDigest == "" {
			t.Errorf("%s: profiled run has no placement digest", w.Key)
		}
	}
}

// TestProfilingObservesOnly pins the premise that lets a grid's off-chip
// run be its profiling pass: with a profile.Collector as Profiler and
// AllocObserver, the run of every corpus workload's off-chip translation
// on scc48 returns the same makespan, counters, MPB footprint and
// output as the unobserved run.
func TestProfilingObservesOnly(t *testing.T) {
	for _, threads := range []int{4, 8} {
		cfg := profCfg(threads)
		for _, w := range All() {
			tr, err := cfg.translation(w, partition.PolicyOffChipOnly, 0, nil)
			if err != nil {
				t.Fatalf("%s: %v", w.Key, err)
			}
			plain, err := cfg.runRCCE(tr.program)
			if err != nil {
				t.Fatalf("%s at %d cores: %v", w.Key, threads, err)
			}
			_, observed, err := profileProgram(w, cfg, tr, tr.program)
			if err != nil {
				t.Fatalf("%s at %d cores, profiled: %v", w.Key, threads, err)
			}
			if plain.Makespan != observed.Makespan || plain.Stats != observed.Stats ||
				plain.OnChipBytes != observed.OnChipBytes || plain.Output != observed.Output {
				t.Errorf("%s at %d cores: the profiled run differs from the plain one\nplain:    %d ps, %d on-chip B, %+v\nprofiled: %d ps, %d on-chip B, %+v",
					w.Key, threads, plain.Makespan, plain.OnChipBytes, plain.Stats, observed.Makespan, observed.OnChipBytes, observed.Stats)
			}
		}
	}
}

// TestProfileByteIdenticalAcrossEngines pins the engine-parity contract:
// the compiled Program and its tree-walk reference perform the same
// memory accesses in the same amounts, so their profiles serialize to
// identical bytes.
func TestProfileByteIdenticalAcrossEngines(t *testing.T) {
	for _, w := range []string{"pi", "stream", "hist", "prodcons", "lu"} {
		wl, ok := ByKey(w)
		if !ok {
			t.Fatalf("unknown workload %s", w)
		}
		cfg := profCfg(4)
		tr, err := cfg.translation(wl, partition.PolicyOffChipOnly, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		run := func(what string, compile func(name, src string) (*interp.Program, error)) []byte {
			pr, err := compile(wl.Key+"_rcce.c", tr.source)
			if err != nil {
				t.Fatalf("%s (%s): %v", w, what, err)
			}
			rep, _, err := profileProgram(wl, cfg, tr, pr)
			if err != nil {
				t.Fatalf("%s (%s): %v", w, what, err)
			}
			buf, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			return buf
		}
		compiled := run("compiled", interp.Compile)
		treewalk := run("tree-walk", interpref.Compile)
		if string(compiled) != string(treewalk) {
			t.Errorf("%s: profiles differ from the reference\ncompiled:\n%s\ntreewalk:\n%s", w, compiled, treewalk)
		}
	}
}

// TestProfiledNotWorseThanStatic is the headline property of the
// subsystem: at equal MPB budget, the measured-placement policy's cycle
// count is never worse than the best static policy (ties allowed — at
// unconstrained budgets every policy converges to all-on-chip).
func TestProfiledNotWorseThanStatic(t *testing.T) {
	statics := []partition.Policy{
		partition.PolicyOffChipOnly,
		partition.PolicySizeAscending,
		partition.PolicyFrequencyDensity,
	}
	for _, budget := range []int{2048, 16384, 0} {
		cfg := profCfg(8)
		cfg.MPBCapacity = budget
		for _, w := range All() {
			best := uint64(0)
			for _, pol := range statics {
				res, err := RunRCCE(w, cfg, pol)
				if err != nil {
					t.Fatalf("%s/%v: %v", w.Key, pol, err)
				}
				if best == 0 || uint64(res.Makespan) < best {
					best = uint64(res.Makespan)
				}
			}
			prof, err := RunRCCE(w, cfg, partition.PolicyProfiled)
			if err != nil {
				t.Fatalf("%s/profiled: %v", w.Key, err)
			}
			if uint64(prof.Makespan) > best {
				t.Errorf("%s budget %d: profiled %d ps worse than best static %d ps",
					w.Key, budget, prof.Makespan, best)
			}
		}
	}
}

// TestProfiledPlacementRespectsBudget: the optimizer's chosen set fits
// the effective budget, and Stage 4 echoes it.
func TestProfiledPlacementRespectsBudget(t *testing.T) {
	cfg := profCfg(8)
	for _, budget := range []int{512, 2048, 16384} {
		cfg.MPBCapacity = budget
		for _, w := range All() {
			tr, err := TranslateWorkload(w, cfg, partition.PolicyProfiled)
			if err != nil {
				t.Fatalf("%s: %v", w.Key, err)
			}
			if tr.Placement == nil {
				t.Fatalf("%s: no placement attached", w.Key)
			}
			if tr.Placement.OnChipBytes > budget {
				t.Errorf("%s: placement %d B over budget %d", w.Key, tr.Placement.OnChipBytes, budget)
			}
			if tr.OnChipBytes > budget {
				t.Errorf("%s: Stage 4 placed %d B over budget %d", w.Key, tr.OnChipBytes, budget)
			}
		}
	}
}

// TestTranslationCacheDistinguishesPlacements (satellite fix): two
// profiled translations at the same (workload, cores, capacity) tuple
// but different placement maps must not share a cache entry, and a
// profiled translation must not collide with a static-policy one.
func TestTranslationCacheDistinguishesPlacements(t *testing.T) {
	cfg := profCfg(4)
	w, _ := ByKey("dot")
	// Hand-built placements give full control over the map contents.
	mk := func(onchip map[string]bool) *profile.Placement {
		pl := &profile.Placement{Budget: 16384}
		for _, name := range []string{"a", "b", "psum"} {
			pl.Choices = append(pl.Choices, profile.Choice{Name: name, OnChip: onchip[name]})
		}
		return pl
	}
	plA := mk(map[string]bool{"psum": true})
	plB := mk(map[string]bool{"a": true})
	trA, err := cfg.translation(w, partition.PolicyProfiled, 16384, plA)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := cfg.translation(w, partition.PolicyProfiled, 16384, plB)
	if err != nil {
		t.Fatal(err)
	}
	if trA == trB || trA.source == trB.source {
		t.Fatalf("different placements shared one translation")
	}
	trStatic, err := cfg.translation(w, partition.PolicySizeAscending, 16384, nil)
	if err != nil {
		t.Fatal(err)
	}
	if trStatic == trA || trStatic == trB {
		t.Fatalf("static translation shared a profiled cache entry")
	}
	if n := cfg.Cache.Stats().TranslateRuns; n != 3 {
		t.Fatalf("pipeline ran %d times, want 3", n)
	}
}

// TestProfileReportShape sanity-checks the measured content: every
// shared variable of the translated program appears with traffic and a
// full sharer set, and the MPB statistics reflect the off-chip
// reference run.
func TestProfileReportShape(t *testing.T) {
	cfg := profCfg(4)
	w, _ := ByKey("stream")
	rep, err := ProfileWorkload(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Vars) != 3 {
		t.Fatalf("stream profile has %d vars, want 3 (a,b,c): %+v", len(rep.Vars), rep.Vars)
	}
	for i := range rep.Vars {
		v := &rep.Vars[i]
		if v.Accesses() == 0 {
			t.Errorf("%s: no measured traffic", v.Name)
		}
		if len(v.Sharers) != 4 {
			t.Errorf("%s: sharer set %v, want all 4 cores", v.Name, v.Sharers)
		}
	}
	if rep.MPB.UsedBytes != 0 {
		t.Errorf("off-chip reference run occupied %d MPB bytes", rep.MPB.UsedBytes)
	}
	if rep.MPB.SharedAccesses == 0 {
		t.Errorf("no shared-DRAM accesses recorded")
	}
	if rep.MPB.CapacityBytes <= 0 || rep.MPB.PerCoreBytes <= 0 {
		t.Errorf("MPB capacity missing: %+v", rep.MPB)
	}
}
