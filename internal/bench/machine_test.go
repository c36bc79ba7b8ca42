package bench

import (
	"testing"

	"hsmcc/internal/partition"
	"hsmcc/internal/sccsim"
)

// configFor builds a harness Config over a named machine preset with the
// fingerprint precomputed, the way the grid runner does.
func configFor(t *testing.T, preset string) Config {
	t.Helper()
	mcfg, err := sccsim.PresetConfig(preset)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Machine = func() *sccsim.Machine { return sccsim.MustNew(mcfg) }
	return cfg.PrecomputeMachineEnv()
}

// TestMachineCacheKeysDistinct pins the cache-identity contract for
// machine scaling: every memoization key that covers a simulated run —
// baseline, profiling, translation, grid cell — must separate two
// machine presets, so a scaling sweep sharing one daemon-lifetime cache
// can never serve an scc48 result to a mesh256 cell (or vice versa).
func TestMachineCacheKeysDistinct(t *testing.T) {
	a := configFor(t, "scc48")
	b := configFor(t, "mesh256")

	if a.machineEnv == b.machineEnv {
		t.Fatalf("machine fingerprints collide across presets: %q", a.machineEnv)
	}
	if a.baselineEnv() == b.baselineEnv() {
		t.Errorf("baseline run env identical across machine presets")
	}
	if a.rcceEnv() == b.rcceEnv() {
		t.Errorf("profile run env identical across machine presets")
	}

	ka := translationKey{"hist", 4, 1.0, partition.PolicySizeAscending, 1 << 14, "", a.machineEnv}
	kb := ka
	kb.machine = b.machineEnv
	if ka == kb {
		t.Errorf("translation keys identical across machine presets")
	}

	cell := Cell{Workload: "hist", Cores: 4, Policy: "size"}
	ca := semanticKey(cell, 1<<14, a.machineEnv)
	cb := semanticKey(cell, 1<<14, b.machineEnv)
	if ca == cb {
		t.Errorf("grid cell keys identical across machine presets")
	}

	// End to end: the same translation request through one shared cache
	// under the two machines must compute twice, not share.
	cache := NewCache()
	ta := a
	ta.Cache = cache
	tb := b
	tb.Cache = cache
	w, ok := ByKey("hist")
	if !ok {
		t.Fatal("histogram workload missing")
	}
	if _, err := cache.translate(w, 4, 0.05, partition.PolicySizeAscending, 1<<14, nil, ta.machineEnv, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.translate(w, 4, 0.05, partition.PolicySizeAscending, 1<<14, nil, tb.machineEnv, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().TranslateRuns; got != 2 {
		t.Errorf("translation shared across machine presets: %d runs, want 2", got)
	}
}

// TestGridMachinePreset runs a tiny grid on a scaled machine end to end:
// the preset must reach the simulator (cells validate and match) and the
// report must carry the machine name for provenance.
func TestGridMachinePreset(t *testing.T) {
	g := Grid{
		Name:      "scaletest",
		Workloads: []string{"hist"},
		Cores:     []int{4},
		Policies:  []string{"size"},
		Scale:     0.05,
		Machine:   "mesh256",
	}
	rep, err := RunGrid(g, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Error != "" {
		t.Fatalf("cell failed: %s", r.Error)
	}
	if !r.Match {
		t.Errorf("translated output mismatch on mesh256")
	}
	if rep.Grid.MachineName() != "mesh256" {
		t.Errorf("report machine = %q, want mesh256", rep.Grid.MachineName())
	}
}

// TestMesh1024ThousandContexts runs a corpus workload with 1024 thread
// contexts time-sharing a mesh1024 machine — the scaling point the
// resume-path work targets — and pins the engine-equivalence oracle
// there: the coroutine engine must produce byte-identical output and an
// identical cycle count to the tree-walk reference.
func TestMesh1024ThousandContexts(t *testing.T) {
	w, ok := ByKey("hist")
	if !ok {
		t.Fatal("histogram workload missing")
	}
	cfg := configFor(t, "mesh1024")
	cfg.Threads = 1024
	cfg.Scale = 0.05
	fast, ref := baselineBoth(t, w, cfg)
	if fast.Output == "" {
		t.Fatal("1024-context run produced no output")
	}
	if fast.Output != ref.Output {
		t.Errorf("output diverges from the reference at 1024 contexts")
	}
	if fast.Makespan != ref.Makespan {
		t.Errorf("cycle stats diverge at 1024 contexts: compiled %d ps, treewalk %d ps",
			fast.Makespan, ref.Makespan)
	}
}

// TestGridRejectsOversizedCores pins Validate: a core count beyond the
// preset's machine must fail before any simulation runs.
func TestGridRejectsOversizedCores(t *testing.T) {
	g := Grid{
		Name:     "toolarge",
		Cores:    []int{64},
		Policies: []string{"size"},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("64 cores on scc48 validated; want error")
	}
	g.Machine = "mesh256"
	if err := g.Validate(); err != nil {
		t.Fatalf("64 cores on mesh256 rejected: %v", err)
	}
}
