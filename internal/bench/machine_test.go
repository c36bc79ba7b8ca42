package bench

import (
	"testing"

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
