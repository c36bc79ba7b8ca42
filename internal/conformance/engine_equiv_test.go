package conformance

import (
	"fmt"
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/partition"
	"hsmcc/internal/synth"
)

// runBothPrograms runs w's baseline source and its size-policy
// translation on Programs built by compile — interp.Compile for the
// coroutine engine, interpref.Compile for the tree-walk oracle —
// through the Program-taking run seams, so both sides execute the same
// source text.
func runBothPrograms(w bench.Workload, cfg bench.Config, compile func(name, src string) (*interp.Program, error)) (base, conv *bench.RunResult, err error) {
	pr, err := compile(w.Key+".c", w.Source(cfg.Threads, cfg.Scale))
	if err != nil {
		return nil, nil, err
	}
	if base, err = bench.RunBaselineProgram(w, pr, cfg); err != nil {
		return nil, nil, err
	}
	tr, err := bench.TranslateWorkload(w, cfg, partition.PolicySizeAscending)
	if err != nil {
		return nil, nil, err
	}
	if tr.Program, err = compile(w.Key+"_rcce.c", tr.Source); err != nil {
		return nil, nil, err
	}
	conv, err = bench.RunRCCEProgram(w, tr, cfg, partition.PolicySizeAscending)
	return base, conv, err
}

// requireEnginesAgree runs w compiled and as the reference and fails on
// any difference in output, makespan or cycle statistics.
func requireEnginesAgree(t *testing.T, what string, w bench.Workload, cfg bench.Config) {
	t.Helper()
	cBase, cConv, err := runBothPrograms(w, cfg, interp.Compile)
	if err != nil {
		t.Fatalf("%s compiled: %v", what, err)
	}
	rBase, rConv, err := runBothPrograms(w, cfg, interpref.Compile)
	if err != nil {
		t.Fatalf("%s tree-walk: %v", what, err)
	}
	for _, pair := range []struct {
		what string
		c, r *bench.RunResult
	}{{"baseline", cBase, rBase}, {"rcce", cConv, rConv}} {
		if pair.c.Output != pair.r.Output {
			t.Errorf("%s %s: output diverged\n--- compiled\n%s\n--- tree-walk\n%s",
				what, pair.what, pair.c.Output, pair.r.Output)
		}
		if pair.c.Makespan != pair.r.Makespan || pair.c.Stats != pair.r.Stats {
			t.Errorf("%s %s: cycle statistics diverged (makespan %d vs %d)",
				what, pair.what, pair.c.Makespan, pair.r.Makespan)
		}
	}
}

// TestEngineEquivalenceKernels extends the compiled-engine golden
// invariant to generated conformance kernels: for a sample of seeds
// (including thread-specific solo tasks, serial rounds and mutexes),
// the compiled engine and the tree-walk reference must produce
// byte-identical output and identical cycle statistics on both the
// Pthread baseline and the translated RCCE pipeline.
func TestEngineEquivalenceKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulated kernels")
	}
	const kernels = 24
	const cores = 4
	for seed := int64(5000); seed < 5000+kernels; seed++ {
		spec := SpecForSeed(seed, DefaultGenOptions())
		src := spec.Source(cores)
		cfg := bench.DefaultConfig()
		cfg.Threads = cores
		requireEnginesAgree(t, fmt.Sprintf("seed %d", seed), kernelWorkload(seed, src), cfg)
		if t.Failed() {
			t.Fatalf("seed %d source:\n%s", seed, src)
		}
	}
}

// TestEngineEquivalenceSynthKernels applies the same compiled-vs-
// tree-walk golden invariant to seed-derived synthetic vectors, so the
// coroutine lowering is pinned on the memory-behaviour plane (tunable
// mix, sharing degree, footprint) and not only on the kernel grammar.
func TestEngineEquivalenceSynthKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a sample of simulated synthetic kernels")
	}
	const kernels = 8
	const cores = 4
	for seed := int64(6000); seed < 6000+kernels; seed++ {
		p := synth.ParamsForSeed(seed)
		cfg := bench.DefaultConfig()
		cfg.Threads = cores
		cfg.Scale = 1.0
		requireEnginesAgree(t, p.Key(), bench.SynthWorkload(p), cfg)
	}
}

// TestGeneratorEmitsSoloTasks pins the thread-specific-launch extension:
// across a seed range, some kernels must contain solo (`if (me == k)`)
// tasks, and their emitted source must carry the guard.
func TestGeneratorEmitsSoloTasks(t *testing.T) {
	found := 0
	for seed := int64(0); seed < 80; seed++ {
		spec := SpecForSeed(seed, DefaultGenOptions())
		for _, rd := range spec.Rounds {
			if rd.Solo == nil {
				continue
			}
			found++
			// The solo target must not be a loop target of its round
			// (race-freedom by construction).
			for _, st := range rd.Loop {
				if st.Arr == rd.Solo.Arr {
					t.Fatalf("seed %d: solo targets array %d which the round's loop also writes", seed, rd.Solo.Arr)
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no generated kernel contained a thread-specific solo task across 80 seeds")
	}
	t.Logf("%d solo tasks across 80 seeds", found)
}
