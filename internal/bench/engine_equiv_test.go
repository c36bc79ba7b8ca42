package bench

import (
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/partition"
	"hsmcc/internal/synth"
)

// The coroutine engine's standing invariant: byte-identical program
// output AND identical simulated-time/cycle statistics versus the
// tree-walk reference, over the whole workload corpus, on both the
// Pthread baseline and the translated RCCE pipeline. The same source
// text is compiled twice — interp.Compile and interpref.Compile —
// and both Programs go through the Program-taking run seams. Only
// host-side work may differ; the virtual-clock model must not.

// baselineBoth runs w's baseline source compiled and as the reference.
func baselineBoth(t *testing.T, w Workload, cfg Config) (compiled, reference *RunResult) {
	t.Helper()
	src := w.Source(cfg.Threads, cfg.Scale)
	run := func(what string, compile func(name, src string) (*interp.Program, error)) *RunResult {
		pr, err := compile(w.Key+".c", src)
		if err != nil {
			t.Fatalf("%s baseline compile: %v", what, err)
		}
		res, err := RunBaselineProgram(w, pr, cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", what, err)
		}
		return res
	}
	return run("compiled", interp.Compile), run("tree-walk", interpref.Compile)
}

// rcceBoth translates w once and runs the emitted source compiled and
// as the reference.
func rcceBoth(t *testing.T, w Workload, cfg Config, pol partition.Policy) (compiled, reference *RunResult) {
	t.Helper()
	tr, err := TranslateWorkload(w, cfg, pol)
	if err != nil {
		t.Fatalf("translate %v: %v", pol, err)
	}
	refTr := *tr
	if refTr.Program, err = interpref.Compile(w.Key+"_rcce.c", tr.Source); err != nil {
		t.Fatalf("tree-walk rcce %v compile: %v", pol, err)
	}
	if compiled, err = RunRCCEProgram(w, tr, cfg, pol); err != nil {
		t.Fatalf("compiled rcce %v: %v", pol, err)
	}
	if reference, err = RunRCCEProgram(w, &refTr, cfg, pol); err != nil {
		t.Fatalf("tree-walk rcce %v: %v", pol, err)
	}
	return compiled, reference
}

// equivConfig is a reduced-size configuration that still touches every
// address class (private, shared DRAM, MPB) and both runtimes.
func equivConfig() Config {
	cfg := DefaultConfig()
	cfg.Threads = 8
	cfg.Scale = 0.05
	return cfg
}

func requireEqualRuns(t *testing.T, what string, compiled, reference *RunResult) {
	t.Helper()
	if compiled.Output != reference.Output {
		t.Errorf("%s: output diverged from the reference\n--- compiled\n%s\n--- tree-walk\n%s",
			what, compiled.Output, reference.Output)
	}
	if compiled.Makespan != reference.Makespan {
		t.Errorf("%s: makespan %d ps (compiled) != %d ps (tree-walk)",
			what, compiled.Makespan, reference.Makespan)
	}
	if compiled.Stats != reference.Stats {
		t.Errorf("%s: cycle statistics diverged\ncompiled:  %+v\ntree-walk: %+v",
			what, compiled.Stats, reference.Stats)
	}
}

// TestEngineEquivalenceCorpus pins compiled-vs-reference equality over
// the full 10-workload corpus, for the single-core Pthread baseline and
// for the translate→RCCE→sccsim pipeline under both an off-chip-only and
// an on-chip placement policy.
func TestEngineEquivalenceCorpus(t *testing.T) {
	cfg := equivConfig()
	for _, w := range All() {
		w := w
		t.Run(w.Key, func(t *testing.T) {
			cBase, rBase := baselineBoth(t, w, cfg)
			requireEqualRuns(t, "baseline", cBase, rBase)
			for _, pol := range []partition.Policy{partition.PolicyOffChipOnly, partition.PolicySizeAscending} {
				cRCCE, rRCCE := rcceBoth(t, w, cfg, pol)
				requireEqualRuns(t, "rcce/"+string(rune('0'+int(pol))), cRCCE, rRCCE)
			}
		})
	}
}

// TestEngineEquivalenceSynth extends the engine-parity invariant from
// the hand-written corpus to the synthetic plane: a seeded sample of
// parameter vectors (plus mix extremes) must run byte-identical in
// output and cycle statistics compiled and as the reference, on the baseline and
// on the translated pipeline under both an off-chip and an on-chip
// policy.
func TestEngineEquivalenceSynth(t *testing.T) {
	cfg := equivConfig()
	cfg.Scale = 1.0 // synth vectors below are already test-sized
	vectors := []synth.Params{
		{Seed: 21, Ops: 48, MemFrac: 1, LoadFrac: 0.5, SharedFrac: 1, Sharing: 4, SharedAddrs: 16, PrivateAddrs: 1, Rounds: 2},
		{Seed: 22, Ops: 36, MemFrac: 0, LoadFrac: 0, SharedFrac: 0, Sharing: 1, SharedAddrs: 1, PrivateAddrs: 1, Rounds: 1, Double: true},
	}
	for seed := int64(300); seed < 306; seed++ {
		vectors = append(vectors, synth.ParamsForSeed(seed))
	}
	for _, p := range vectors {
		p := p
		t.Run(p.Key(), func(t *testing.T) {
			w := SynthWorkload(p)
			cBase, rBase := baselineBoth(t, w, cfg)
			requireEqualRuns(t, "baseline", cBase, rBase)
			for _, pol := range []partition.Policy{partition.PolicyOffChipOnly, partition.PolicySizeAscending} {
				cRCCE, rRCCE := rcceBoth(t, w, cfg, pol)
				requireEqualRuns(t, "rcce", cRCCE, rRCCE)
			}
		})
	}
}

// TestEngineEquivalenceOversubscribed covers the §7.2 many-to-one
// scheduler (more UEs than cores), which exercises the session's
// scheduler across several time-shared cores and its context-switch
// charges.
func TestEngineEquivalenceOversubscribed(t *testing.T) {
	w, ok := ByKey("pi")
	if !ok {
		t.Fatal("no pi workload")
	}
	cfg := equivConfig()
	cfg.Threads = 6
	cfg.RCCE.Cores = []int{0, 1, 2, 0, 1, 2}
	cfg.RCCE.AllowOversubscribe = true
	compiled, reference := rcceBoth(t, w, cfg, partition.PolicyOffChipOnly)
	requireEqualRuns(t, "oversubscribed", compiled, reference)
}
