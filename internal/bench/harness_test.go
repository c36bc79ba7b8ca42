package bench

import (
	"strings"
	"testing"

	"hsmcc/internal/partition"
)

// quickConfig shrinks problems so the full matrix of benchmarks runs in
// test time. 8 threads/cores keeps every mechanism (parallelism, sharing,
// barriers) while staying fast.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Threads = 8
	cfg.Scale = 0.05
	return cfg
}

// TestAllBenchmarksTranslateAndAgree is the end-to-end correctness claim
// of the paper: every Pthread benchmark, after automatic translation to
// RCCE, computes the same answer on the simulated SCC — under both
// Stage 4 policies.
func TestAllBenchmarksTranslateAndAgree(t *testing.T) {
	cfg := quickConfig()
	for _, w := range All() {
		w := w
		t.Run(w.Key, func(t *testing.T) {
			base, err := RunBaseline(w, cfg)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if base.Output == "" {
				t.Fatal("baseline produced no output")
			}
			for _, pol := range []partition.Policy{partition.PolicyOffChipOnly, partition.PolicySizeAscending} {
				conv, err := RunRCCE(w, cfg, pol)
				if err != nil {
					t.Fatalf("rcce (policy %v): %v", pol, err)
				}
				if !SameResults(base.Output, conv.Output) {
					t.Errorf("policy %v: results differ\nbaseline: %q\nrcce:     %v",
						pol, DistinctLines(base.Output), DistinctLines(conv.Output))
				}
				// Every core must have printed the result.
				lines := strings.Count(conv.Output, "\n")
				if lines != cfg.Threads*strings.Count(base.Output, "\n") {
					t.Errorf("policy %v: got %d output lines, want %d (one per core)",
						pol, lines, cfg.Threads*strings.Count(base.Output, "\n"))
				}
			}
		})
	}
}

// TestConvertedFasterThanBaseline: the paper's headline — converted
// programs on N cores beat N threads on one core by a wide margin. Run
// at a scale where work dominates the fixed RCCE startup costs.
func TestConvertedFasterThanBaseline(t *testing.T) {
	cfg := quickConfig()
	cfg.Scale = 0.3
	for _, w := range All() {
		w := w
		t.Run(w.Key, func(t *testing.T) {
			base, err := RunBaseline(w, cfg)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			conv, err := RunRCCE(w, cfg, partition.PolicyOffChipOnly)
			if err != nil {
				t.Fatalf("rcce: %v", err)
			}
			if s := Speedup(base, conv); s < 2 {
				t.Errorf("speedup = %.2fx, want > 2x on 8 cores", s)
			}
		})
	}
}

// TestOnChipNotSlower: Stage 4's MPB placement must never lose to
// off-chip placement for the memory-bound kernels, and Stream must gain
// substantially (Fig 6.2's mechanism).
func TestOnChipHelpsStream(t *testing.T) {
	cfg := quickConfig()
	cfg.Scale = 0.3
	w, _ := ByKey("stream")
	off, err := RunRCCE(w, cfg, partition.PolicyOffChipOnly)
	if err != nil {
		t.Fatalf("off-chip: %v", err)
	}
	on, err := RunRCCE(w, cfg, partition.PolicySizeAscending)
	if err != nil {
		t.Fatalf("on-chip: %v", err)
	}
	if gain := Speedup(&RunResult{Makespan: off.Makespan}, on); gain < 2 {
		t.Errorf("stream MPB gain = %.2fx, want > 2x", gain)
	}
	if on.Stats.MPBAccesses == 0 {
		t.Error("on-chip run never touched the MPB")
	}
	if off.Stats.MPBAccesses != 0 {
		t.Error("off-chip run should not touch the MPB")
	}
}

// TestTranslatedSourceShape: the emitted RCCE programs carry the
// structural features of thesis Example 4.2.
func TestTranslatedSourceShape(t *testing.T) {
	cfg := quickConfig()
	for _, w := range All() {
		conv, err := RunRCCE(w, cfg, partition.PolicyOffChipOnly)
		if err != nil {
			t.Fatalf("%s: %v", w.Key, err)
		}
		src := conv.TranslatedSource
		for _, want := range []string{"RCCE_APP", "RCCE_init", "RCCE_finalize", "RCCE_ue()", "RCCE_barrier", "RCCE_shmalloc"} {
			if !strings.Contains(src, want) {
				t.Errorf("%s: translated source missing %s", w.Key, want)
			}
		}
		if strings.Contains(src, "pthread") {
			t.Errorf("%s: translated source still mentions pthread:\n%s", w.Key, src)
		}
	}
}

// TestWorkloadScaling: Scale grows the problem, the makespan follows.
func TestWorkloadScaling(t *testing.T) {
	small := quickConfig()
	big := quickConfig()
	big.Scale = 2 * small.Scale
	w, _ := ByKey("pi")
	a, err := RunBaseline(w, small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBaseline(w, big)
	if err != nil {
		t.Fatal(err)
	}
	if b.Makespan <= a.Makespan {
		t.Errorf("2x scale: makespan %d !> %d", b.Makespan, a.Makespan)
	}
}

// TestByKey covers the registry.
func TestByKey(t *testing.T) {
	if _, ok := ByKey("pi"); !ok {
		t.Error("pi should exist")
	}
	if _, ok := ByKey("nope"); ok {
		t.Error("nope should not exist")
	}
	if len(Thesis()) != 6 {
		t.Errorf("expected the thesis's 6 benchmarks, got %d", len(Thesis()))
	}
	if len(All()) < 10 {
		t.Errorf("expected the expanded corpus of >= 10 kernels, got %d", len(All()))
	}
	for _, key := range []string{"hist", "kmeans", "matmul", "prodcons"} {
		if _, ok := ByKey(key); !ok {
			t.Errorf("expanded workload %s should exist", key)
		}
	}
}

// TestTranslateRejectsBudgetBeyondMPB: a Stage 4 budget the machine does
// not have is an error before any stage runs — nothing is computed, so
// nothing the machine could never have produced is memoized.
func TestTranslateRejectsBudgetBeyondMPB(t *testing.T) {
	w, _ := ByKey("pi")
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.Scale = 0.01
	cfg.Cache = NewCache()
	cfg.MPBCapacity = cfg.MachineConfig().MPBTotal() + 1
	_, err := TranslateWorkload(w, cfg, partition.PolicySizeAscending)
	if err == nil || !strings.Contains(err.Error(), "393216-byte MPB of machine scc48") {
		t.Fatalf("over-budget translate: %v, want an error naming the machine and its MPB size", err)
	}
	if st := cfg.Cache.Stats(); st.Misses != 0 {
		t.Fatalf("%d stages ran before the budget was rejected, want 0", st.Misses)
	}
	cfg.MPBCapacity--
	if _, err := TranslateWorkload(w, cfg, partition.PolicySizeAscending); err != nil {
		t.Fatalf("the full MPB as an explicit budget was rejected: %v", err)
	}
}
