package bench

import (
	"testing"
)

// TestPlacementMetamorphic pins the paper's semantic-preservation claim
// as a metamorphic property over the whole workload corpus: for a fixed
// (workload, cores), the translated program's output must be
// byte-identical across every Stage 4 placement policy and MPB budget
// of the grid. Placement may move data between the MPB and off-chip
// shared DRAM and reshuffle timing, but it must never change a single
// byte of what the program computes or prints. (Byte-identity holds
// because every corpus main prints its result lines after the final
// barrier — each core prints the same text, whatever order cores finish
// in.)
func TestPlacementMetamorphic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus under every placement")
	}
	policies := []string{"offchip", "size", "freq"}
	budgets := []int{0, 4096} // full MPB and a pressure budget
	cfg := DefaultConfig()
	cfg.Threads = 4
	cfg.Scale = 0.05

	for _, w := range All() {
		w := w
		t.Run(w.Key, func(t *testing.T) {
			base, err := RunBaseline(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var refOut string
			var refFrom string
			for _, pname := range policies {
				policy, err := ParsePolicy(pname)
				if err != nil {
					t.Fatal(err)
				}
				for _, budget := range budgets {
					c := cfg
					c.MPBCapacity = budget
					conv, err := RunRCCE(w, c, policy)
					if err != nil {
						t.Fatalf("policy=%s budget=%d: %v", pname, budget, err)
					}
					if !SameResults(base.Output, conv.Output) {
						t.Fatalf("policy=%s budget=%d: diverges from baseline\n--- baseline\n%s--- rcce\n%s",
							pname, budget, base.Output, conv.Output)
					}
					if refFrom == "" {
						refOut, refFrom = conv.Output, pname
						continue
					}
					if conv.Output != refOut {
						t.Fatalf("output differs across placements: %s vs policy=%s budget=%d\n--- %s\n%s--- %s/%d\n%s",
							refFrom, pname, budget, refFrom, refOut, pname, budget, conv.Output)
					}
				}
			}
		})
	}
}

// TestRunBothBackendsMatchesManualComparison pins the extracted helper
// against its inlined ancestor: RunBothBackends must report exactly
// what RunBaseline + RunRCCE + SameResults report.
func TestRunBothBackendsMatchesManualComparison(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads = 4
	cfg.Scale = 0.05
	w, ok := ByKey("pi")
	if !ok {
		t.Fatal("pi workload missing")
	}
	policy, err := ParsePolicy("size")
	if err != nil {
		t.Fatal(err)
	}
	both, err := RunBothBackends(w, cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunBaseline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := RunRCCE(w, cfg, policy)
	if err != nil {
		t.Fatal(err)
	}
	if both.Baseline.Output != base.Output || both.RCCE.Output != conv.Output {
		t.Fatal("RunBothBackends ran different executions than the manual path")
	}
	if both.Match != SameResults(base.Output, conv.Output) {
		t.Fatal("RunBothBackends.Match disagrees with SameResults")
	}
	if !both.Match {
		t.Fatalf("pi must validate\n--- baseline\n%s--- rcce\n%s", base.Output, conv.Output)
	}
}
