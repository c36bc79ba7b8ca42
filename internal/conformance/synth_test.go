package conformance

import (
	"flag"
	"runtime"
	"strings"
	"testing"

	"hsmcc/internal/synth"
)

var flagSynthN = flag.Int("conformance.synthn", 120, "number of synthetic kernels the synth suite checks")

// TestSynthConformanceSuite is the synthetic analogue of the main
// differential suite: seed-derived parameter vectors, each emitted as a
// race-free Pthread kernel and checked through the interpreter baseline
// vs the translate→RCCE→sccsim pipeline across the full default matrix,
// with zero tolerated divergence.
func TestSynthConformanceSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs dozens of simulated kernels over the full matrix")
	}
	eng := NewEngine()
	rep := eng.Run(1, *flagSynthN, runtime.NumCPU(), Synthetic, t.Errorf)
	t.Logf("checked %d synthetic kernels x %d RCCE cells each", rep.Kernels, eng.Matrix.Cells())
	if len(rep.Failures) != 0 {
		t.Fatalf("%d of %d synthetic kernels diverged", len(rep.Failures), rep.Kernels)
	}
}

// TestSynthDivergenceReproLine pins the repro contract: a synthetic
// divergence identifies itself and prints an hsmconf -synth line.
func TestSynthDivergenceReproLine(t *testing.T) {
	buggy := NewEngine()
	buggy.Matrix = SmokeMatrix()
	buggy.Mutate = func(src string) string {
		return strings.ReplaceAll(src, "(void *)(myID)", "(void *)(0)")
	}
	p := synthFatParams()
	div := buggy.Check(SynthKernel{p})
	if div == nil {
		t.Fatal("injected thread-ID bug not caught on a synthetic kernel")
	}
	if !div.Synth || div.SynthKey != p.Key() {
		t.Fatalf("divergence not marked synthetic: %+v", div)
	}
	if line := div.String(); !strings.Contains(line, "hsmconf -synth -seed") {
		t.Fatalf("repro line lacks -synth mode: %s", line)
	}
}

// synthFatParams is a deliberately feature-dense vector: every op
// bucket populated, multi-round, multi-group sharing — the analogue of
// the spec tests' fatSpec.
func synthFatParams() synth.Params {
	return synth.Params{
		Seed:         42,
		Ops:          64,
		MemFrac:      0.8,
		LoadFrac:     0.5,
		SharedFrac:   0.5,
		Sharing:      2,
		SharedAddrs:  24,
		PrivateAddrs: 12,
		Rounds:       3,
		Double:       true,
	}
}

// TestInjectedBugCaughtOnSynthAndShrunk is the synth-mode acceptance
// check: the differential oracle catches an injected translator fault
// on a synthetic kernel, and parameter-vector shrinking reduces the
// dense vector to a minimal reproducer that still fails under the
// fault and passes without it.
func TestInjectedBugCaughtOnSynthAndShrunk(t *testing.T) {
	p := synthFatParams()

	clean := NewEngine()
	if div := clean.Check(SynthKernel{p}); div != nil {
		t.Fatalf("clean pipeline must pass the fat synthetic kernel, got %s\n%s", div, div.Source)
	}

	buggy := NewEngine()
	buggy.Mutate = func(src string) string {
		return strings.ReplaceAll(src, "(void *)(myID)", "(void *)(0)")
	}
	div := buggy.Check(SynthKernel{p})
	if div == nil {
		t.Fatal("injected translate bug was not caught on the synthetic kernel")
	}
	t.Logf("caught: %s", div)

	min := buggy.Shrink(SynthKernel{p}, div).(SynthKernel)
	if min.Complexity() >= p.Complexity() {
		t.Fatalf("shrink did not reduce the vector: %+v", min)
	}
	min2 := buggy.Shrink(SynthKernel{p}, div).(SynthKernel)
	if min != min2 {
		t.Fatalf("synth shrink is nondeterministic: %+v vs %+v", min, min2)
	}
	if buggy.CheckCell(min, div.Cores, div.Policy, div.Budget, div.Oversub) == nil {
		t.Fatal("minimized vector no longer reproduces the injected bug")
	}
	if d := clean.CheckCell(min, div.Cores, div.Policy, div.Budget, div.Oversub); d != nil {
		t.Fatalf("minimized vector fails even without the injected bug: %s", d)
	}
	t.Logf("minimized %s -> %s", p.Key(), min.Key())
}

// TestShrinkMonotonePredicate pins the one shrink loop on a synthetic
// vector: with a predicate that keeps failing as long as sharing
// traffic exists, greedy shrinking must reach the minimal
// sharing-bearing vector, identically on repeat runs.
func TestShrinkMonotonePredicate(t *testing.T) {
	p := SynthKernel{synth.Params{Seed: 11, Ops: 48, MemFrac: 1, LoadFrac: 0.5, SharedFrac: 1,
		Sharing: 8, SharedAddrs: 32, PrivateAddrs: 16, Rounds: 3, Double: true}}
	fails := func(k Kernel) bool {
		c := k.(SynthKernel)
		return c.MemFrac > 0 && c.SharedFrac > 0
	}
	a := shrink(p, fails).(SynthKernel)
	b := shrink(p, fails).(SynthKernel)
	if a != b {
		t.Fatalf("Shrink not deterministic: %+v vs %+v", a, b)
	}
	if !fails(a) {
		t.Fatalf("Shrink left the failing set: %+v", a)
	}
	if a.Ops != synth.MinOps || a.Rounds != 1 || a.Sharing != 1 || a.Double {
		t.Fatalf("Shrink under-reduced: %+v", a)
	}
}

// TestSynthOversubscribedCells checks the §7.2 many-to-one mapping on
// synthetic kernels specifically: the emitted thread count is
// cores×factor, and both backends agree at factor 2.
func TestSynthOversubscribedCells(t *testing.T) {
	eng := NewEngine()
	eng.Matrix = Matrix{Cores: []int{2}, Policies: []string{"offchip", "size"}, Budgets: []int{0}, Oversub: []int{2}}
	for seed := int64(100); seed < 106; seed++ {
		if div := eng.Check(Synthetic(seed)); div != nil {
			t.Fatalf("seed %d oversubscribed: %s\n%s", seed, div, div.Source)
		}
	}
}
