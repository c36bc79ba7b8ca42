package main

import (
	"strings"
	"testing"

	"hsmcc/internal/conformance"
)

// TestPersistOversubscribedReproducer: a failure at an oversubscribed
// cell keeps its reproducer emitted for the cell's cores×oversub UEs,
// and the sidecar hsmconf persists replays it at that same cell.
func TestPersistOversubscribedReproducer(t *testing.T) {
	buggy := conformance.NewEngine()
	buggy.Matrix = conformance.Matrix{Cores: []int{2}, Policies: []string{"offchip"}, Budgets: []int{0}, Oversub: []int{2}}
	buggy.Mutate = func(src string) string {
		return strings.ReplaceAll(src, "(void *)(myID)", "(void *)(0)")
	}
	rep := buggy.Run(1, 4, 2, conformance.Grammar(buggy.Gen), nil)
	if len(rep.Failures) == 0 {
		t.Fatal("the injected thread-ID bug failed no kernel")
	}
	for _, f := range rep.Failures {
		if want := f.Minimized.Source(f.Div.Cores * f.Div.Oversub); f.MinSource != want {
			t.Errorf("seed %d: MinSource is not the minimized kernel for %d UEs:\n%s", f.Seed, f.Div.Cores*f.Div.Oversub, f.MinSource)
		}
	}

	dir := t.TempDir()
	if err := persistFailures(dir, rep.Failures); err != nil {
		t.Fatal(err)
	}
	cases, err := conformance.LoadSeeds(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(rep.Failures) {
		t.Fatalf("persisted %d pairs for %d failures", len(cases), len(rep.Failures))
	}
	for _, c := range cases {
		if c.Meta.Oversub != 2 {
			t.Errorf("%s: sidecar oversub %d, want 2", c.Name, c.Meta.Oversub)
		}
		if buggy.CheckSource(c.Meta.Seed, c.Source, c.Meta.Cores, c.Meta.Policy, c.Meta.Budget, c.Meta.Oversub) == nil {
			t.Errorf("%s: persisted reproducer does not fail at its recorded cell", c.Name)
		}
	}
}
