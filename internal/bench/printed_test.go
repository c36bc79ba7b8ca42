package bench

import (
	"fmt"
	"reflect"
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/synth"
)

var staticPolicies = []partition.Policy{
	partition.PolicyOffChipOnly, partition.PolicySizeAscending, partition.PolicyFrequencyDensity,
}

// TestPrintedIsWhatRuns: an RCCE run executes the Program lowered from
// the translated tree, not a re-parse of the printed text, so the two
// must be the same program. For every corpus workload and every synth
// corner, under each static policy at 4 and 32 cores, the printed
// translation must re-parse to a tree structurally equal to the one
// that runs, and printing must be a fixpoint.
func TestPrintedIsWhatRuns(t *testing.T) {
	ws := All()
	for _, p := range synth.Corners() {
		ws = append(ws, SynthWorkload(p))
	}
	for _, cores := range []int{4, 32} {
		cfg := DefaultConfig()
		cfg.Threads, cfg.Scale = cores, 0.1
		for _, w := range ws {
			for _, pol := range staticPolicies {
				tr, err := TranslateWorkload(w, cfg, pol)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", w.Key, cores, pol, err)
				}
				if err := printedIsTree(tr.Program.File, tr.Source); err != nil {
					t.Errorf("%s/%d/%s: %v", w.Key, cores, pol, err)
				}
			}
		}
	}
}

// printedIsTree checks that src, the printed form of the tree t, parses
// back to t and prints to itself.
func printedIsTree(t *ast.File, src string) error {
	if printed := printer.Print(t); printed != src {
		return fmt.Errorf("the output is not the print of the tree that runs")
	}
	reparsed, err := parser.Parse(t.Name, src)
	if err != nil {
		return fmt.Errorf("printed translation does not parse: %w", err)
	}
	if !ast.Equal(reparsed, t) {
		return fmt.Errorf("printed translation parses to a different tree\n%s", src)
	}
	if again := printer.Print(reparsed); again != src {
		return fmt.Errorf("print is not a fixpoint\n--- first\n%s\n--- second\n%s", src, again)
	}
	return nil
}

// TestTreeLoweredMatchesReparsed is the differential half: on the corpus
// at 4 cores, under each static policy, the Program lowered from the
// translated tree and the one compiled from the printed text simulate
// to the same makespan, counters and output.
func TestTreeLoweredMatchesReparsed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threads, cfg.Scale = 4, 0.1
	cfg.Cache = NewCache()
	for _, w := range All() {
		for _, pol := range staticPolicies {
			tr, err := TranslateWorkload(w, cfg, pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Key, pol, err)
			}
			pr, err := interp.Compile(w.Key+"_rcce.c", tr.Source)
			if err != nil {
				t.Fatalf("%s/%s: printed translation does not compile: %v", w.Key, pol, err)
			}
			reparsed := *tr
			reparsed.Program = pr
			lowered, err := RunRCCEProgram(w, tr, cfg, pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Key, pol, err)
			}
			compiled, err := RunRCCEProgram(w, &reparsed, cfg, pol)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Key, pol, err)
			}
			if !reflect.DeepEqual(lowered, compiled) {
				t.Errorf("%s/%s: tree-lowered run %+v, re-parsed run %+v", w.Key, pol, lowered, compiled)
			}
		}
	}
}
