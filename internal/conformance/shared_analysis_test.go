package conformance

import (
	"fmt"
	"sync"
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/cc/types"
)

// TestTranslatedKernelsPrintAsTheyRun extends the printed-is-what-runs
// property (bench.TestPrintedIsWhatRuns) to generated kernels: for seeds
// 1-60 under each static policy at 4 cores and a 512-byte budget, the
// translated tree — the one an RCCE cell lowers and runs — prints to
// source that re-parses to an equal tree, and printing is a fixpoint.
func TestTranslatedKernelsPrintAsTheyRun(t *testing.T) {
	e := NewEngine()
	for seed := int64(1); seed <= 60; seed++ {
		w := kernelWorkload(seed, SpecForSeed(seed, e.Gen).Source(4))
		cfg := e.cellConfig(4, 512, 1, bench.NewCache())
		for _, policy := range []string{"offchip", "size", "freq"} {
			pol, err := bench.ParsePolicy(policy)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := bench.TranslateWorkload(w, cfg, pol)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, policy, err)
			}
			tree := tr.Program.File
			if printer.Print(tree) != tr.Source {
				t.Fatalf("seed %d %s: the output is not the print of the tree that runs", seed, policy)
			}
			reparsed, err := parser.Parse(tree.Name, tr.Source)
			if err != nil {
				t.Fatalf("seed %d %s: printed translation does not parse: %v", seed, policy, err)
			}
			if !ast.Equal(reparsed, tree) {
				t.Fatalf("seed %d %s: printed translation parses to a different tree\n%s", seed, policy, tr.Source)
			}
			if again := printer.Print(reparsed); again != tr.Source {
				t.Fatalf("seed %d %s: print is not a fixpoint\n--- first\n%s\n--- second\n%s", seed, policy, tr.Source, again)
			}
		}
	}
}

// TestAnalysisSharedAcrossCells pins the analyse-once contract under
// concurrency: one kernel's 4 policies × 2 budgets run on concurrent
// workers against one cache. The source is parsed and analysed once,
// and the translations — each on its own copy of the analysed tree —
// leave that tree equal to a fresh parse and every symbol's type as the
// analysis set it. A whole-matrix check then parses once per distinct
// source (one per UE count). Run under -race (CI does), it is also the
// proof that no translation writes to the shared analysis.
func TestAnalysisSharedAcrossCells(t *testing.T) {
	e := NewEngine()
	k := SpecForSeed(7, e.Gen)
	src := k.Source(4)
	w := kernelWorkload(7, src)
	cache := bench.NewCache()
	parses := parser.Parses()

	base, err := bench.CompileBaseline(w, e.cellConfig(4, 0, 1, cache))
	if err != nil {
		t.Fatal(err)
	}
	symTypes := make(map[*ast.Symbol]*types.Type)
	for _, s := range base.Info.AllSymbols {
		symTypes[s] = s.Type
	}
	for _, s := range base.Info.Funcs {
		symTypes[s] = s.Type
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for _, policy := range []string{"offchip", "size", "freq", "profiled"} {
		for _, budget := range []int{0, 512} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pol, err := bench.ParsePolicy(policy)
				if err == nil {
					var both *bench.BothResult
					if both, err = bench.RunBothBackends(w, e.cellConfig(4, budget, 1, cache), pol); err == nil && !both.Match {
						err = fmt.Errorf("outputs diverge")
					}
				}
				if err != nil {
					errs <- fmt.Errorf("%s/%d: %w", policy, budget, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := cache.Stats()
	if st.AnalyzeRuns != 1 || st.ProgramCompiles != 1 {
		t.Errorf("%d analyses and %d Pthread compiles across the cells, want 1 and 1", st.AnalyzeRuns, st.ProgramCompiles)
	}
	if n := parser.Parses() - parses; n != 1 {
		t.Errorf("the cells parsed the kernel %d times, want once", n)
	}
	fresh, err := parser.Parse(w.Key+".c", src)
	if err != nil {
		t.Fatal(err)
	}
	if !ast.Equal(base.File, fresh) {
		t.Errorf("a translation changed the shared analysed tree:\n%s", printer.Print(base.File))
	}
	for s, typ := range symTypes {
		if s.Type != typ {
			t.Errorf("symbol %s changed type from %s to %s", s.Name, typ, s.Type)
		}
	}

	parses = parser.Parses()
	if div := e.Check(k); div != nil {
		t.Fatal(div)
	}
	distinct := make(map[string]bool)
	for _, cores := range e.Matrix.Cores {
		for _, f := range e.Matrix.factors() {
			distinct[k.Source(cores*f)] = true
		}
	}
	if n, sources := parser.Parses()-parses, int64(len(distinct)); n != sources {
		t.Errorf("a whole-matrix check parsed %d times, want %d (once per distinct source)", n, sources)
	}
}
