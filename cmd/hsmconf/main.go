// Command hsmconf is the differential conformance driver: it generates
// seeded random Pthread kernels and checks that the single-core Pthread
// baseline and the full translate→RCCE→sccsim pipeline agree on every
// (cores × placement policy × MPB budget) cell of the matrix. The
// policy axis includes the profile-guided `profiled` placement, so the
// profiling pass and its optimizer are fuzzed against every generated
// kernel shape alongside the static heuristics.
//
// Quick check (200 kernels, default matrix):
//
//	hsmconf -n 200
//
// Overnight soak, persisting minimized failures as regression seeds:
//
//	hsmconf -soak 8h -out testdata/conformance
//
// Reproduce a failure from a log line (seeds are explicit everywhere —
// every failure prints the exact flags that replay it):
//
//	hsmconf -seed 1337 -n 1 -cores 4 -policies freq -budgets 512
//
// Inspect the kernel a seed generates:
//
//	hsmconf -seed 1337 -print -cores 4
//
// Synthetic mode (-synth) swaps the kernel grammar for internal/synth's
// continuous parameter vectors: each seed derives a (mix, sharing,
// footprint, rounds) vector, emits a race-free kernel, and is checked
// across the same matrix. Failures shrink in parameter space and
// persist alongside grammar failures:
//
//	hsmconf -synth -n 100
//	hsmconf -synth -seed 42 -n 1 -cores 2 -policies size
//	hsmconf -synth -seed 42 -print
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hsmcc/internal/conformance"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "base generator seed; kernel i of a run uses seed+i")
		n        = flag.Int("n", 200, "number of kernels to check (ignored with -soak)")
		soak     = flag.Duration("soak", 0, "keep generating batches until this much time has passed (e.g. 8h)")
		cores    = flag.String("cores", "2,4", "comma-separated UE counts to sweep")
		policies = flag.String("policies", "offchip,size,freq,profiled", "comma-separated Stage 4 policies (offchip, size, freq, profiled)")
		budgets  = flag.String("budgets", "0,512", "comma-separated MPB byte budgets (0 = full MPB)")
		oversub  = flag.String("oversub", "1,2", "comma-separated many-to-one factors (1 = one UE per core; f > 1 runs f*cores UEs, thesis 7.2)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent kernel checks")
		out      = flag.String("out", "testdata/conformance", "directory that receives minimized failing kernels")
		doPrint  = flag.Bool("print", false, "print the kernel -seed generates (at the first -cores value) and exit")
		doSynth  = flag.Bool("synth", false, "check synthetic parameter-vector kernels (internal/synth) instead of grammar kernels")
	)
	flag.Parse()

	if *n < 1 {
		fatal(fmt.Errorf("-n must be at least 1, got %d", *n))
	}
	matrix, err := conformance.ParseMatrix(*cores, *policies, *budgets, *oversub)
	if err != nil {
		fatal(err)
	}
	eng := conformance.NewEngine()
	eng.Matrix = matrix
	kernelFor, mode := conformance.Grammar(eng.Gen), "conformance"
	if *doSynth {
		kernelFor, mode = conformance.Synthetic, "synth conformance"
	}

	if *doPrint {
		k := kernelFor(*seed)
		if *doSynth {
			fmt.Printf("// %s\n", k.(conformance.SynthKernel).Key())
		}
		fmt.Print(k.Source(matrix.Cores[0]))
		return
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	start := time.Now()
	base := *seed
	totalKernels := 0
	var failures []*conformance.Failure
	for batch := 0; ; batch++ {
		rep := eng.Run(base, *n, *parallel, kernelFor, logf)
		totalKernels += rep.Kernels
		failures = append(failures, rep.Failures...)
		base += int64(*n)
		if *soak <= 0 || time.Since(start) >= *soak {
			break
		}
		fmt.Fprintf(os.Stderr, "soak: batch %d done, %d kernels so far, %v elapsed\n",
			batch+1, totalKernels, time.Since(start).Round(time.Second))
	}

	fmt.Printf("%s: %d kernels x %d RCCE cells each (seeds %d..%d, policies %s, budgets %s, oversub %s): %d failure(s)\n",
		mode, totalKernels, matrix.Cells(), *seed, base-1, *policies, *budgets, *oversub, len(failures))
	if len(failures) == 0 {
		return
	}
	if err := persistFailures(*out, failures); err != nil {
		fatal(err)
	}
	for _, f := range failures {
		fmt.Printf("FAIL %s\n", f.Div)
	}
	fmt.Printf("minimized reproducers written to %s\n", *out)
	os.Exit(1)
}

// persistFailures writes each failure's minimized kernel and repro
// metadata into dir — the format docs/TESTING.md documents for
// promoting a crasher to a regression seed. Synthetic failures take a
// synth_ prefix, so both families can share one directory.
func persistFailures(dir string, failures []*conformance.Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range failures {
		stem := fmt.Sprintf("seed%d", f.Seed)
		if f.Div.Synth {
			stem = "synth_" + stem
		}
		stem = filepath.Join(dir, stem)
		if err := os.WriteFile(stem+".c", []byte(f.MinSource), 0o644); err != nil {
			return err
		}
		// Top-level fields follow conformance.SeedMeta, so once the bug
		// is fixed the pair promotes to a regression seed unchanged.
		meta, err := json.MarshalIndent(struct {
			conformance.SeedMeta
			Failure *conformance.Failure `json:"failure"`
		}{
			SeedMeta: conformance.SeedMeta{
				Seed:    f.Seed,
				Cores:   f.Div.Cores,
				Policy:  f.Div.Policy,
				Budget:  f.Div.Budget,
				Oversub: f.Div.Oversub,
				Note:    "minimized by hsmconf; .c is the minimized reproducer",
			},
			Failure: f,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(stem+".json", append(meta, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hsmconf:", err)
	os.Exit(1)
}
