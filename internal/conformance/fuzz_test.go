package conformance

import (
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/synth"
)

// FuzzTranslateDiff drives the whole translate→RCCE→sccsim pipeline
// from a single int64 seed: the seed deterministically generates a
// Pthread kernel, which is checked differentially against the
// interpreter baseline on the smoke matrix. Any counterexample the
// fuzzer finds is reproducible from the seed alone (the failure message
// carries the hsmconf repro line), and `go test` runs the seed corpus
// below as a regression set on every CI run.
//
// Soak with: go test ./internal/conformance -fuzz FuzzTranslateDiff
func FuzzTranslateDiff(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1337, 99991} {
		f.Add(seed)
	}
	eng := NewEngine()
	eng.Matrix = SmokeMatrix()
	f.Fuzz(func(t *testing.T, seed int64) {
		spec := SpecForSeed(seed, DefaultGenOptions())

		// The generated program must survive the frontend round trip...
		file := spec.File(eng.Matrix.Cores[0])
		src := printer.Print(file)
		reparsed, err := parser.Parse("fuzz.c", src)
		if err != nil {
			t.Fatalf("seed %d: generated kernel does not parse: %v\n%s", seed, err, src)
		}
		if !ast.Equal(file, reparsed) {
			t.Fatalf("seed %d: parse(print(ir)) is not structurally equal\n%s", seed, src)
		}

		// ...and both backends must agree on what it computes.
		if div := eng.Check(spec); div != nil {
			t.Fatalf("differential divergence: %s\n--- kernel\n%s\n--- baseline output\n%s\n--- rcce output\n%s",
				div, div.Source, div.BaseOut, div.RCCEOut)
		}
	})
}

// FuzzSynthDiff is the synthetic-generator twin of FuzzTranslateDiff:
// the seed derives a parameter vector, the vector emits a race-free
// kernel, and both backends must agree on it across the smoke matrix.
// Failures reproduce via `hsmconf -synth -seed <seed> -n 1`.
//
// Soak with: go test ./internal/conformance -fuzz FuzzSynthDiff
func FuzzSynthDiff(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 42, 1337, 99991} {
		f.Add(seed)
	}
	eng := NewEngine()
	eng.Matrix = SmokeMatrix()
	f.Fuzz(func(t *testing.T, seed int64) {
		p := synth.ParamsForSeed(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: derived vector out of contract: %v", seed, err)
		}

		// Frontend round trip at the smoke matrix's UE count...
		file := p.File(eng.Matrix.Cores[0])
		src := printer.Print(file)
		reparsed, err := parser.Parse("fuzz_synth.c", src)
		if err != nil {
			t.Fatalf("seed %d: synthetic kernel does not parse: %v\n%s", seed, err, src)
		}
		if !ast.Equal(file, reparsed) {
			t.Fatalf("seed %d: parse(print(ir)) is not structurally equal\n%s", seed, src)
		}

		// ...and differential agreement.
		if div := eng.Check(SynthKernel{p}); div != nil {
			t.Fatalf("synthetic divergence: %s\n--- kernel\n%s\n--- baseline output\n%s\n--- rcce output\n%s",
				div, div.Source, div.BaseOut, div.RCCEOut)
		}
	})
}
