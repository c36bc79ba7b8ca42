// Package hsmcc reproduces "Enabling Multi-threaded Applications on
// Hybrid Shared Memory Manycore Architectures" (DATE 2015 / Rawat's ASU
// thesis): a five-stage compile-time framework that analyses a Pthread
// program, identifies a conservative superset of its shared data, maps
// that data onto the hybrid (on-chip SRAM + off-chip DRAM) shared memory
// of a non-coherent manycore, and translates the program into an RCCE
// multiprocess application — plus the full experimental substrate (an
// Intel SCC machine model, a Pthread baseline runtime, an RCCE runtime
// and a C interpreter) needed to rerun the paper's evaluation.
//
// Typical use:
//
//	res, err := hsmcc.TranslateFile("app.c", hsmcc.Options{Cores: 32})
//	fmt.Print(res.Output)            // the RCCE C program
//	fmt.Print(res.Table41())         // the per-variable analysis
//
// To execute programs on the simulated SCC, see RunPthread and RunRCCE;
// to regenerate the paper's tables and figures, see internal/bench via
// cmd/hsmbench.
package hsmcc

import (
	"fmt"
	"os"

	"hsmcc/internal/bench"
	"hsmcc/internal/core"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// PartitionPolicy selects the Stage 4 heuristic.
type PartitionPolicy = partition.Policy

// Partitioning policies.
const (
	// SizeAscending is the paper's Algorithm 3.
	SizeAscending = partition.PolicySizeAscending
	// FrequencyDensity places hottest-per-byte data first (ablation).
	FrequencyDensity = partition.PolicyFrequencyDensity
	// OffChipOnly disables the MPB (the Fig 6.1 configuration).
	OffChipOnly = partition.PolicyOffChipOnly
	// Profiled places by an explicit measured placement map (see
	// Options.Placement and internal/profile).
	Profiled = partition.PolicyProfiled
)

// Options configures the translation pipeline.
type Options struct {
	// Cores is the number of SCC cores the translated program targets.
	// The emitted program reads its UE count at run time and does not
	// depend on this value.
	Cores int
	// MPBCapacity is the on-chip shared memory budget in bytes for
	// Stage 4: 0 is the SCC's full 384 KB MPB, and a negative budget or
	// one past the MPB is an error.
	MPBCapacity int
	// Policy is the Stage 4 partitioning heuristic.
	Policy PartitionPolicy
	// Placement is the explicit per-variable placement map (name ->
	// on-chip) for the Profiled policy — typically the output of the
	// access-profiling optimizer (bench.ProfileWorkload + profile.Optimize).
	Placement map[string]bool
}

// Result is a completed translation: the pipeline artifacts plus the
// emitted RCCE C source.
type Result struct {
	*core.Pipeline
}

// Translate runs the five-stage pipeline over Pthread C source and
// returns the translated RCCE program (in Result.Output) along with all
// analysis artifacts.
func Translate(name, source string, opts Options) (*Result, error) {
	capacity, err := bench.EffectiveBudget(opts.MPBCapacity, sccsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p, err := core.Analyze(name, source)
	if err != nil {
		return nil, err
	}
	part, err := partition.Decide(p.SharedVars(), opts.Policy, capacity, opts.Placement)
	if err != nil {
		return nil, err
	}
	if p, err = p.Translate(part); err != nil {
		return nil, err
	}
	return &Result{Pipeline: p}, nil
}

// TranslateFile is Translate over a file on disk.
func TranslateFile(path string, opts Options) (*Result, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Translate(path, string(src), opts)
}

// Analyze runs Stages 1-3 only (no transformation): the per-variable
// facts of Tables 4.1/4.2. None of opts reaches these stages.
func Analyze(name, source string, _ Options) (*Result, error) {
	p, err := core.Analyze(name, source)
	if err != nil {
		return nil, err
	}
	return &Result{Pipeline: p}, nil
}

// RunReport summarises one simulated execution.
type RunReport struct {
	// Seconds is the simulated makespan.
	Seconds float64
	// Output is everything the program printed.
	Output string
	// Stats aggregates the machine's memory-system counters.
	Stats sccsim.CoreStats
}

// RunPthread executes Pthread C source under the paper's baseline: every
// thread time-shares one core of a simulated SCC.
func RunPthread(name, source string) (*RunReport, error) {
	pr, err := interp.Compile(name, source)
	if err != nil {
		return nil, err
	}
	m, err := sccsim.New(sccsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res, err := pthreadrt.Run(pr, m, pthreadrt.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return &RunReport{Seconds: res.Seconds(), Output: res.Output, Stats: res.Stats}, nil
}

// RunRCCE executes RCCE C source (typically a Translate result) with one
// process per core on a simulated SCC.
func RunRCCE(name, source string, cores int) (*RunReport, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("hsmcc: core count must be positive")
	}
	pr, err := interp.Compile(name, source)
	if err != nil {
		return nil, err
	}
	m, err := sccsim.New(sccsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	res, err := rcce.Run(pr, m, rcce.DefaultOptions(cores))
	if err != nil {
		return nil, err
	}
	return &RunReport{Seconds: res.Seconds(), Output: res.Output, Stats: res.Stats}, nil
}
