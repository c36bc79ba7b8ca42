// Command benchmark measures the host cost of this repository's public
// entry points: six workloads, seven end-to-end metrics and a per-layer
// ledger, all timed from outside through exported functions. README.md
// in this directory documents every workload, metric and flag.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and end with the driver's result line (default: all six, one JSON document)")
		seed      = flag.Int64("seed", 1, "seed of the op lists and request sequences")
		seconds   = flag.Float64("seconds", runSeconds, "length of each measured phase")
		traceFlag = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file per workload; 0 = end-to-end metrics")
		procs     = flag.Int("procs", min(runtime.NumCPU(), 4), "GOMAXPROCS, RunGrid workers and HTTP clients")
		quick     = flag.Bool("quick", false, "smoke run: ~5 ops per workload, one pass, one set-up")
		selfcheck = flag.Bool("selfcheck", false, "run two full sets on the same seed and require them to agree within the bounds")
		ledgerOut = flag.Bool("ledger", false, "run seeds 1 and 2, untraced and traced, and write benchmark/LEDGER.json")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json as declared in decl.go and exit")
	)
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifest())
		return
	}
	root := repoRoot()
	opt := options{seconds: *seconds, procs: *procs, quick: *quick, outDir: filepath.Join(root, "benchmark", "out")}
	if opt.quick {
		opt.seconds = 0
	}
	runtime.GOMAXPROCS(opt.procs)

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(*seed, opt)
	case *ledgerOut:
		err = writeLedger(filepath.Join(root, "benchmark", "LEDGER.json"), opt)
	case *workload != "":
		err = runOne(*workload, *seed, *traceFlag == 1, opt)
	default:
		if opt.quick {
			err = checkManifest(root)
		}
		if err == nil {
			err = runAll(*seed, *traceFlag == 1, opt)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// repoRoot finds the checkout root from the working directory: the
// driver and run.sh start there, `go run` inside benchmark/ one below.
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

// checkManifest fails when BENCHMARK.json is not the manifest decl.go
// declares — a workload or metric missing on either side.
func checkManifest(root string) error {
	have, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if string(have) != string(manifest()) {
		return fmt.Errorf("BENCHMARK.json differs from the declared manifest; regenerate it with -manifest")
	}
	return nil
}

// summary is the one-line account of a run's wall time, so a drift past
// the time budget shows in the output.
func summary(r *result) string {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	return fmt.Sprintf("%-12s seed %d %-8s set-up %6.2fs  measured %6.2fs  ops %5d  passes %2d  samples %6d (%d beyond p95)  failed %d",
		r.Workload, r.Seed, mode, r.SetupWallS, r.MeasuredWallS, r.Ops, r.Passes, r.Attempted, r.BeyondP95, r.Failed)
}

var errFailedChecks = errors.New("output checks failed")

// runOne is the driver's form of the command.
func runOne(name string, seed int64, traced bool, opt options) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := runWorkload(w, seed, traced, opt)
	if err != nil {
		return err
	}
	return printResult(os.Stdout, r)
}

// printResult writes human-readable lines, then as the last line one
// JSON object with exactly correct, attempted, failed and metrics. It
// returns errFailedChecks when an output check failed.
func printResult(out io.Writer, r *result) error {
	fmt.Fprintln(out, summary(r))
	for _, f := range r.Failures {
		fmt.Fprintln(out, "failed:", f)
	}
	fmt.Fprintf(out, "sim_digest %s\n", r.SimDigest)
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	if !r.Correct {
		return errFailedChecks
	}
	return nil
}

// runSet runs every declared workload once and returns the results in
// declaration order; progress goes to stderr.
func runSet(seed int64, traced bool, opt options) ([]*result, error) {
	var out []*result
	for i := range workloads {
		r, err := runWorkload(&workloads[i], seed, traced, opt)
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, summary(r))
		out = append(out, r)
	}
	return out, nil
}

// document is what the all-workloads form prints.
type document struct {
	Host       hostInfo  `json:"host"`
	Procs      int       `json:"procs"`
	TotalWallS float64   `json:"total_wall_s"`
	Results    []*result `json:"results"`
}

func runAll(seed int64, traced bool, opt options) error {
	start := time.Now()
	results, err := runSet(seed, traced, opt)
	if err != nil {
		return err
	}
	doc := document{Host: host(), Procs: opt.procs, TotalWallS: time.Since(start).Seconds(), Results: results}
	fmt.Fprintf(os.Stderr, "total %.1fs\n", doc.TotalWallS)
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	for _, r := range results {
		if !r.Correct {
			return errFailedChecks
		}
	}
	return nil
}
