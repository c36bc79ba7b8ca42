// Command benchguard is the benchmark overhead gate: it compares two
// `go test -bench` outputs taken on the same machine — the PR's base
// commit (-old) and its head (-new) — and fails when head costs more
// than (1 + overhead) of base by geomean. Comparing two builds on one
// runner keeps the guard machine-independent: absolute ns/op vary with
// CI hardware, the ratio between the two runs does not. It is the
// tracing gate — the same benchmarks with the trace hooks compiled in
// but disabled must stay within 2% of the base commit — and it emits a
// benchstat-style delta report for the CI artifact.
//
// Usage:
//
//	benchguard -old base.txt -new head.txt -max-overhead 0.02 -out delta.txt
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\d+(?:\.\d+)?) ns/op`)

// parse collects ns/op samples per benchmark name.
func parse(path string) (map[string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]float64)
	for _, line := range strings.Split(string(b), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		out[m[1]] = append(out[m[1]], v)
	}
	return out, nil
}

// median of a sample set; the robust center for noisy CI machines.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func run() error {
	oldPath := flag.String("old", "", "benchmark output at the base commit")
	newPath := flag.String("new", "", "benchmark output at the head commit")
	maxOverhead := flag.Float64("max-overhead", 0.02, "pass while geomean new/old <= 1+this")
	outPath := flag.String("out", "", "optional delta report file")
	flag.Parse()
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("benchguard: -old and -new are required")
	}
	oldRes, err := parse(*oldPath)
	if err != nil {
		return err
	}
	newRes, err := parse(*newPath)
	if err != nil {
		return err
	}
	var names []string
	for name := range newRes {
		if _, ok := oldRes[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("benchguard: no common benchmarks between %s and %s", *oldPath, *newPath)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-34s %14s %14s %9s\n", "benchmark", "old", "new", "speedup")
	logSum := 0.0
	for _, name := range names {
		o, n := median(oldRes[name]), median(newRes[name])
		ratio := o / n
		logSum += math.Log(ratio)
		fmt.Fprintf(&sb, "%-34s %12.2fms %12.2fms %8.2fx\n", name, o/1e6, n/1e6, ratio)
	}
	geomean := math.Exp(logSum / float64(len(names)))
	fmt.Fprintf(&sb, "%-34s %14s %14s %8.2fx\n", "geomean", "", "", geomean)
	fmt.Print(sb.String())
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(sb.String()), 0o644); err != nil {
			return err
		}
	}
	// The geomean is old/new, so new within (1+overhead)×old means
	// geomean >= 1/(1+overhead).
	overhead := 1/geomean - 1
	if floor := 1 / (1 + *maxOverhead); geomean < floor {
		return fmt.Errorf("benchguard: geomean overhead %.1f%% above the %.1f%% budget — new regressed against old",
			100*overhead, 100**maxOverhead)
	}
	fmt.Printf("benchguard: ok (geomean overhead %.1f%% within the %.1f%% budget)\n",
		100*overhead, 100**maxOverhead)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
