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
// With -manifest the files are instead outputs of
// `bash benchmark/run.sh --workload w ...` at base and head (the last
// line of each is the result object), and the gate is the one
// BENCHMARK.json declares: head fails when any end_to_end metric is
// worse than base by more than that metric's bound, or when a larger
// share of its operations failed. -old and -new may repeat: each side
// is then the per-metric median of its runs and the sum of their
// operations, so runs taken as alternating base/head pairs cancel the
// host's drift between them.
//
// Usage:
//
//	benchguard -old base.txt -new head.txt -max-overhead 0.02 -out delta.txt
//	benchguard -manifest BENCHMARK.json -old base1.out -new head1.out -old base2.out -new head2.out -out delta.txt
package main

import (
	"encoding/json"
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

// parse collects ns/op samples per benchmark name over the files.
func parse(files []string) (map[string][]float64, error) {
	out := make(map[string][]float64)
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
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

// manifest is the part of BENCHMARK.json the end-to-end gate reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// result is the object `benchmark/run.sh --workload` prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
}

// paths is a flag that may repeat.
type paths []string

func (p *paths) String() string     { return strings.Join(*p, ",") }
func (p *paths) Set(v string) error { *p = append(*p, v); return nil }

// parseResult reads the result object off the last non-empty line.
func parseResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("benchguard: %s: last line is not a result object: %w", path, err)
	}
	if r.Attempted == 0 || len(r.Metrics) == 0 {
		return nil, fmt.Errorf("benchguard: %s: result object carries no operations or no metrics", path)
	}
	return &r, nil
}

// medianResult is one side of the gate over several runs: each metric's
// median over the runs that report it, and the runs' operations summed.
func medianResult(rs []*result) *result {
	m := &result{Correct: true, Metrics: map[string]metric{}}
	samples := map[string][]float64{}
	for _, r := range rs {
		m.Correct = m.Correct && r.Correct
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		for name, v := range r.Metrics {
			samples[name] = append(samples[name], v.Value)
		}
	}
	for name, v := range samples {
		m.Metrics[name] = metric{median(v)}
	}
	return m
}

// compareEndToEnd renders one row per declared end-to-end metric and
// lists what head broke: "worse" is the change against base in the
// metric's bad direction, as a fraction of base.
func compareEndToEnd(mf *manifest, base, head *result) (report string, broken []string) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s %14s %14s %9s %7s\n", "metric", "base", "head", "worse", "bound")
	for _, m := range mf.EndToEnd {
		o, okO := base.Metrics[m.Name]
		n, okN := head.Metrics[m.Name]
		if !okO || !okN {
			broken = append(broken, m.Name+" missing from a result")
			continue
		}
		delta := n.Value - o.Value
		if m.Better == "higher" {
			delta = o.Value - n.Value
		}
		worse := 0.0
		if o.Value != 0 {
			worse = delta / math.Abs(o.Value)
		}
		fmt.Fprintf(&sb, "%-22s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", m.Name, o.Value, n.Value, 100*worse, 100*m.Bound, m.Unit)
		if worse > m.Bound {
			broken = append(broken, fmt.Sprintf("%s worse by %.1f%% (bound %.0f%%)", m.Name, 100*worse, 100*m.Bound))
		}
	}
	fo, fn := float64(base.Failed)/float64(base.Attempted), float64(head.Failed)/float64(head.Attempted)
	fmt.Fprintf(&sb, "%-22s %14.4f %14.4f\n", "failed share", fo, fn)
	if fn > fo || !head.Correct && base.Correct {
		broken = append(broken, fmt.Sprintf("failed %d of %d operations (base %d of %d)", head.Failed, head.Attempted, base.Failed, base.Attempted))
	}
	return sb.String(), broken
}

// runEndToEnd is the -manifest mode.
func runEndToEnd(manifestPath string, oldPaths, newPaths []string, outPath string) error {
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var mf manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		return fmt.Errorf("benchguard: %s: %w", manifestPath, err)
	}
	if len(mf.EndToEnd) == 0 {
		return fmt.Errorf("benchguard: %s declares no end_to_end metrics", manifestPath)
	}
	var sides [2]*result
	for i, ps := range [2][]string{oldPaths, newPaths} {
		var rs []*result
		for _, p := range ps {
			r, err := parseResult(p)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		sides[i] = medianResult(rs)
	}
	report, broken := compareEndToEnd(&mf, sides[0], sides[1])
	fmt.Print(report)
	if outPath != "" {
		if err := os.WriteFile(outPath, []byte(report), 0o644); err != nil {
			return err
		}
	}
	if len(broken) > 0 {
		return fmt.Errorf("benchguard: head regressed against base: %s", strings.Join(broken, "; "))
	}
	fmt.Println("benchguard: ok (every end-to-end metric within its bound)")
	return nil
}

func run() error {
	var oldPaths, newPaths paths
	flag.Var(&oldPaths, "old", "benchmark output at the base commit (repeatable)")
	flag.Var(&newPaths, "new", "benchmark output at the head commit (repeatable)")
	maxOverhead := flag.Float64("max-overhead", 0.02, "pass while geomean new/old <= 1+this")
	manifestPath := flag.String("manifest", "", "BENCHMARK.json: compare two benchmark/run.sh --workload outputs against its end_to_end bounds")
	outPath := flag.String("out", "", "optional delta report file")
	flag.Parse()
	if len(oldPaths) == 0 || len(newPaths) == 0 {
		return fmt.Errorf("benchguard: -old and -new are required")
	}
	if *manifestPath != "" {
		return runEndToEnd(*manifestPath, oldPaths, newPaths, *outPath)
	}
	oldRes, err := parse(oldPaths)
	if err != nil {
		return err
	}
	newRes, err := parse(newPaths)
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
		return fmt.Errorf("benchguard: no common benchmarks between %s and %s", &oldPaths, &newPaths)
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
