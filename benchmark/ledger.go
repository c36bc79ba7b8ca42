package main

// -selfcheck (two sets of the same code must agree within the
// benchmark's own bounds) and -ledger (the committed first full run,
// with the acceptance thresholds evaluated on it).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// hostInfo says where numbers were taken.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The go command stamps the revision when it builds inside a git
	// checkout; the driver's checkout is not one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// runFullSet runs every workload untraced, then every workload traced.
func runFullSet(seed int64, opt options) (plain, traced []*result, err error) {
	if plain, err = runSet(seed, false, opt); err != nil {
		return nil, nil, err
	}
	traced, err = runSet(seed, true, opt)
	return plain, traced, err
}

// runSelfcheck runs two full sets — every workload untraced and traced —
// on one seed and compares them.
func runSelfcheck(seed int64, opt options) error {
	var sets [2]struct{ plain, traced []*result }
	for s := range sets {
		var err error
		if sets[s].plain, sets[s].traced, err = runFullSet(seed, opt); err != nil {
			return err
		}
	}
	var bad []string
	note := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	fmt.Printf("%-13s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for i, w := range workloads {
		a, b := sets[0].plain[i], sets[1].plain[i]
		for _, m := range endToEnd {
			x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			d := relDiff(x, y)
			flag := ""
			if math.Abs(d) > m.Bound {
				flag = "  EXCEEDS"
				note("%s %s: %.4g vs %.4g differ by %.1f%%, bound %.0f%%", w.Name, m.Name, x, y, 100*d, 100*m.Bound)
			}
			fmt.Printf("%-13s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", w.Name, m.Name, x, y, 100*d, 100*m.Bound, flag)
		}
		ta, tb := sets[0].traced[i], sets[1].traced[i]
		for _, r := range []*result{b, ta, tb} {
			if r.SimDigest != a.SimDigest {
				note("%s: sim_digest %s vs %s", w.Name, a.SimDigest, r.SimDigest)
			}
		}
		for _, r := range []*result{a, b, ta, tb} {
			if r.Failed != 0 {
				note("%s: %d of %d ops failed (%s)", w.Name, r.Failed, r.Attempted, strings.Join(r.Failures, "; "))
			}
		}
		for _, m := range perLayer {
			if x, y := ta.Metrics[m.Name].Value, tb.Metrics[m.Name].Value; m.Exact && x != y {
				note("%s %s: exact count %v vs %v", w.Name, m.Name, x, y)
			}
		}
		fmt.Printf("%-13s sim_digest %s\n", w.Name, a.SimDigest)
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: %d disagreements:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck: both sets agree")
	return nil
}

// check is one acceptance threshold evaluated on a ledger run.
type check struct {
	Seed  int64   `json:"seed"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Want  string  `json:"want"`
	Pass  bool    `json:"pass"`
}

// frontEndLayers are the compile-side layers: their summed self time is
// what separates compile_many from the sim workloads.
var frontEndLayers = []string{
	"cc.lexer.self_ms", "cc.parser.self_ms", "cc.sema.self_ms", "cc.printer.self_ms",
	"analysis.scope.self_ms", "analysis.interthread.self_ms", "analysis.pointsto.self_ms",
	"partition.self_ms", "translate.self_ms", "interp.load.self_ms",
}

// runLayers are the remaining decomposed layers.
var runLayers = []string{"sccsim.new_ms", "pthreadrt.run_ms", "rcce.run_ms"}

// ledgerChecks evaluates "the accounting closes and the workloads
// separate" on one seed's traced results.
func ledgerChecks(seed int64, traced []*result) []check {
	byName := make(map[string]*result)
	for _, r := range traced {
		byName[r.Workload] = r
	}
	get := func(w, m string) float64 { return byName[w].Metrics[m].Value }
	sum := func(w string, ms []string) (s float64) {
		for _, m := range ms {
			s += get(w, m)
		}
		return s
	}
	var out []check
	add := func(name string, v float64, want string, pass bool) {
		out = append(out, check{seed, name, v, want, pass})
	}
	for _, w := range []string{"sim_private", "sim_shared", "sim_wide", "compile_many"} {
		both := get(w, "bench.both_ms")
		closure := (sum(w, frontEndLayers) + sum(w, runLayers) + get(w, "bench.overhead_ms")) / both
		add(w+": (layer self times + bench.overhead_ms) / bench.both_ms", closure, "within 0.9..1.1", closure >= 0.9 && closure <= 1.1)
	}
	share := func(w string) float64 { return sum(w, frontEndLayers) / get(w, "bench.both_ms") }
	add("compile_many: front-end share of op time", share("compile_many"), ">= 0.5", share("compile_many") >= 0.5)
	for _, w := range []string{"sim_private", "sim_shared"} {
		add(w+": front-end share of op time", share(w), "<= 0.05", share(w) <= 0.05)
	}
	sep := get("sim_shared", "interp.sched.resumes_per_kacc") / get("sim_private", "interp.sched.resumes_per_kacc")
	add("resumes_per_kacc, sim_shared / sim_private", sep, ">= 4", sep >= 4)
	hit := func(w string) float64 { return get(w, "bench.cache.hit_ratio") }
	add("grid_sweep: bench.cache.hit_ratio", hit("grid_sweep"), ">= 0.5", hit("grid_sweep") >= 0.5)
	add("serve_warm: bench.cache.hit_ratio", hit("serve_warm"), ">= 0.99", hit("serve_warm") >= 0.99)
	for _, w := range []string{"sim_private", "sim_shared", "sim_wide"} {
		add(w+": bench.cache.hit_ratio", hit(w), "<= 0.01", hit(w) <= 0.01)
	}
	cs := get("serve_warm", "serve.compute_share")
	add("serve_warm: serve.compute_share", cs, "<= 0.6", cs <= 0.6)
	for _, r := range traced {
		n := r.Metrics["interp.load.not_fully_compiled"].Value
		add(r.Workload+": interp.load.not_fully_compiled", n, "== 0", n == 0)
	}
	return out
}

// writeLedger runs seeds 1 and 2, untraced and traced, and writes the
// ledger document.
func writeLedger(path string, opt options) error {
	doc := struct {
		Host       hostInfo  `json:"host"`
		Procs      int       `json:"procs"`
		RunSeconds float64   `json:"run_seconds"`
		Command    string    `json:"regenerate_with"`
		Checks     []check   `json:"checks"`
		Results    []*result `json:"results"`
	}{Host: host(), Procs: opt.procs, RunSeconds: opt.seconds, Command: "bash benchmark/run.sh -ledger"}
	failed := false
	for _, seed := range []int64{1, 2} {
		plain, traced, err := runFullSet(seed, opt)
		if err != nil {
			return err
		}
		for i := range plain {
			if plain[i].SimDigest != traced[i].SimDigest {
				return fmt.Errorf("%s seed %d: the traced run did not reproduce the untraced sim_digest", plain[i].Workload, seed)
			}
			failed = failed || !plain[i].Correct || !traced[i].Correct
		}
		doc.Checks = append(doc.Checks, ledgerChecks(seed, traced)...)
		doc.Results = append(doc.Results, plain...)
		doc.Results = append(doc.Results, traced...)
	}
	for _, c := range doc.Checks {
		mark := "ok  "
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Printf("%s seed %d  %-62s %8.4f  want %s\n", mark, c.Seed, c.Name, c.Value, c.Want)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if failed {
		return errFailedChecks
	}
	return nil
}
