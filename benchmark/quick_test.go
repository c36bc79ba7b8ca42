package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func quickOptions(t *testing.T) options {
	return options{procs: 2, quick: true, outDir: t.TempDir()}
}

// The -quick smoke: every declared workload runs untraced and traced,
// passes its checks, and emits exactly the declared metric names and
// units; BENCHMARK.json declares exactly what decl.go does.
func TestQuickSmoke(t *testing.T) {
	have, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, manifest()) {
		t.Error("BENCHMARK.json differs from the declared manifest; regenerate it with -manifest")
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			opt := quickOptions(t)
			var digests []string
			for _, traced := range []bool{false, true} {
				r, err := runWorkload(w, 1, traced, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d %v", traced, r.Correct, r.Attempted, r.Failed, r.Failures)
				}
				decls := endToEnd
				if traced {
					decls = perLayer
				}
				if len(r.Metrics) != len(decls) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(r.Metrics), len(decls))
				}
				for _, m := range decls {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("traced=%v: declared metric %s not emitted", traced, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case !traced && got.Value <= 0:
						t.Errorf("%s = %v: an end-to-end metric is never 0", m.Name, got.Value)
					}
				}
				digests = append(digests, r.SimDigest)
			}
			if digests[0] != digests[1] {
				t.Errorf("the traced run did not reproduce the untraced sim_digest: %s vs %s", digests[0], digests[1])
			}
			if _, err := os.Stat(filepath.Join(opt.outDir, w.Name+".trace.json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// A response that differs from the expected one is a failed op, and a
// run with failed ops ends in a non-zero exit.
func TestMismatchingResponseFails(t *testing.T) {
	opt := quickOptions(t)
	inst, err := setupServeWarm(1, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	s := inst.(*serveInst)
	s.expected[s.id(s.reqs[0])] = []byte("{\"workload\":\"not what the daemon says\"}\n")

	res := &result{Workload: "serve_warm", Metrics: make(map[string]metricValue)}
	runMeasured(s, res, 1, opt)
	res.Correct = res.Failed == 0
	if res.Failed == 0 || len(res.Failures) == 0 {
		t.Fatalf("a mismatching expected response went unnoticed: %+v", res)
	}
	if !strings.Contains(res.Failures[0], "differs from the prewarm response") {
		t.Errorf("failure = %q", res.Failures[0])
	}
	var out bytes.Buffer
	if err := printResult(&out, res); !errors.Is(err, errFailedChecks) {
		t.Errorf("printResult err = %v, want errFailedChecks (main exits 1 on it)", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   *bool
		Attempted int
		Failed    int
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct == nil || *last.Correct || last.Failed != res.Failed || last.Attempted != len(s.reqs) {
		t.Errorf("result line = %s", lines[len(lines)-1])
	}
}

// The limits the driver refuses a BENCHMARK.json outside of.
func TestManifestMeetsContract(t *testing.T) {
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(manifest()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not allowed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, b string) {
		if b != lower && b != higher {
			t.Errorf("%s: better = %q", n, b)
		}
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range doc.Workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		checkName(m.Name)
		direction(m.Name, m.Better)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == lower
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range doc.PerLayer {
		checkName(m.Name)
		direction(m.Name, m.Better)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not allowed", m.Name, m.Unit)
		}
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 runs per workload, with set-up and two builds, in 3420 s.
	runs := 4 + 22*len(doc.Workloads)
	if perRun := 3420 / runs; perRun < doc.RunSeconds+6 {
		t.Errorf("%d runs leave %d s each: too little beside a %d s measured phase", runs, perRun, doc.RunSeconds)
	}
	if len(manifest()) > 64<<10 {
		t.Errorf("manifest is %d bytes", len(manifest()))
	}
}
