package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testManifest = `{"end_to_end":[
 {"name":"ops_per_s","unit":"op/s","better":"higher","bound":0.25},
 {"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.25},
 {"name":"alloc_kb_per_op","unit":"KiB","better":"lower","bound":0.05}]}`

// runOutput is what `benchmark/run.sh --workload` prints: a line of wall
// times, the digest, then the result object.
func runOutput(ops, p50, alloc float64, failed int) string {
	return fmt.Sprintf("sim_wide seed 1 untraced set-up 0.9s\nsim_digest abc\n"+
		`{"correct":%t,"attempted":100,"failed":%d,"metrics":{`+
		`"ops_per_s":{"value":%g,"unit":"op/s"},`+
		`"op_ms_p50":{"value":%g,"unit":"ms"},`+
		`"alloc_kb_per_op":{"value":%g,"unit":"KiB"}}}`+"\n",
		failed == 0, failed, ops, p50, alloc)
}

func TestEndToEndGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mf := write("BENCHMARK.json", testManifest)
	base := write("base.out", runOutput(20, 40, 1000, 0))
	cases := []struct {
		name, head string
		wantErr    string // substring; empty = pass
	}{
		{"faster", runOutput(30, 22, 200, 0), ""},
		{"within bounds", runOutput(16, 49, 1049, 0), ""},
		{"throughput past bound", runOutput(14, 40, 1000, 0), "ops_per_s worse by 30.0%"},
		{"latency past bound", runOutput(20, 51, 1000, 0), "op_ms_p50 worse by 27.5%"},
		{"tight alloc bound", runOutput(20, 40, 1060, 0), "alloc_kb_per_op worse by 6.0%"},
		{"more failures", runOutput(30, 22, 200, 3), "failed 3 of 100"},
		{"no result line", "sim_wide seed 1\n", "not a result object"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			head := write("head.out", c.head)
			err := runEndToEnd(mf, []string{base}, []string{head}, filepath.Join(dir, "delta.txt"))
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("want error containing %q, got %v", c.wantErr, err)
			}
		})
	}
}

// TestEndToEndMedians: with repeated runs each side is its per-metric
// median, so one outlying run on either side neither fails nor passes
// the gate alone, and the sides' operations add up.
func TestEndToEndMedians(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	mf := write("BENCHMARK.json", testManifest)
	base := []string{write("b1", runOutput(20, 40, 1000, 0)), write("b2", runOutput(9, 90, 1000, 0)), write("b3", runOutput(21, 41, 1000, 0))}
	cases := []struct {
		name    string
		head    [3]string
		wantErr string
	}{
		{"one slow head run", [3]string{runOutput(20, 40, 1000, 0), runOutput(10, 80, 1000, 0), runOutput(19, 42, 1000, 0)}, ""},
		{"two slow head runs", [3]string{runOutput(14, 60, 1000, 0), runOutput(10, 80, 1000, 0), runOutput(19, 42, 1000, 0)}, "ops_per_s worse by 30.0%"},
		{"one failing head run", [3]string{runOutput(20, 40, 1000, 0), runOutput(20, 40, 1000, 1), runOutput(20, 40, 1000, 0)}, "failed 1 of 300"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var head []string
			for i, h := range c.head {
				head = append(head, write(fmt.Sprintf("h%d", i), h))
			}
			err := runEndToEnd(mf, base, head, "")
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("want pass, got %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("want error containing %q, got %v", c.wantErr, err)
			}
		})
	}
}
