package bench

import (
	"strings"
	"testing"

	"hsmcc/internal/partition"
)

// TestFig61ShapesAtReducedScale: the experiment function preserves the
// paper's qualitative ordering even at test sizes — compute-bound
// benchmarks beat memory-bound ones, and every result matches.
func TestFig61Shapes(t *testing.T) {
	cfg := quickConfig()
	cfg.Scale = 0.25
	rows, err := Fig61(cfg)
	if err != nil {
		t.Fatalf("Fig61: %v", err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byName := map[string]Fig61Row{}
	for _, r := range rows {
		if !r.ResultsOK {
			t.Errorf("%s: baseline and RCCE outputs differ", r.Workload)
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %.2f <= 1", r.Workload, r.Speedup)
		}
		byName[r.Workload] = r
	}
	// The paper's headline ordering: Pi (compute-bound, balanced) beats
	// Stream (memory-bound) by a wide margin.
	if byName["Pi Approximation"].Speedup < 2*byName["Stream"].Speedup {
		t.Errorf("Pi (%.1fx) should dominate Stream (%.1fx)",
			byName["Pi Approximation"].Speedup, byName["Stream"].Speedup)
	}
	out := FormatFig61(rows)
	for _, w := range []string{"Pi Approximation", "Speedup", "32x"} {
		if !strings.Contains(out, w) {
			t.Errorf("FormatFig61 missing %q", w)
		}
	}
}

// TestFig62Shapes: Stream gains the most from the MPB; LU gains nothing
// (its matrix exceeds the MPB even at reduced scale? no — so we check
// that gains are >= ~1 and Stream leads).
func TestFig62Shapes(t *testing.T) {
	cfg := quickConfig()
	cfg.Scale = 0.25
	rows, err := Fig62(cfg)
	if err != nil {
		t.Fatalf("Fig62: %v", err)
	}
	var stream, pi Fig62Row
	for _, r := range rows {
		if !r.ResultsOK {
			t.Errorf("%s: off-chip and on-chip outputs differ", r.Workload)
		}
		if r.Gain < 0.95 {
			t.Errorf("%s: MPB placement made it slower (%.2fx)", r.Workload, r.Gain)
		}
		switch r.Workload {
		case "Stream":
			stream = r
		case "Pi Approximation":
			pi = r
		}
	}
	if stream.Gain <= pi.Gain {
		t.Errorf("Stream gain (%.2fx) should exceed Pi gain (%.2fx)", stream.Gain, pi.Gain)
	}
	if stream.OnChipB == 0 {
		t.Error("Stage 4 placed nothing on-chip for Stream")
	}
	if !strings.Contains(FormatFig62(rows), "MPB bytes") {
		t.Error("FormatFig62 missing header")
	}
}

// TestFig62ReportsPlacedBytes: under a small MPB budget, Fig62 reports
// the bytes the on-chip run placed, never more than the budget.
func TestFig62ReportsPlacedBytes(t *testing.T) {
	cfg := quickConfig()
	cfg.Threads = 4
	cfg.Scale = 0.05
	cfg.MPBCapacity = 512
	rows, err := Fig62(cfg)
	if err != nil {
		t.Fatalf("Fig62: %v", err)
	}
	for i, w := range Thesis() {
		on, err := RunRCCE(w, cfg, partition.PolicySizeAscending)
		if err != nil {
			t.Fatal(err)
		}
		if r := rows[i]; r.OnChipB != on.OnChipBytes || r.OnChipB > cfg.MPBCapacity {
			t.Errorf("%s: Fig62 reports %d on-chip bytes, the run placed %d under a %d-byte budget",
				r.Workload, r.OnChipB, on.OnChipBytes, cfg.MPBCapacity)
		}
	}
}

// TestFig63Monotone: speedup grows with core count.
func TestFig63Monotone(t *testing.T) {
	cfg := quickConfig()
	cfg.Scale = 0.25
	rows, err := Fig63(cfg, []int{1, 2, 8})
	if err != nil {
		t.Fatalf("Fig63: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if !(rows[0].Speedup < rows[1].Speedup && rows[1].Speedup < rows[2].Speedup) {
		t.Errorf("speedups not monotone: %.2f %.2f %.2f",
			rows[0].Speedup, rows[1].Speedup, rows[2].Speedup)
	}
	// 8 cores should land near 8x (within scheduling overhead slack).
	if rows[2].Speedup < 5 || rows[2].Speedup > 13 {
		t.Errorf("8-core speedup = %.2f, want ~8", rows[2].Speedup)
	}
	if !strings.Contains(FormatFig63(rows), "Cores") {
		t.Error("FormatFig63 missing header")
	}
}

// TestTable61Content matches the paper's platform numbers.
func TestTable61Content(t *testing.T) {
	out := Table61(DefaultConfig())
	for _, w := range []string{"800 MHz", "1600 MHz", "1066 MHz", "32 cores"} {
		if !strings.Contains(out, w) {
			t.Errorf("Table61 missing %q:\n%s", w, out)
		}
	}
}
