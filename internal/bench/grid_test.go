package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// testGrid is a fixed sub-grid small enough to run many times per test
// yet wide enough to cover every axis (two workloads, two core counts,
// two policies, a duplicate budget pair).
func testGrid() Grid {
	return Grid{
		Name:      "test",
		Workloads: []string{"pi", "stream"},
		Cores:     []int{2, 4},
		Policies:  []string{"offchip", "size"},
		Scale:     0.05,
	}
}

// TestGridDeterminism is the harness's core claim: a parallel run
// produces byte-identical JSON to a sequential run of the same grid.
func TestGridDeterminism(t *testing.T) {
	g := testGrid()
	seq, err := RunGrid(g, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err := RunGrid(g, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	sj, err := seq.JSON()
	if err != nil {
		t.Fatal(err)
	}
	pj, err := par.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, pj) {
		t.Errorf("parallel JSON differs from sequential JSON\n--- sequential ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
}

// TestGridResults checks the physics of the sub-grid: every cell
// matches, speedups beat 1x, and cell ordering follows the enumeration.
func TestGridResults(t *testing.T) {
	rep, err := RunGrid(testGrid(), RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 8 {
		t.Fatalf("results = %d, want 8", len(rep.Results))
	}
	for i, r := range rep.Results {
		if r.Error != "" {
			t.Errorf("cell %d: %s", r.Index, r.Error)
			continue
		}
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if !r.Match {
			t.Errorf("cell %d (%s/%d/%s): baseline and RCCE outputs differ", r.Index, r.Workload, r.Cores, r.Policy)
		}
		if r.Speedup <= 0 {
			t.Errorf("cell %d (%s/%d/%s): no speedup recorded", r.Index, r.Workload, r.Cores, r.Policy)
		}
		// Compute-bound Pi must beat the time-shared baseline even at
		// test scale; memory-bound Stream need not at 2 cores.
		if r.Workload == "pi" && r.Speedup <= 1 {
			t.Errorf("cell %d (pi/%d/%s): speedup %.2f <= 1", r.Index, r.Cores, r.Policy, r.Speedup)
		}
		if r.Policy == "offchip" && r.OnChipBytes != 0 {
			t.Errorf("cell %d: offchip policy placed %d bytes on-chip", r.Index, r.OnChipBytes)
		}
	}
	// Stream under the size policy must place its arrays on-chip.
	var streamOn *CellResult
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Workload == "stream" && r.Policy == "size" && streamOn == nil {
			streamOn = r
		}
	}
	if streamOn == nil || streamOn.OnChipBytes == 0 {
		t.Error("stream/size cell placed nothing on-chip")
	}
}

// TestGridSharding: shards partition the grid exactly — disjoint,
// exhaustive, and each cell's result equals the unsharded run's.
func TestGridSharding(t *testing.T) {
	g := testGrid()
	full, err := RunGrid(g, RunOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var parts []*Report
	seen := make(map[int]int)
	for i := 0; i < n; i++ {
		p, err := RunGrid(g, RunOptions{Parallel: 2, ShardIndex: i, ShardCount: n})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		if p.Shard == "" {
			t.Errorf("shard %d/%d: report not labelled", i, n)
		}
		for _, r := range p.Results {
			seen[r.Index]++
		}
		parts = append(parts, p)
	}
	for _, c := range g.Cells() {
		if seen[c.Index] != 1 {
			t.Errorf("cell %d covered %d times across shards, want exactly once", c.Index, seen[c.Index])
		}
	}
	merged, err := MergeReports(parts...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	mj, _ := (&Report{Grid: merged.Grid, Results: merged.Results}).JSON()
	fj, _ := full.JSON()
	if !bytes.Equal(mj, fj) {
		t.Errorf("merged shard reports differ from the unsharded run\n--- merged ---\n%s\n--- full ---\n%s", mj, fj)
	}
}

// TestGridCaching: cells that normalise to the same semantic work (the
// implicit budget 0 vs the explicit full MPB) share one simulation, and
// the later-indexed cell is flagged Cached with identical numbers.
func TestGridCaching(t *testing.T) {
	g := testGrid()
	g.Workloads = []string{"pi"}
	g.Cores = []int{2}
	g.Policies = []string{"size"}
	g.MPBBudgets = []int{0, DefaultConfig().Machine().Config().MPBTotal()}
	rep, err := RunGrid(g, RunOptions{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(rep.Results))
	}
	a, b := rep.Results[0], rep.Results[1]
	if a.Cached {
		t.Error("first cell should be computed, not cached")
	}
	if !b.Cached {
		t.Error("duplicate cell should be flagged cached")
	}
	if a.RCCEPs != b.RCCEPs || a.BaselinePs != b.BaselinePs {
		t.Errorf("cached cell diverged: %d/%d vs %d/%d", a.BaselinePs, a.RCCEPs, b.BaselinePs, b.RCCEPs)
	}
}

// TestGridValidate: bad specs fail fast, before any simulation.
func TestGridValidate(t *testing.T) {
	g := testGrid()
	g.Workloads = []string{"nope"}
	if _, err := RunGrid(g, RunOptions{}); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown workload not rejected: %v", err)
	}
	g = testGrid()
	g.Policies = []string{"bogus"}
	if _, err := RunGrid(g, RunOptions{}); err == nil {
		t.Error("unknown policy not rejected")
	}
	g = testGrid()
	if _, err := RunGrid(g, RunOptions{ShardIndex: 5, ShardCount: 3}); err == nil {
		t.Error("out-of-range shard not rejected")
	}
	g = testGrid()
	g.MPBBudgets = []int{-100}
	if _, err := RunGrid(g, RunOptions{}); err == nil {
		t.Error("negative MPB budget not rejected")
	}
	// A budget the machine does not have used to validate and then fail
	// per cell, mid-simulation, in the RCCE allocator.
	g = testGrid()
	g.MPBBudgets = []int{0, 99999999}
	if _, err := RunGrid(g, RunOptions{}); err == nil || !strings.Contains(err.Error(), "393216-byte MPB of machine scc48") {
		t.Errorf("MPB budget beyond the machine's MPB not rejected with the machine named: %v", err)
	}
	g.Machine = "mesh1024"
	g.MPBBudgets = []int{1 << 20}
	if err := g.Validate(); err != nil {
		t.Errorf("a budget that fits mesh1024's 2 MiB MPB was rejected: %v", err)
	}
}

// TestMergeReportsGuards: merging mismatched specs or an incomplete
// shard set fails loudly instead of yielding a misleading report.
func TestMergeReportsGuards(t *testing.T) {
	g := testGrid()
	g.Workloads = []string{"pi"}
	g.Cores = []int{2}
	shard0, err := RunGrid(g, RunOptions{ShardIndex: 0, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeReports(shard0); err == nil {
		t.Error("incomplete shard set (0/2 only) merged without error")
	}
	other := *shard0
	other.Grid.Scale = 0.5
	if _, err := MergeReports(shard0, &other); err == nil {
		t.Error("reports with different grid specs merged without error")
	}
}

// TestGridJSONRoundTrip: the emitted document is valid JSON that decodes
// back to the same report.
func TestGridJSONRoundTrip(t *testing.T) {
	g := testGrid()
	g.Workloads = []string{"pi"}
	g.Cores = []int{2}
	rep, err := RunGrid(g, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Filename() != "BENCH_test.json" {
		t.Errorf("filename = %q", rep.Filename())
	}
	buf, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatalf("emitted JSON does not decode: %v", err)
	}
	if len(back.Results) != len(rep.Results) || back.Grid.Name != rep.Grid.Name {
		t.Error("round trip lost data")
	}
	if back.Results[0].RCCEPs == 0 {
		t.Error("round trip lost the makespan")
	}
}

// TestDefaultGridCoversCorpus: the paper grid sweeps every workload in
// the corpus under both Stage 4 placements.
func TestDefaultGridCoversCorpus(t *testing.T) {
	g := DefaultGrid()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) < 10 {
		t.Errorf("default grid has %d workloads, want the full corpus (>= 10)", len(g.Workloads))
	}
	want := len(g.Workloads) * len(g.Cores) * len(g.Policies)
	if got := len(g.Cells()); got != want {
		t.Errorf("cells = %d, want %d", got, want)
	}
}

// TestGridProfiledPolicy sweeps the profiled policy through the grid
// runner: outputs still match the baseline, every profiled cell carries
// a placement digest, the profiled cells never trail the best static
// policy at the same budget, and a parallel run stays byte-identical to
// a sequential one (the profile pass is memoized, not racy).
func TestGridProfiledPolicy(t *testing.T) {
	g := Grid{
		Name:       "profiled-test",
		Workloads:  []string{"dot", "stream", "hist"},
		Cores:      []int{4},
		Policies:   []string{"offchip", "size", "freq", "profiled"},
		MPBBudgets: []int{2048, 16384},
		Scale:      0.05,
	}
	seq, err := RunGrid(g, RunOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunGrid(g, RunOptions{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := seq.JSON()
	pj, _ := par.JSON()
	if !bytes.Equal(sj, pj) {
		t.Errorf("profiled grid not deterministic across worker counts")
	}
	best := map[[2]interface{}]uint64{} // (workload, budget) -> best static ps
	for _, r := range seq.Results {
		if r.Error != "" {
			t.Fatalf("cell %d: %s", r.Index, r.Error)
		}
		if !r.Match {
			t.Errorf("cell %d (%s/%s): outputs diverged", r.Index, r.Workload, r.Policy)
		}
		k := [2]interface{}{r.Workload, r.MPBBudget}
		if r.Policy != "profiled" {
			if r.PlacementDigest != "" {
				t.Errorf("static cell %d carries placement digest %s", r.Index, r.PlacementDigest)
			}
			if best[k] == 0 || r.RCCEPs < best[k] {
				best[k] = r.RCCEPs
			}
		}
	}
	for _, r := range seq.Results {
		if r.Policy != "profiled" {
			continue
		}
		if r.PlacementDigest == "" {
			t.Errorf("profiled cell %d has no placement digest", r.Index)
		}
		k := [2]interface{}{r.Workload, r.MPBBudget}
		if r.RCCEPs > best[k] {
			t.Errorf("%s budget %d: profiled %d ps trails best static %d ps",
				r.Workload, r.MPBBudget, r.RCCEPs, best[k])
		}
	}
}
