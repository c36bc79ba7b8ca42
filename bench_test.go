package hsmcc

// One benchmark per table and figure of the paper's evaluation, plus one
// ablation per design choice called out in DESIGN.md §6. Each benchmark
// executes the full experiment (translate + simulate) and reports the
// scientifically relevant quantity (speedup or gain) as a custom metric,
// so `go test -bench=. -benchmem` regenerates the whole evaluation.
//
// Benchmarks run at a reduced problem scale and core count so the sweep
// completes in minutes; cmd/hsmbench reproduces the full-size numbers
// (recorded in EXPERIMENTS.md).

import (
	"os"
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/core"
	"hsmcc/internal/partition"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/synth"
)

// benchConfig is the reduced configuration used by the testing.B suite.
func benchConfig() bench.Config {
	cfg := bench.DefaultConfig()
	cfg.Threads = 16
	cfg.Scale = 0.15
	return cfg
}

func example41Source(b *testing.B) string {
	b.Helper()
	src, err := os.ReadFile("testdata/example41.c")
	if err != nil {
		b.Fatalf("read example41.c: %v", err)
	}
	return string(src)
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

// BenchmarkTable41 regenerates the per-variable analysis of Table 4.1.
func BenchmarkTable41(b *testing.B) {
	src := example41Source(b)
	for i := 0; i < b.N; i++ {
		p, err := core.Analyze("example41.c", src)
		if err != nil {
			b.Fatal(err)
		}
		if p.Table41() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable42 regenerates the sharing-status table of Table 4.2.
func BenchmarkTable42(b *testing.B) {
	src := example41Source(b)
	for i := 0; i < b.N; i++ {
		p, err := core.Analyze("example41.c", src)
		if err != nil {
			b.Fatal(err)
		}
		if p.Table42() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable61 renders the SCC configuration of Table 6.1.
func BenchmarkTable61(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if sccsim.DefaultConfig().Table61(32) == "" {
			b.Fatal("empty table")
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 6.1 — baseline vs off-chip RCCE, one bench per benchmark bar
// ---------------------------------------------------------------------------

func benchFig61(b *testing.B, key string) {
	cfg := benchConfig()
	w, ok := bench.ByKey(key)
	if !ok {
		b.Fatalf("no workload %s", key)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		base, err := bench.RunBaseline(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		conv, err := bench.RunRCCE(w, cfg, partition.PolicyOffChipOnly)
		if err != nil {
			b.Fatal(err)
		}
		if !bench.SameResults(base.Output, conv.Output) {
			b.Fatal("results diverge")
		}
		speedup = bench.Speedup(base, conv)
	}
	b.ReportMetric(speedup, "speedup")
}

func BenchmarkFig61_Pi(b *testing.B)     { benchFig61(b, "pi") }
func BenchmarkFig61_Sum35(b *testing.B)  { benchFig61(b, "sum35") }
func BenchmarkFig61_Primes(b *testing.B) { benchFig61(b, "primes") }
func BenchmarkFig61_LU(b *testing.B)     { benchFig61(b, "lu") }
func BenchmarkFig61_Dot(b *testing.B)    { benchFig61(b, "dot") }
func BenchmarkFig61_Stream(b *testing.B) { benchFig61(b, "stream") }

// The expanded corpus, measured under the same baseline-vs-off-chip
// protocol as the thesis benchmarks.
func BenchmarkCorpus_Histogram(b *testing.B) { benchFig61(b, "hist") }
func BenchmarkCorpus_KMeans(b *testing.B)    { benchFig61(b, "kmeans") }
func BenchmarkCorpus_MatMul(b *testing.B)    { benchFig61(b, "matmul") }
func BenchmarkCorpus_ProdCons(b *testing.B)  { benchFig61(b, "prodcons") }

// ---------------------------------------------------------------------------
// Figure 6.2 — off-chip vs MPB placement, one bench per benchmark pair
// ---------------------------------------------------------------------------

func benchFig62(b *testing.B, key string) {
	cfg := benchConfig()
	w, ok := bench.ByKey(key)
	if !ok {
		b.Fatalf("no workload %s", key)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		off, err := bench.RunRCCE(w, cfg, partition.PolicyOffChipOnly)
		if err != nil {
			b.Fatal(err)
		}
		on, err := bench.RunRCCE(w, cfg, partition.PolicySizeAscending)
		if err != nil {
			b.Fatal(err)
		}
		if !bench.SameResults(off.Output, on.Output) {
			b.Fatal("results diverge")
		}
		gain = float64(off.Makespan) / float64(on.Makespan)
	}
	b.ReportMetric(gain, "mpb-gain")
}

func BenchmarkFig62_Pi(b *testing.B)     { benchFig62(b, "pi") }
func BenchmarkFig62_Sum35(b *testing.B)  { benchFig62(b, "sum35") }
func BenchmarkFig62_Primes(b *testing.B) { benchFig62(b, "primes") }
func BenchmarkFig62_LU(b *testing.B)     { benchFig62(b, "lu") }
func BenchmarkFig62_Dot(b *testing.B)    { benchFig62(b, "dot") }
func BenchmarkFig62_Stream(b *testing.B) { benchFig62(b, "stream") }

// ---------------------------------------------------------------------------
// Figure 6.3 — Pi speedup vs core count
// ---------------------------------------------------------------------------

// BenchmarkFig63_Scaling sweeps Pi over core counts and reports the
// 16-core speedup as the headline metric.
func BenchmarkFig63_Scaling(b *testing.B) {
	cfg := benchConfig()
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig63(cfg, []int{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].Speedup
	}
	b.ReportMetric(last, "speedup-16core")
}

// ---------------------------------------------------------------------------
// Grid harness
// ---------------------------------------------------------------------------

// BenchmarkGrid_Parallel measures the parallel sweep itself: a fixed
// sub-grid run through the worker pool, reporting wall-clock per full
// sweep. Compare against -parallel 1 (BenchmarkGrid_Sequential) to see
// the harness-level speedup on the host machine.
func benchGrid(b *testing.B, workers int) {
	g := bench.Grid{
		Name:      "bench",
		Workloads: []string{"pi", "stream", "hist", "matmul"},
		Cores:     []int{4, 8},
		Policies:  []string{"offchip", "size"},
		Scale:     0.05,
	}
	for i := 0; i < b.N; i++ {
		rep, err := bench.RunGrid(g, bench.RunOptions{Parallel: workers})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Results {
			if r.Error != "" {
				b.Fatal(r.Error)
			}
		}
	}
}

func BenchmarkGrid_Sequential(b *testing.B) { benchGrid(b, 1) }
func BenchmarkGrid_Parallel(b *testing.B)   { benchGrid(b, 0) }

// ---------------------------------------------------------------------------
// Host cost surface
// ---------------------------------------------------------------------------

// BenchmarkHostCostSurface is ROADMAP item 3's unit of account as a
// regenerable number: the host wall time of one simulated access
// (ns/access: run time over Loads+Stores) on each runtime, over the four
// MemFrac×Sharing corners of internal/synth — the plane Graphite's
// synthetic benchmark characterises — plus pi and stream. Programs are
// compiled and translated outside the timed region, so a cell times
// nothing but the run. docs/PERFORMANCE.md keeps the table.
func BenchmarkHostCostSurface(b *testing.B) {
	cfg := benchConfig()
	cells := []bench.Workload{}
	for _, p := range synth.Corners() {
		cells = append(cells, bench.SynthWorkload(p))
	}
	for _, key := range []string{"pi", "stream"} {
		w, _ := bench.ByKey(key)
		cells = append(cells, w)
	}
	for _, w := range cells {
		pr, err := bench.CompileBaseline(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := bench.TranslateWorkload(w, cfg, partition.PolicySizeAscending)
		if err != nil {
			b.Fatal(err)
		}
		for _, rt := range []struct {
			name string
			run  func() (*bench.RunResult, error)
		}{
			{"pthread", func() (*bench.RunResult, error) { return bench.RunBaselineProgram(w, pr, cfg) }},
			{"rcce", func() (*bench.RunResult, error) {
				return bench.RunRCCEProgram(w, tr, cfg, partition.PolicySizeAscending)
			}},
		} {
			b.Run(w.Key+"/"+rt.name, func(b *testing.B) {
				var accesses uint64
				for i := 0; i < b.N; i++ {
					res, err := rt.run()
					if err != nil {
						b.Fatal(err)
					}
					accesses += res.Stats.Loads + res.Stats.Stores
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6)
// ---------------------------------------------------------------------------

// BenchmarkAblation_SharedCacheable compares the real SCC (uncacheable
// shared pages) against a hypothetical coherent machine that caches them:
// the gap is the price of software-managed shared memory, and the reason
// Stage 4 matters.
func BenchmarkAblation_SharedCacheable(b *testing.B) {
	w, _ := bench.ByKey("stream")
	real := benchConfig()
	hypo := benchConfig()
	hypo.Machine = func() *sccsim.Machine {
		c := sccsim.DefaultConfig()
		c.SharedCacheable = true
		return sccsim.MustNew(c)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		u, err := bench.RunRCCE(w, real, partition.PolicyOffChipOnly)
		if err != nil {
			b.Fatal(err)
		}
		c, err := bench.RunRCCE(w, hypo, partition.PolicyOffChipOnly)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(u.Makespan) / float64(c.Makespan)
	}
	b.ReportMetric(ratio, "uncached-penalty")
}

// BenchmarkAblation_MemControllers varies the number of memory
// controllers serving uncached shared traffic (1 vs the SCC's 4 vs 8).
func BenchmarkAblation_MemControllers(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		n := n
		b.Run(map[int]string{1: "1MC", 4: "4MC", 8: "8MC"}[n], func(b *testing.B) {
			w, _ := bench.ByKey("stream")
			cfg := benchConfig()
			cfg.Machine = func() *sccsim.Machine {
				c := sccsim.DefaultConfig()
				c.MemControllers = n
				return sccsim.MustNew(c)
			}
			var secs float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunRCCE(w, cfg, partition.PolicyOffChipOnly)
				if err != nil {
					b.Fatal(err)
				}
				secs = r.Seconds()
			}
			b.ReportMetric(secs*1e3, "sim-ms")
		})
	}
}

// BenchmarkAblation_MPBPlacement compares block-distributed on-chip
// arrays (each rank's slice in its own MPB section) against clumping
// everything into rank 0's section (remote hops for everyone else).
func BenchmarkAblation_MPBPlacement(b *testing.B) {
	w, _ := bench.ByKey("stream")
	striped := benchConfig()
	clumped := benchConfig()
	clumped.RCCE.StripeMPB = false
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := bench.RunRCCE(w, striped, partition.PolicySizeAscending)
		if err != nil {
			b.Fatal(err)
		}
		c, err := bench.RunRCCE(w, clumped, partition.PolicySizeAscending)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(c.Makespan) / float64(s.Makespan)
	}
	b.ReportMetric(ratio, "striping-gain")
}

// BenchmarkAblation_PartitionPolicy compares Algorithm 3's size-ascending
// greedy against frequency-density placement under MPB pressure (a budget
// too small for everything).
func BenchmarkAblation_PartitionPolicy(b *testing.B) {
	w, _ := bench.ByKey("dot")
	cfg := benchConfig()
	cfg.MPBCapacity = 24 * 1024 // force hard choices
	var ratio float64
	for i := 0; i < b.N; i++ {
		size, err := bench.RunRCCE(w, cfg, partition.PolicySizeAscending)
		if err != nil {
			b.Fatal(err)
		}
		freq, err := bench.RunRCCE(w, cfg, partition.PolicyFrequencyDensity)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(size.Makespan) / float64(freq.Makespan)
	}
	b.ReportMetric(ratio, "size-vs-freq")
}

// BenchmarkAblation_Quantum varies the baseline scheduler quantum: the
// smaller the timeslice, the more context-switch overhead the 16-thread
// single-core baseline pays.
func BenchmarkAblation_Quantum(b *testing.B) {
	for _, q := range []int{1_000, 10_000, 100_000} {
		q := q
		b.Run(map[int]string{1_000: "1k", 10_000: "10k", 100_000: "100k"}[q], func(b *testing.B) {
			w, _ := bench.ByKey("pi")
			cfg := benchConfig()
			cfg.Baseline = pthreadrt.DefaultOptions()
			cfg.Baseline.QuantumCycles = q
			var secs float64
			for i := 0; i < b.N; i++ {
				r, err := bench.RunBaseline(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				secs = r.Seconds()
			}
			b.ReportMetric(secs*1e3, "sim-ms")
		})
	}
}
