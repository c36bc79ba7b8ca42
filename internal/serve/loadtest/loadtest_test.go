package loadtest

import (
	"runtime"
	"testing"

	"hsmcc/internal/serve/chaos"
)

// TestChaosRun is the fault-injection harness in CI-sized form: a
// seeded mixed scenario against a server with an active injector and a
// small slot bound. The gates are the tentpole's: zero divergences
// among successful responses, in-flight never above the slot bound, no
// goroutine leak, and the drain check completes.
func TestChaosRun(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 50
	}
	plan := chaos.DefaultPlan(11)
	rep, err := Run(Options{Seed: 11, Requests: n, Concurrency: 16, Chaos: &plan})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Chaos == nil {
		t.Fatal("chaos run produced no chaos report")
	}
	if rep.Chaos.Faults.Injected() == 0 {
		t.Fatal("injector fired no faults — the chaos plan is not wired through")
	}
	if rep.StatusCounts[200] == 0 {
		t.Fatal("no request succeeded under chaos")
	}
}

// TestMixedLoadZeroDivergence is the core acceptance check in CI-sized
// form: a seeded mixed scenario (hot simulates, fresh compiles, synth
// sweeps, grids, batches, doomed and hostile requests) run concurrently
// against a live daemon, every deterministic response compared
// byte-for-byte with direct in-process bench runs.
func TestMixedLoadZeroDivergence(t *testing.T) {
	n := 160
	if testing.Short() {
		n = 60
	}
	rep, err := Run(Options{Seed: 1, Requests: n, Concurrency: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.StatusCounts[200] == 0 {
		t.Fatal("no request succeeded — the scenario is not exercising the daemon")
	}
}

// TestCacheHotHitRate checks the acceptance bound: a cache-hot scenario
// (a small pool of repeated requests) must see >50% cache hits.
func TestCacheHotHitRate(t *testing.T) {
	rep, err := Run(Options{Seed: 2, Requests: 80, Concurrency: 8, HotOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.String())
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.CacheHitRate <= 0.5 {
		t.Fatalf("cache-hot hit rate %.2f, want > 0.5 (stats: %+v)", rep.CacheHitRate, rep.Cache)
	}
}

// TestGenerateDeterministic pins the scenario generator: same seed,
// same plan, byte for byte — the property that makes load-test failures
// reproducible from the seed alone.
func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Options{Seed: 7, Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Options{Seed: 7, Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.Kind != rb.Kind || ra.Path != rb.Path || string(ra.Body) != string(rb.Body) {
			t.Fatalf("request %d differs:\n%s %s %s\n%s %s %s",
				i, ra.Kind, ra.Path, ra.Body, rb.Kind, rb.Path, rb.Body)
		}
	}
	c, err := Generate(Options{Seed: 8, Requests: 50})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Requests {
		if string(a.Requests[i].Body) != string(c.Requests[i].Body) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 generated identical plans — the seed is not wired through")
	}
}

// TestScalingThroughput is the GOMAXPROCS study: throughput at 4 procs
// must beat 1 proc. Each rung is the best of three runs — the standard
// estimator for "can it go this fast": `go test ./...` runs other
// packages beside this one, and a single wall-clock run per rung lost
// to a busy neighbour about one time in five. Skipped in -short runs
// (it runs the scenario nine times).
func TestScalingThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling study runs the scenario at three GOMAXPROCS settings, three times each")
	}
	procs := ScalingProcs()
	if len(procs) < 2 {
		t.Skipf("scaling needs >=2 CPUs, have %d — GOMAXPROCS beyond the core count adds no parallelism", runtime.NumCPU())
	}
	var best []ScalingPoint
	for run := 0; run < 3; run++ {
		points, err := RunScaling(Options{Seed: 3, Requests: 120, Concurrency: 16}, procs)
		if err != nil {
			t.Fatal(err)
		}
		if best == nil {
			best = points
		}
		for i, p := range points {
			t.Logf("run %d, GOMAXPROCS %d: %.1f req/s (%d ms)", run, p.Procs, p.Throughput, p.DurationMs)
			if p.Throughput > best[i].Throughput {
				best[i] = p
			}
		}
	}
	if err := CheckScaling(best); err != nil {
		t.Fatal(err)
	}
}
