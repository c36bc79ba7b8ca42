package interp_test

import (
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/interp"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// TestSimulatedTimeIgnoresCompaction: when a session drops finished
// contexts from its scan list is host bookkeeping, so simulated time,
// context switches and output must not depend on it. The kmeans
// baseline at 16 threads spawns enough short-lived threads to compact
// mid-run; so does a many-to-one RCCE run of 128 UEs on 48 cores whose
// ranks finish one after another.
func TestSimulatedTimeIgnoresCompaction(t *testing.T) {
	base, err := interp.Compile("kmeans.c", bench.KMeans().Source(16, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := interp.Compile("ranks.c", `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    int i; int x = 0;
    for (i = 0; i < 50 * (RCCE_ue() + 1); i++) x += i;
    printf("%d %d\n", RCCE_ue(), x);
    RCCE_finalize();
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		makespan sccsim.Time
		switches uint64
		output   string
	}
	runBoth := func() (b, r run) {
		bres, err := pthreadrt.Run(base, sccsim.MustNew(sccsim.DefaultConfig()), pthreadrt.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		opts := rcce.DefaultOptions(128)
		opts.AllowOversubscribe = true
		rres, err := rcce.Run(ranks, sccsim.MustNew(sccsim.DefaultConfig()), opts)
		if err != nil {
			t.Fatal(err)
		}
		return run{bres.Makespan, bres.Switches, bres.Output}, run{rres.Makespan, 0, rres.Output}
	}
	withB, withR := runBoth()
	restore := interp.DisableCompaction()
	defer restore()
	withoutB, withoutR := runBoth()
	if withB != withoutB {
		t.Errorf("kmeans baseline: makespan %d, %d switches with compaction; %d, %d without (outputs equal: %t)",
			withB.makespan, withB.switches, withoutB.makespan, withoutB.switches, withB.output == withoutB.output)
	}
	if withR != withoutR {
		t.Errorf("many-to-one RCCE: makespan %d with compaction, %d without (outputs equal: %t)",
			withR.makespan, withoutR.makespan, withR.output == withoutR.output)
	}
}

// timeShared returns a session on m whose policy is a TimeShare with
// the baseline's quantum and switch cost, and the program's main.
func timeShared(t *testing.T, m *sccsim.Machine, flushL1 bool) (*interp.Sim, *interp.TimeShare, func(core int) *interp.Proc) {
	t.Helper()
	pr, err := interp.Compile("spin.c", `int main() { int i; int x = 0; for (i = 0; i < 100; i++) x += i; return x; }`)
	if err != nil {
		t.Fatal(err)
	}
	sim := interp.NewSim(m, pr)
	t.Cleanup(sim.Release)
	ts := new(interp.TimeShare)
	ts.Reset(10_000, 1_500, flushL1)
	sim.Policy = ts
	spawn := func(core int) *interp.Proc {
		p, err := sim.Spawn(core, pr.Funcs["main"], nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return sim, ts, spawn
}

// TestTimeShareAllocatesNothing: a scheduling decision over 32
// contexts on 16 cores, each one a change of occupant, allocates
// nothing. (Past 8 cores a per-decision map of one candidate per core
// no longer fits on the stack.)
func TestTimeShareAllocatesNothing(t *testing.T) {
	cfg := sccsim.DefaultConfig()
	cfg.Cores = 16
	m := sccsim.MustNew(cfg)
	sim, ts, spawn := timeShared(t, m, true)
	for i := 0; i < 32; i++ {
		spawn(i % 16)
	}
	var switches uint64
	allocs := testing.AllocsPerRun(100, func() {
		p := ts.Next(sim.Procs())
		// Spend the quantum, so the next decision on p's core rotates.
		p.Clock += 10_000 * m.CorePeriodOf(p.Core)
		switches = ts.Switches()
	})
	if allocs != 0 {
		t.Errorf("Next allocates %.1f times per call, want 0", allocs)
	}
	if switches < 100 {
		t.Errorf("%d switches in 101 decisions that each spent a quantum, want one per decision", switches)
	}
}

// TestTimeShareQuantumFollowsCorePeriod: a quantum is counted in the
// occupant's core cycles at its current period, so a core slowed by
// DVFS keeps its occupant for longer in simulated time.
func TestTimeShareQuantumFollowsCorePeriod(t *testing.T) {
	m := sccsim.MustNew(sccsim.DefaultConfig())
	slow := sccsim.VoltageDomainCores // the first core of domain 1
	if err := m.SetDomainMHz(m.DomainOf(slow), sccsim.MinMHz); err != nil {
		t.Fatal(err)
	}
	fast, slowQ := 10_000*m.CorePeriodOf(0), 10_000*m.CorePeriodOf(slow)
	if fast >= slowQ {
		t.Fatalf("core %d's quantum (%d ps) is not longer than core 0's (%d ps)", slow, slowQ, fast)
	}
	sim, ts, spawn := timeShared(t, m, false)
	a, b := spawn(slow), spawn(slow)
	if p := ts.Next(sim.Procs()); p != a {
		t.Fatalf("first decision elected context %d, want %d", p.ID, a.ID)
	}
	start := a.Clock
	a.Clock = start + fast // a quantum at core 0's period, not at core 8's
	if p := ts.Next(sim.Procs()); p != a {
		t.Fatalf("after %d ps the occupant lost its core; its quantum is %d ps", fast, slowQ)
	}
	a.Clock = start + slowQ
	if p := ts.Next(sim.Procs()); p != b {
		t.Fatalf("after a full quantum context %d was elected, want %d", p.ID, b.ID)
	}
}
