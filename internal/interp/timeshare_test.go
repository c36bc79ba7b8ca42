package interp_test

import (
	"reflect"
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/interp"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// schedEvent is one scheduling event as a TraceSink saw it.
type schedEvent struct {
	kind      byte
	ctx, core int
	at        sccsim.Time
	a, b      int
}

// eventLog records a session's whole scheduling event stream, from
// which every context's clock at every switch can be read.
type eventLog struct{ ev []schedEvent }

func (l *eventLog) add(kind byte, ctx, core int, at sccsim.Time, a, b int) {
	l.ev = append(l.ev, schedEvent{kind, ctx, core, at, a, b})
}

func (l *eventLog) TraceSpawn(ctx, core int, at sccsim.Time)  { l.add('s', ctx, core, at, 0, 0) }
func (l *eventLog) TraceResume(ctx, core int, at sccsim.Time) { l.add('r', ctx, core, at, 0, 0) }
func (l *eventLog) TraceSuspend(ctx, core int, at sccsim.Time, k interp.SuspendKind, r interp.BlockReason) {
	l.add('p', ctx, core, at, int(k), int(r))
}
func (l *eventLog) TraceUnblock(ctx, core int, at sccsim.Time) { l.add('u', ctx, core, at, 0, 0) }
func (l *eventLog) TraceSpin(ctx, core int, at sccsim.Time, backoff int) {
	l.add('t', ctx, core, at, backoff, 0)
}

// schedRun is what a session reports: its makespan, switches, output
// and scheduling event stream.
type schedRun struct {
	makespan sccsim.Time
	switches uint64
	output   string
	events   []schedEvent
}

// TestSchedulerParityHeapVsLinearCoroutine runs whole sessions under the
// indexed scheduler and under its linear oracle (interp.ElectLinear),
// and requires the same makespan, switches, output and scheduling event
// stream, so every context's clock at every switch. The inputs:
//   - four contexts on four cores interleaving through yields, which
//     must also match MinClock (interp.ElectMinClock);
//   - the kmeans baseline at 16 threads, which spawns and joins threads
//     on one core;
//   - 128 UEs many-to-one on 48 cores whose ranks finish one after
//     another;
//   - 96 UEs many-to-one on 48 cores while UE 0 changes its domain's
//     clock again and again, which moves the quantum boundary of the
//     other seven cores' occupants mid-quantum.
func TestSchedulerParityHeapVsLinearCoroutine(t *testing.T) {
	parity, err := interp.Compile("p.c", `
int a[64];
int worker(int me) {
  int i; int s;
  s = 0;
  for (i = 0; i < 6000; i++) { a[(i + me) % 64] = a[(i + me) % 64] + me; s = s + a[(i + me) % 64]; }
  printf("w%d %d\n", me, s);
  return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	kmeans, err := interp.Compile("kmeans.c", bench.KMeans().Source(16, 0.1))
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
	dvfs, err := interp.Compile("dvfs.c", `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    int i; int x = 0;
    for (i = 0; i < 3000; i++) {
        x += i * RCCE_ue();
        if (RCCE_ue() == 0 && i % 200 == 100) RCCE_set_frequency(i % 400 == 100 ? 800 : 200);
    }
    printf("%d %d\n", RCCE_ue(), x);
    RCCE_finalize();
    return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	manyToOne := func(pr *interp.Program, ues int) func(*eventLog) schedRun {
		return func(log *eventLog) schedRun {
			opts := rcce.DefaultOptions(ues)
			opts.AllowOversubscribe = true
			opts.Trace = log
			res, err := rcce.Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts)
			if err != nil {
				t.Fatal(err)
			}
			return schedRun{makespan: res.Makespan, output: res.Output}
		}
	}
	inputs := []struct {
		name     string
		minClock bool
		run      func(*eventLog) schedRun
	}{
		{"four workers", true, func(log *eventLog) schedRun {
			sim := interp.NewSim(sccsim.MustNew(sccsim.DefaultConfig()), parity)
			defer sim.Release()
			sim.Observe(interp.Observers{Trace: log})
			for core := 0; core < 4; core++ {
				if _, err := sim.Spawn(core, parity.Funcs["worker"], []interp.Value{interp.IntValue(nil, int64(core))}, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			return schedRun{sim.Makespan(), sim.Switches(), sim.Output(), nil}
		}},
		{"kmeans baseline", false, func(log *eventLog) schedRun {
			opts := pthreadrt.DefaultOptions()
			opts.Trace = log
			res, err := pthreadrt.Run(kmeans, sccsim.MustNew(sccsim.DefaultConfig()), opts)
			if err != nil {
				t.Fatal(err)
			}
			return schedRun{makespan: res.Makespan, switches: res.Switches, output: res.Output}
		}},
		{"128 UEs on 48 cores", false, manyToOne(ranks, 128)},
		{"96 UEs on 48 cores changing frequency", false, manyToOne(dvfs, 96)},
	}
	run := func(f func(*eventLog) schedRun, elect func() func()) schedRun {
		if elect != nil {
			defer elect()()
		}
		log := &eventLog{}
		r := f(log)
		r.events = log.ev
		return r
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			indexed := run(in.run, nil)
			oracles := map[string]func() func(){"linear": interp.ElectLinear}
			if in.minClock {
				oracles["MinClock"] = interp.ElectMinClock
			}
			for name, elect := range oracles {
				ref := run(in.run, elect)
				if name == "MinClock" {
					ref.switches = indexed.switches // MinClock counts none
				}
				if indexed.makespan != ref.makespan || indexed.switches != ref.switches || indexed.output != ref.output {
					t.Errorf("indexed: makespan %d, %d switches; %s: %d, %d (outputs equal: %t)",
						indexed.makespan, indexed.switches, name, ref.makespan, ref.switches, indexed.output == ref.output)
				}
				if !reflect.DeepEqual(indexed.events, ref.events) {
					t.Errorf("indexed and %s scheduling event streams differ (%d vs %d events)", name, len(indexed.events), len(ref.events))
				}
			}
		})
	}
}

// timeShared returns a session on m that time-shares its cores with the
// baseline's quantum and switch cost, and a spawner of the program's
// main.
func timeShared(t *testing.T, m *sccsim.Machine, flushL1 bool) (*interp.Sim, func(core int) *interp.Proc) {
	t.Helper()
	pr, err := interp.Compile("spin.c", `int main() { int i; int x = 0; for (i = 0; i < 100; i++) x += i; return x; }`)
	if err != nil {
		t.Fatal(err)
	}
	sim := interp.NewSim(m, pr)
	t.Cleanup(sim.Release)
	sim.TimeShare(10_000, 1_500, flushL1)
	spawn := func(core int) *interp.Proc {
		p, err := sim.Spawn(core, pr.Funcs["main"], nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return sim, spawn
}

// TestTimeShareAllocatesNothing: a scheduling decision over 32
// contexts on 16 cores, each one a change of occupant, allocates
// nothing: the per-core lists, the heap and the refresh list keep their
// capacity.
func TestTimeShareAllocatesNothing(t *testing.T) {
	cfg := sccsim.DefaultConfig()
	cfg.Cores = 16
	m := sccsim.MustNew(cfg)
	sim, spawn := timeShared(t, m, true)
	for i := 0; i < 32; i++ {
		spawn(i % 16)
	}
	var switches uint64
	allocs := testing.AllocsPerRun(100, func() {
		p := sim.Elect()
		// Spend the quantum, so the next decision on p's core rotates.
		p.Clock += 10_000 * m.CorePeriodOf(p.Core)
		switches = sim.Switches()
	})
	if allocs != 0 {
		t.Errorf("a decision allocates %.1f times, want 0", allocs)
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
	sim, spawn := timeShared(t, m, false)
	a, b := spawn(slow), spawn(slow)
	if p := sim.Elect(); p != a {
		t.Fatalf("first decision elected context %d, want %d", p.ID, a.ID)
	}
	start := a.Clock
	a.Clock = start + fast // a quantum at core 0's period, not at core 8's
	if p := sim.Elect(); p != a {
		t.Fatalf("after %d ps the occupant lost its core; its quantum is %d ps", fast, slowQ)
	}
	a.Clock = start + slowQ
	if p := sim.Elect(); p != b {
		t.Fatalf("after a full quantum context %d was elected, want %d", p.ID, b.ID)
	}
}
