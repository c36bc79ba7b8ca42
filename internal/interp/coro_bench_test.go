package interp

import (
	"testing"

	"hsmcc/internal/sccsim"
)

// switchKernel is the switch-dense microbenchmark kernel: every context
// touches memory on each iteration through a two-deep call chain, so the
// cooperative cadence (YieldEvery plus the clock-skew horizon) forces a
// scheduler election every few statements and each suspension unwinds —
// and each resume re-descends — a realistic frame stack (main → for →
// block → call → for → block → assignment). The per-iteration compute is
// deliberately tiny: the benchmark measures the context-switch machinery,
// not the simulated memory system.
const switchKernel = `
int a[64];
int inner(int me, int lo, int n) {
  int i; int s;
  s = 0;
  for (i = lo; i < lo + n; i++) {
    a[(i + me) % 64] = a[(i + me) % 64] + me;
    s = s + a[(i + me) % 64];
  }
  return s;
}
int worker(int me) {
  int r; int s;
  s = 0;
  for (r = 0; r < 50; r++) {
    s = s + inner(me, r * 40, 40);
  }
  return s;
}`

// runSwitchKernel spawns one context per core and runs the session to
// completion.
func runSwitchKernel(b *testing.B, pr *Program, contexts int) *Sim {
	cfg := sccsim.DefaultConfig()
	sim := NewSim(sccsim.MustNew(cfg), pr)
	for c := 0; c < contexts; c++ {
		core := c % cfg.Cores
		if _, err := sim.Spawn(core, pr.Funcs["worker"], []Value{IntValue(nil, int64(c))}, 0); err != nil {
			b.Fatal(err)
		}
	}
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	return sim
}

// BenchmarkContextSwitch measures the coroutine resume hot path under
// scheduler pressure: 32 contexts interleaving at the memory-op yield
// cadence (docs/PERFORMANCE.md).
func BenchmarkContextSwitch(b *testing.B) {
	pr, err := Compile("switch.c", switchKernel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSwitchKernel(b, pr, 32)
	}
}

// BenchmarkContextSwitchDeep is the same kernel at 256 contexts
// oversubscribed across the default 48-core machine — the regime where
// per-switch cost dominates end-to-end time.
func BenchmarkContextSwitchDeep(b *testing.B) {
	pr, err := Compile("switch.c", switchKernel)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runSwitchKernel(b, pr, 256)
	}
}

// BenchmarkPickNext measures one decision of a session's scheduler, as
// every context switch pays it, at the one-to-one default (no quantum,
// so each decision refreshes the last elected context's core): one
// context per core at 48 and at 1024 contexts, the cross-core heap of a
// mesh1024-scale simulation, and 1024 contexts on 32 cores and on one
// core, where the per-core rotation scan adds its length.
func BenchmarkPickNext(b *testing.B) {
	pr, err := Compile("main.c", "int main() { return 0; }")
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range []struct {
		name            string
		contexts, cores int
	}{
		{"contexts=48", 48, 48},
		{"contexts=1024", 1024, 1024},
		{"contexts=1024,cores=32", 1024, 32},
		{"contexts=1024,cores=1", 1024, 1},
	} {
		b.Run(sh.name, func(b *testing.B) {
			sim := NewSim(sccsim.MustNew(sccsim.MustPreset("mesh1024")), pr)
			defer sim.Release()
			m := sim.Machine
			for i := 0; i < sh.contexts; i++ {
				core := i % sh.cores
				sim.sched.add(&Proc{Sim: sim, ID: i, Core: core, State: Runnable, Clock: sccsim.Time(i * 977),
					timer: m.Timer(core), mach: m})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := sim.sched.next()
				if p == nil {
					b.Fatal("no runnable context")
				}
				// Advance the elected context, as a yield does.
				p.Clock += 104729
			}
		})
	}
}
