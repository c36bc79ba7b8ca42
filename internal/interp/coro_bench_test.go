package interp

import (
	"fmt"
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

// BenchmarkPickNext measures one scheduling election at 1024 runnable
// contexts: the MinClockHeap pop/push pair that every context switch of
// a mesh1024-scale simulation pays.
func BenchmarkPickNext(b *testing.B) {
	for _, n := range []int{48, 1024} {
		b.Run(fmt.Sprintf("contexts=%d", n), func(b *testing.B) {
			pol := NewMinClockHeap()
			procs := make([]*Proc, n)
			for i := range procs {
				procs[i] = &Proc{ID: i, State: Runnable, Clock: sccsim.Time(i * 977)}
				pol.NoteRunnable(procs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pol.Next(procs)
				if p == nil {
					b.Fatal("no runnable context")
				}
				// Advance the elected context and requeue it, as a yield does.
				p.Clock += 104729
				pol.NoteRunnable(p)
			}
		})
	}
}
