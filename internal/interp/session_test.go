package interp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hsmcc/internal/cc/types"
	"hsmcc/internal/sccsim"
)

// sessionLoop's work prints only when n is over 100: formatting output
// allocates, and the allocation test runs it with less.
const sessionLoop = `
int g;
int work(int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i++) {
    s = s + i;
    g = g + 1;
  }
  if (n > 100) printf("%d\n", s);
  return s;
}`

// TestReleaseEmptiesSession: whatever state a run leaves behind —
// contexts cut off mid-loop by a cancellation, time-shared cores'
// scheduling state, stack slots, scratch in use, output — Release parks
// a session in which every context is zero and every table and buffer
// is empty, its capacity zeroed, so that NewSim starts from nothing but
// capacity.
func TestReleaseEmptiesSession(t *testing.T) {
	pr, err := Compile("loop.c", sessionLoop)
	if err != nil {
		t.Fatal(err)
	}
	m := sccsim.MustNew(sccsim.DefaultConfig())
	sim := NewSim(m, pr)
	sim.TimeShare(10_000, 1_500, true)
	polls := 0
	sim.Cancel = func() error {
		if polls++; polls > 200 {
			return errors.New("stop")
		}
		return nil
	}
	for i := 0; i < 6; i++ {
		args := []Value{IntValue(types.IntType, 10+int64(i)*1000)}
		if _, err := sim.Spawn(i%3, pr.Funcs["work"], args, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(); err == nil {
		t.Fatal("the run was not cancelled")
	}
	done := 0
	for _, p := range sim.Procs() {
		if p.State == Done {
			done++
		}
	}
	if done == 0 || done == len(sim.Procs()) || sim.Switches() == 0 {
		t.Fatalf("%d of %d contexts finished after %d switches; want some cut off", done, len(sim.Procs()), sim.Switches())
	}
	k := sim.session
	spawned := sim.spawned[:sim.nextID]
	sim.Release()

	if !reflect.ValueOf(*sim).IsZero() {
		t.Error("the released Sim is not zero")
	}
	for i, p := range spawned {
		if !reflect.ValueOf(*p).IsZero() {
			t.Errorf("context %d is not zero after Release", i)
		}
	}
	if len(k.spawned) != 6 {
		t.Errorf("the session parks %d contexts, want 6", len(k.spawned))
	}
	requireEmptyZero(t, "heaps", k.heaps)
	requireEmptyZero(t, "stacks", k.stacks)
	requireEmptyZero(t, "scheduler heap", k.sched.heap)
	requireEmptyZero(t, "scheduler refresh list", k.sched.dirty)
	if len(k.sched.cores) != 0 || cap(k.sched.cores) < 3 {
		t.Errorf("the scheduler parks %d cores of %d, want none of at least 3", len(k.sched.cores), cap(k.sched.cores))
	}
	for i, c := range k.sched.cores[:cap(k.sched.cores)] {
		requireEmptyZero(t, fmt.Sprintf("core %d's contexts", i), c.procs)
		if c.procs = nil; !reflect.ValueOf(c).IsZero() {
			t.Errorf("core %d's scheduling state is not zero", i)
		}
	}
	rest := k.sched
	rest.cores, rest.heap, rest.dirty = nil, nil, nil
	if !reflect.ValueOf(rest).IsZero() {
		t.Errorf("the parked scheduler keeps run state: %+v", rest)
	}
	if len(k.freeStacks) != 0 {
		t.Errorf("freeStacks has %d cores", len(k.freeStacks))
	}
	for i, fs := range k.freeStacks[:cap(k.freeStacks)] {
		if len(fs) != 0 {
			t.Errorf("core %d parks %d free stack slots", i, len(fs))
		}
	}
	if len(k.scratch) != 6 {
		t.Errorf("the session parks %d scratch bundles, want one per context", len(k.scratch))
	}
	for i, sc := range k.scratch {
		if len(sc.kstack)+len(sc.kvals)+len(sc.kxs)+len(sc.cframes)+len(sc.slotMem)+len(sc.argArena)+len(sc.args) != 0 {
			t.Errorf("scratch bundle %d is not empty", i)
		}
		requireEmptyZero(t, "kvals", sc.kvals)
		requireEmptyZero(t, "kxs", sc.kxs)
		requireEmptyZero(t, "args", sc.args)
	}
	if len(k.out) != 0 {
		t.Errorf("the output buffer holds %d bytes", len(k.out))
	}
	sim.Release() // a second Release does nothing
}

// requireEmptyZero checks that a parked table is empty and zero up to
// its capacity.
func requireEmptyZero[T any](t *testing.T, name string, buf []T) {
	t.Helper()
	if len(buf) != 0 {
		t.Errorf("%s holds %d entries", name, len(buf))
	}
	for i, v := range buf[:cap(buf)] {
		if !reflect.ValueOf(&v).Elem().IsZero() {
			t.Errorf("%s[%d] is not zero past the length", name, i)
			return
		}
	}
}

// TestSpawnRunFinishAllocatesNothing: on a released session, a context's
// whole life — Spawn, Run, finish — takes its Proc, stack slot, buffers
// and argument storage from what the session parked, and the session's
// NewSim/Release round trip allocates only the Sim itself.
func TestSpawnRunFinishAllocatesNothing(t *testing.T) {
	pr, err := Compile("loop.c", sessionLoop)
	if err != nil {
		t.Fatal(err)
	}
	m := sccsim.MustNew(sccsim.DefaultConfig())
	work := pr.Funcs["work"]
	var args [1]Value
	args[0] = IntValue(types.IntType, 50)
	cycle := func(sim *Sim) {
		if _, err := sim.Spawn(0, work, args[:], 0); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 100
	sim := NewSim(m, pr)
	for i := 0; i <= runs; i++ {
		cycle(sim)
	}
	sim.Release()

	sim = NewSim(m, pr) // the session just released
	if n := testing.AllocsPerRun(runs, func() { cycle(sim) }); n != 0 {
		t.Errorf("Spawn, Run and finish on a released session allocate %v times, want 0", n)
	}
	sim.Release()
	if n := testing.AllocsPerRun(runs, func() { NewSim(m, pr).Release() }); n != 1 {
		t.Errorf("NewSim and Release allocate %v times, want 1 (the Sim)", n)
	}
}

// printLoop's lines take printf's appending verbs: a string argument, a
// decimal, a fixed precision, the default precision, an unsigned and a
// literal percent sign.
const printLoop = `
double gd = 0.25;
int lines(int n) {
  int i;
  for (i = 0; i < n; i++) {
    printf("%s %d: %.2f %f %u%%\n", "row", i, gd * i, gd, i);
  }
  return n;
}`

// TestPrintfAllocatesNothing: printf reads its format and formats its
// text in the context's reused buffer, so on a released session a
// context printing 2N lines allocates no more than one printing N.
func TestPrintfAllocatesNothing(t *testing.T) {
	pr, err := Compile("print.c", printLoop)
	if err != nil {
		t.Fatal(err)
	}
	m := sccsim.MustNew(sccsim.DefaultConfig())
	sim := NewSim(m, pr)
	defer sim.Release()
	allocs := func(n int) float64 {
		args := []Value{IntValue(types.IntType, int64(n))}
		cycle := func() {
			sim.Out.Reset()
			if _, err := sim.Spawn(0, pr.Funcs["lines"], args, 0); err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			cycle()
		}
		return testing.AllocsPerRun(20, cycle)
	}
	const n = 50
	if a, b := allocs(n), allocs(2*n); b-a >= 1 {
		t.Errorf("printing %d lines allocates %v times, %d lines %v: %.1f per line", n, a, 2*n, b, (b-a)/n)
	}
	if want := "row 0: 0.00 0.250000 0%\nrow 1: 0.25 0.250000 1%\n"; !strings.HasPrefix(sim.Output(), want) {
		t.Errorf("output starts %.60q, want %q", sim.Output(), want)
	}
}
