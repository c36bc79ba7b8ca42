package interp

import (
	"fmt"
	"math/rand"
	"testing"

	"hsmcc/internal/sccsim"
)

// minClock elects the runnable context with the smallest clock, ties
// going to the lower ID: the scheduler's rule when every core has one
// context and a switch costs nothing.
func minClock(procs []*Proc) *Proc {
	var best *Proc
	for _, p := range procs {
		if p.State != Runnable {
			continue
		}
		if best == nil || p.Clock < best.Clock || (p.Clock == best.Clock && p.ID < best.ID) {
			best = p
		}
	}
	return best
}

// linearTimeShare is the scheduler's rule with no index: every decision
// scans every context for each core's candidate. It reads and updates
// the same per-core state as scheduler.next, and ignores the per-core
// lists, the heap and the refresh marks.
func linearTimeShare(t *scheduler, procs []*Proc) *Proc {
	if l := t.last; l != nil {
		c := &t.cores[l.Core]
		c.free = max(c.free, l.Clock)
	}
	// first is each core's first runnable context, next its first
	// runnable one after the occupant.
	first := make([]*Proc, len(t.cores))
	next := make([]*Proc, len(t.cores))
	for _, p := range procs { // in ID order
		if p.State != Runnable {
			continue
		}
		if first[p.Core] == nil {
			first[p.Core] = p
		}
		if occ := t.cores[p.Core].occ; next[p.Core] == nil && occ != nil && p.ID > occ.ID {
			next[p.Core] = p
		}
	}
	var best *Proc
	var bestEff sccsim.Time
	for i := range t.cores {
		c := &t.cores[i]
		p := next[i]
		if t.inQuantum(c) {
			p = c.occ
		} else if p == nil {
			p = first[i]
		}
		if p == nil {
			continue
		}
		if eff := max(p.Clock, c.free); best == nil || eff < bestEff || (eff == bestEff && p.ID < best.ID) {
			best, bestEff = p, eff
		}
	}
	t.last = best
	if best != nil {
		t.occupy(best)
	}
	return best
}

// schedWorld is one side of TestSchedulerMatchesLinear: a session whose
// contexts the test builds and moves by hand.
type schedWorld struct {
	s       *Sim
	procs   []*Proc
	blocked []*Proc
}

func newSchedWorld(t *testing.T, cfg sccsim.Config, quantum, switchCycles int, flush bool) *schedWorld {
	t.Helper()
	pr, err := Compile("main.c", "int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(sccsim.MustNew(cfg), pr)
	t.Cleanup(s.Release)
	s.TimeShare(quantum, switchCycles, flush)
	return &schedWorld{s: s}
}

// spawn lists a new context on core, as Sim.Spawn does.
func (w *schedWorld) spawn(core int, clock sccsim.Time) {
	m := w.s.Machine
	p := &Proc{Sim: w.s, ID: len(w.procs), Core: core, Clock: clock, State: Runnable, timer: m.Timer(core), mach: m}
	w.procs = append(w.procs, p)
	w.s.sched.add(p)
}

// schedMove is one drawn transition, applied alike to both sides.
type schedMove struct {
	kind    int
	advance sccsim.Time
	pick    int // a context or a blocked context, modulo their count
	core    int
	mhz     int
}

// Move kinds for the elected context.
const (
	moveYield = iota
	moveBlock
	moveFinish
	moveSpawn
	moveUnblock   // yield, and unblock a blocked context at the elected one's clock
	moveRaise     // yield, and unblock any unfinished context at the elected one's clock
	moveNote      // yield, and note a context again with nothing changed
	moveFrequency // yield, and change the clock of a voltage domain
)

// apply moves p, the context just elected (nil when none was), and the
// contexts around it.
func (w *schedWorld) apply(mv schedMove, p *Proc) {
	if p == nil {
		q := w.blocked[mv.pick%len(w.blocked)]
		q.Unblock(q.Clock + mv.advance)
		w.dropBlocked()
		return
	}
	p.Clock += mv.advance
	p.State = Runnable
	switch mv.kind {
	case moveBlock:
		p.State = Blocked
		w.blocked = append(w.blocked, p)
	case moveFinish:
		p.State = Done
	case moveSpawn:
		w.spawn(mv.core, p.Clock)
	case moveUnblock:
		if len(w.blocked) > 0 {
			w.blocked[mv.pick%len(w.blocked)].Unblock(p.Clock)
			w.dropBlocked()
		}
	case moveRaise:
		if q := w.procs[mv.pick%len(w.procs)]; q.State != Done {
			q.Unblock(p.Clock)
			w.dropBlocked()
		}
	case moveNote:
		w.s.sched.mark(w.procs[mv.pick%len(w.procs)].Core)
	case moveFrequency:
		if err := w.s.SetDomainMHz(w.s.Machine.DomainOf(mv.core), mv.mhz); err != nil {
			panic(err)
		}
	}
}

func (w *schedWorld) dropBlocked() {
	live := w.blocked[:0]
	for _, q := range w.blocked {
		if q.State == Blocked {
			live = append(live, q)
		}
	}
	w.blocked = live
}

// TestSchedulerMatchesLinear drives the indexed scheduler and its linear
// oracle side by side, each on its own session and machine, through one
// randomized schedule of the transitions a session makes: spawn, yield,
// block, unblock (of a blocked or a runnable context, raising its
// clock), finish, duplicate notes, quanta running out and mid-run
// changes of a domain's clock. Every decision must elect the same
// context at the same clock, and every context's clock must agree. With
// one context per core and no switch cost, MinClock must elect the same
// context as well.
func TestSchedulerMatchesLinear(t *testing.T) {
	mesh1024 := sccsim.MustPreset("mesh1024")
	shapes := []struct {
		name                  string
		cfg                   sccsim.Config
		contexts, cores       int
		quantum, switchCycles int
		spawns                bool
		seeds                 int
	}{
		{"one per core", sccsim.DefaultConfig(), 48, 48, 0, 0, false, 20},
		{"one per core at 1024", mesh1024, 1024, 1024, 0, 0, false, 2},
		{"1024 on 32 cores", sccsim.DefaultConfig(), 1024, 32, 10_000, 1_500, true, 4},
		{"1024 on one core", sccsim.DefaultConfig(), 1024, 1, 10_000, 1_500, true, 3},
		{"8 on 4 cores", sccsim.DefaultConfig(), 8, 4, 10_000, 1_500, true, 30},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for seed := int64(0); seed < int64(sh.seeds); seed++ {
				flush := seed%2 == 1
				// MinClock is the rule while each core keeps one context
				// and a switch is free.
				minClockToo := sh.quantum == 0 && !sh.spawns
				rng := rand.New(rand.NewSource(seed))
				idx := newSchedWorld(t, sh.cfg, sh.quantum, sh.switchCycles, flush)
				lin := newSchedWorld(t, sh.cfg, sh.quantum, sh.switchCycles, flush)
				for i := 0; i < sh.contexts; i++ {
					clock := sccsim.Time(rng.Intn(8) * 1000) // ties, too
					idx.spawn(i%sh.cores, clock)
					lin.spawn(i%sh.cores, clock)
				}
				// A quantum is 10 000 cycles, 18.76 µs at 533 MHz: most
				// advances stay inside it, some cross it.
				for step := 0; step < 3000; step++ {
					want := minClock(idx.procs)
					got, ref := idx.s.sched.next(), linearTimeShare(&lin.s.sched, lin.procs)
					if (got == nil) != (ref == nil) || got != nil && (got.ID != ref.ID || got.Clock != ref.Clock) {
						t.Fatalf("seed %d step %d: indexed elected %s, linear %s", seed, step, describe(got), describe(ref))
					}
					if minClockToo && got != want {
						t.Fatalf("seed %d step %d: indexed elected %s, MinClock %s", seed, step, describe(got), describe(want))
					}
					for i, p := range idx.procs {
						if q := lin.procs[i]; p.Clock != q.Clock || p.State != q.State {
							t.Fatalf("seed %d step %d: context %d is %s indexed, %s linear", seed, step, i, describe(p), describe(q))
						}
					}
					if got == nil && len(idx.blocked) == 0 {
						break
					}
					mv := schedMove{
						kind:    rng.Intn(moveFrequency + 1),
						advance: sccsim.Time(1 + rng.Intn(4_000_000)),
						pick:    rng.Intn(1 << 20),
						core:    rng.Intn(sh.cores),
						mhz:     sccsim.MinMHz + rng.Intn(sccsim.MaxMHz-sccsim.MinMHz+1),
					}
					if rng.Intn(20) == 0 {
						mv.advance *= 10 // past any quantum
					}
					if mv.kind == moveSpawn && !sh.spawns {
						mv.kind = moveYield
					}
					idx.apply(mv, got)
					lin.apply(mv, ref)
				}
				if idx.s.Switches() != lin.s.Switches() {
					t.Fatalf("seed %d: %d switches indexed, %d linear", seed, idx.s.Switches(), lin.s.Switches())
				}
			}
		})
	}
}

func describe(p *Proc) string {
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("context %d (core %d, state %d, clock %d)", p.ID, p.Core, p.State, p.Clock)
}
