// Package pthreadrt is the baseline execution environment of the paper's
// evaluation: a Pthread runtime in which every thread of a multithreaded
// program shares ONE core of the SCC ("multithreaded applications do run
// on the SCC, however they can only take advantage of a single core",
// thesis Chapter 6). Threads time-share the core round-robin with a
// fixed quantum (Sim.TimeShare); each context switch costs scheduler
// cycles and flushes the L1 (TLB/cache pollution), which is what makes
// the paper's 32-thread single-core baseline substantially slower than a
// single thread doing the same work.
package pthreadrt

import (
	"fmt"
	"slices"

	"hsmcc/internal/cc/types"
	"hsmcc/internal/interp"
	"hsmcc/internal/park"
	"hsmcc/internal/sccsim"
)

// Params are the baseline runtime's parameters: plain data, comparable,
// and everything about the runtime a run's result depends on — a cache
// key over a baseline run embeds this struct as is.
type Params struct {
	// Core is the SCC core the whole program runs on.
	Core int
	// QuantumCycles is the scheduling timeslice in core cycles.
	QuantumCycles int
	// SwitchCycles is the scheduler cost charged per context switch.
	SwitchCycles int
	// FlushOnSwitch models context-switch cache pollution by flushing
	// the L1 when the running thread changes.
	FlushOnSwitch bool
	// CreateCycles is the cost of pthread_create (kernel thread setup).
	CreateCycles int
}

// Options configures the baseline runtime: the Params a run's result
// depends on, and the per-run Observers it does not (profiling a
// baseline uses the program's static global addresses to label ranges).
type Options struct {
	Params
	interp.Observers
}

// DefaultOptions returns the calibrated baseline used by the experiment
// harness (EXPERIMENTS.md discusses the calibration).
func DefaultOptions() Options {
	return Options{Params: Params{
		Core:          0,
		QuantumCycles: 10_000,
		SwitchCycles:  1_500,
		FlushOnSwitch: true,
		CreateCycles:  8_000,
	}}
}

// baseline implements interp.Runtime for the single-core Pthread
// baseline. A thread's ID is its context's Proc.ID: main is spawned
// first and every pthread_create spawns the next context.
type baseline struct {
	sim  *interp.Sim
	opts Options
	// joiners are the contexts waiting in pthread_join, by thread ID.
	joiners [][]*interp.Proc
	mutexes map[uint32]*mutexState
}

type mutexState struct {
	owner   *interp.Proc
	waiters []*interp.Proc
}

// parked holds the tables of finished runs for the next newBaseline.
var parked park.Lot[*baseline]

// newBaseline attaches a baseline runtime to sim and sets how sim
// time-shares the core. Its tables come from a finished run's when one
// is parked.
func newBaseline(sim *interp.Sim, opts Options) *baseline {
	rt, _ := parked.Take()
	if rt == nil {
		rt = &baseline{mutexes: make(map[uint32]*mutexState)}
	}
	*rt = baseline{sim: sim, opts: opts, joiners: rt.joiners, mutexes: rt.mutexes}
	sim.TimeShare(opts.QuantumCycles, opts.SwitchCycles, opts.FlushOnSwitch)
	sim.Runtime = rt
	return rt
}

// release empties rt's tables and parks them for the next newBaseline;
// Run calls it once its Result is built. The emptied tables keep their
// capacity, and each thread's joiner list its own.
func (rt *baseline) release() {
	for i := range rt.joiners {
		clear(rt.joiners[i])
		rt.joiners[i] = rt.joiners[i][:0]
	}
	clear(rt.mutexes)
	*rt = baseline{joiners: rt.joiners[:0], mutexes: rt.mutexes}
	parked.Put(rt)
}

// thread returns the context of thread ID tid, or nil when there is
// none.
func (rt *baseline) thread(tid int64) *interp.Proc {
	procs := rt.sim.Procs()
	if tid < 0 || tid >= int64(len(procs)) {
		return nil
	}
	return procs[tid]
}

// OnExit wakes joiners of a finished thread.
func (rt *baseline) OnExit(p *interp.Proc) {
	if p.ID >= len(rt.joiners) {
		return
	}
	js := rt.joiners[p.ID]
	for _, j := range js {
		j.Unblock(p.Clock)
	}
	clear(js)
	rt.joiners[p.ID] = js[:0]
}

// pthreadT is the type pthread_create stores a thread ID as, built once
// rather than per call.
var pthreadT = types.OpaqueOf("pthread_t")

// CallBuiltin implements the Pthread API subset of thesis Algorithms 4-8
// under the builtin protocol of interp.Runtime. Side effects that must
// not repeat (Spawn, waiter registration) sit strictly before the
// suspension that follows them.
func (rt *baseline) CallBuiltin(p *interp.Proc, name string, args []interp.Value, step int, _ int64) (interp.Value, bool, error) {
	zero := interp.IntValue(types.IntType, 0)
	switch name {
	case "pthread_create":
		// Steps: 0 charge; 1 spawn + thread ID store; 2 done.
		if len(args) < 4 {
			return zero, true, fmt.Errorf("pthread_create: want 4 arguments, got %d", len(args))
		}
		fn := rt.sim.Program.FuncByValue(args[2])
		if fn == nil {
			return zero, true, fmt.Errorf("pthread_create: third argument is not a function")
		}
		if err := p.ChargeStep(step, rt.opts.CreateCycles, 0); err != nil || step > 1 {
			return zero, true, err
		}
		arg := [1]interp.Value{args[3]} // Spawn copies it
		child, err := rt.sim.Spawn(rt.opts.Core, fn, arg[:], p.Clock)
		if err != nil {
			return zero, true, err
		}
		if addr := args[0].Addr(); addr != 0 {
			err := p.StoreTyped(addr, pthreadT, interp.IntValue(types.IntType, int64(child.ID)))
			if interp.IsYield(err) {
				p.PushResume(2, 0)
			}
			return zero, true, err
		}
		return zero, true, nil

	case "pthread_join":
		// Steps: 0 charge; 1 join test + block; 2 woken after the child
		// exited (the unblocker only wakes joiners from OnExit).
		if len(args) < 1 {
			return zero, true, fmt.Errorf("pthread_join: missing thread ID")
		}
		tid := args[0].Int()
		child := rt.thread(tid)
		if child == nil {
			return zero, true, fmt.Errorf("pthread_join: unknown thread %d", tid)
		}
		if err := p.ChargeStep(step, 200, 0); err != nil || step > 1 || child.State == interp.Done {
			return zero, true, err
		}
		if n := int(tid) + 1; len(rt.joiners) < n {
			rt.joiners = slices.Grow(rt.joiners, n-len(rt.joiners))[:n] // keeps parked lists there
		}
		rt.joiners[tid] = append(rt.joiners[tid], p)
		if err := p.BlockFor(interp.ReasonJoin); err != nil {
			p.PushResume(2, 0)
			return zero, true, err
		}
		return zero, true, nil

	case "pthread_exit":
		return zero, true, interp.ThreadExitError()

	case "pthread_self":
		return interp.IntValue(types.IntType, int64(p.ID)), true, p.ChargeStep(step, 10, 0)

	case "pthread_mutex_init", "pthread_mutex_destroy",
		"pthread_attr_init", "pthread_attr_destroy", "pthread_attr_setdetachstate":
		return zero, true, p.ChargeStep(step, 50, 0)

	case "pthread_mutex_lock":
		// Steps: 0 charge; 1 acquire loop (a woken waiter re-enters the
		// loop and re-checks ownership, exactly as a reference
		// context's loop does after Block returns).
		if len(args) < 1 {
			return zero, true, fmt.Errorf("pthread_mutex_lock: missing mutex")
		}
		mu := rt.mutex(args[0].Addr())
		if err := p.ChargeStep(step, 25, 0); err != nil { // futex fast path
			return zero, true, err
		}
		for mu.owner != nil && mu.owner != p {
			mu.waiters = append(mu.waiters, p)
			if err := p.BlockFor(interp.ReasonMutex); err != nil {
				p.PushResume(1, 0)
				return zero, true, err
			}
		}
		mu.owner = p
		return zero, true, nil

	case "pthread_mutex_unlock":
		if len(args) < 1 {
			return zero, true, fmt.Errorf("pthread_mutex_unlock: missing mutex")
		}
		mu := rt.mutex(args[0].Addr())
		if step == 0 && mu.owner != p {
			return zero, true, fmt.Errorf("pthread_mutex_unlock: not the owner")
		}
		if err := p.ChargeStep(step, 25, 0); err != nil {
			return zero, true, err
		}
		mu.owner = nil
		if len(mu.waiters) > 0 {
			w := mu.waiters[0]
			mu.waiters = mu.waiters[1:]
			w.Unblock(p.Clock)
		}
		return zero, true, nil
	}
	return interp.Value{}, false, nil
}

func (rt *baseline) mutex(addr uint32) *mutexState {
	mu, ok := rt.mutexes[addr]
	if !ok {
		mu = &mutexState{}
		rt.mutexes[addr] = mu
	}
	return mu
}

// Result summarises one baseline run.
type Result struct {
	Makespan sccsim.Time
	Output   string
	Switches uint64
	Stats    sccsim.CoreStats
}

// Seconds returns the makespan in seconds.
func (r *Result) Seconds() float64 { return float64(r.Makespan) / sccsim.PsPerSecond }

// Run executes pr's main under the baseline runtime on a fresh scheduler
// bound to machine m. On every return path it releases the session and
// the runtime's tables once the Result is built.
func Run(pr *interp.Program, m *sccsim.Machine, opts Options) (*Result, error) {
	sim := interp.NewSim(m, pr)
	defer sim.Release()
	sim.Observe(opts.Observers)
	rt := newBaseline(sim, opts)
	defer rt.release()
	main := pr.Funcs["main"]
	if main == nil {
		return nil, fmt.Errorf("pthreadrt: program has no main")
	}
	if _, err := sim.Spawn(opts.Core, main, nil, 0); err != nil {
		return nil, err
	}
	if err := sim.Run(); err != nil {
		return nil, err
	}
	return &Result{
		Makespan: sim.Makespan(),
		Output:   sim.Output(),
		Switches: sim.Switches(),
		Stats:    m.TotalStats(),
	}, nil
}
