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

// Runtime implements interp.Runtime for the single-core Pthread baseline.
type Runtime struct {
	sim  *interp.Sim
	opts Options
	// byTID resolves a thread ID to its context. IDs are dense: main is
	// 0 and every pthread_create takes the next one.
	byTID []*interp.Proc
	// tidOf is each context's thread ID by Proc.ID (dense within the
	// session), -1 for a context that is not one of the runtime's threads.
	tidOf []int64
	// joiners are the contexts waiting in pthread_join, by thread ID.
	joiners [][]*interp.Proc
	mutexes map[uint32]*mutexState
}

type mutexState struct {
	owner   *interp.Proc
	waiters []*interp.Proc
}

// parked holds the tables of finished runs for the next New.
var parked park.Lot[*Runtime]

// New attaches a baseline runtime to sim and sets how sim time-shares
// the core. Its tables come from a finished run's when one is parked.
func New(sim *interp.Sim, opts Options) *Runtime {
	rt, _ := parked.Take()
	if rt == nil {
		rt = &Runtime{mutexes: make(map[uint32]*mutexState)}
	}
	*rt = Runtime{
		sim:     sim,
		opts:    opts,
		byTID:   rt.byTID,
		tidOf:   rt.tidOf,
		joiners: rt.joiners,
		mutexes: rt.mutexes,
	}
	sim.TimeShare(opts.QuantumCycles, opts.SwitchCycles, opts.FlushOnSwitch)
	sim.Runtime = rt
	return rt
}

// release empties rt's tables and parks them for the next New; Run calls
// it once its Result is built. The emptied tables keep their capacity,
// and each thread's joiner list its own.
func (rt *Runtime) release() {
	clear(rt.byTID)
	for i := range rt.joiners {
		clear(rt.joiners[i])
		rt.joiners[i] = rt.joiners[i][:0]
	}
	clear(rt.mutexes)
	*rt = Runtime{
		byTID:   rt.byTID[:0],
		tidOf:   rt.tidOf[:0],
		joiners: rt.joiners[:0],
		mutexes: rt.mutexes,
	}
	parked.Put(rt)
}

// bind makes p the next thread and returns its thread ID.
func (rt *Runtime) bind(p *interp.Proc) int64 {
	tid := int64(len(rt.byTID))
	rt.byTID = append(rt.byTID, p)
	if n := len(rt.joiners); n < cap(rt.joiners) {
		rt.joiners = rt.joiners[:n+1] // keeps the parked list there
	} else {
		rt.joiners = append(rt.joiners, nil)
	}
	for len(rt.tidOf) <= p.ID {
		rt.tidOf = append(rt.tidOf, -1)
	}
	rt.tidOf[p.ID] = tid
	return tid
}

// tid returns p's thread ID, or false when p is not one of the
// runtime's threads.
func (rt *Runtime) tid(p *interp.Proc) (int64, bool) {
	if p.ID < len(rt.tidOf) && rt.tidOf[p.ID] >= 0 {
		return rt.tidOf[p.ID], true
	}
	return 0, false
}

// thread returns the context of thread ID tid, or nil when there is
// none.
func (rt *Runtime) thread(tid int64) *interp.Proc {
	if tid < 0 || tid >= int64(len(rt.byTID)) {
		return nil
	}
	return rt.byTID[tid]
}

// OnExit wakes joiners of a finished thread.
func (rt *Runtime) OnExit(p *interp.Proc) {
	tid, ok := rt.tid(p)
	if !ok {
		return
	}
	js := rt.joiners[tid]
	for _, j := range js {
		j.Unblock(p.Clock)
	}
	clear(js)
	rt.joiners[tid] = js[:0]
}

// pthreadT is the type pthread_create stores a thread ID as, built once
// rather than per call.
var pthreadT = types.OpaqueOf("pthread_t")

// CallBuiltin implements the Pthread API subset of thesis Algorithms 4-8.
//
// Every builtin follows the coroutine resumption protocol: a yield from
// ChargeCycles/StoreTyped/Block propagates with a PushResume frame whose
// step marks the continuation, and re-entry (Resuming true) pops the
// frame and skips everything already done. Side effects that must not
// repeat (Spawn, TID bookkeeping, waiter registration) sit strictly
// before the suspension that follows them. No builtin yields before
// committing to handle its call, so an unhandled name never touches the
// frame stack.
func (rt *Runtime) CallBuiltin(p *interp.Proc, name string, args []interp.Value) (interp.Value, bool, error) {
	zero := interp.IntValue(types.IntType, 0)
	step := 0
	if p.Resuming() {
		step, _ = p.PopResume()
	}
	switch name {
	case "pthread_create":
		// Steps: 0 charge; 1 spawn + bookkeeping + tid store; 2 done.
		if step == 0 {
			if len(args) < 4 {
				return zero, true, fmt.Errorf("pthread_create: want 4 arguments, got %d", len(args))
			}
			if rt.sim.Program.FuncByValue(args[2]) == nil {
				return zero, true, fmt.Errorf("pthread_create: third argument is not a function")
			}
			if err := p.ChargeCycles(rt.opts.CreateCycles); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		if step <= 1 {
			fn := rt.sim.Program.FuncByValue(args[2])
			arg := [1]interp.Value{args[3]} // Spawn copies it
			child, err := rt.sim.Spawn(rt.opts.Core, fn, arg[:], p.Clock)
			if err != nil {
				return zero, true, err
			}
			tid := rt.bind(child)
			if addr := args[0].Addr(); addr != 0 {
				if err := p.StoreTyped(addr, pthreadT, interp.IntValue(types.IntType, tid)); err != nil {
					if interp.IsYield(err) {
						p.PushResume(2, nil)
					}
					return zero, true, err
				}
			}
		}
		return zero, true, nil

	case "pthread_join":
		// Steps: 0 charge; 1 join test + block; 2 woken after the child
		// exited (the unblocker only wakes joiners from OnExit).
		if step == 0 {
			if len(args) < 1 {
				return zero, true, fmt.Errorf("pthread_join: missing thread ID")
			}
			tid := args[0].Int()
			if rt.thread(tid) == nil {
				return zero, true, fmt.Errorf("pthread_join: unknown thread %d", tid)
			}
			if err := p.ChargeCycles(200); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		if step <= 1 {
			tid := args[0].Int()
			child := rt.thread(tid)
			if child.State != interp.Done {
				rt.joiners[tid] = append(rt.joiners[tid], p)
				if err := p.BlockFor(interp.ReasonJoin); err != nil {
					p.PushResume(2, nil)
					return zero, true, err
				}
			}
		}
		return zero, true, nil

	case "pthread_exit":
		return zero, true, interp.ThreadExitError()

	case "pthread_self":
		if step == 0 {
			if err := p.ChargeCycles(10); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		tid, _ := rt.tid(p)
		return interp.IntValue(types.IntType, tid), true, nil

	case "pthread_mutex_init", "pthread_mutex_destroy",
		"pthread_attr_init", "pthread_attr_destroy", "pthread_attr_setdetachstate":
		if step == 0 {
			if err := p.ChargeCycles(50); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return zero, true, nil

	case "pthread_mutex_lock":
		// Steps: 0 charge; 1 acquire loop (a woken waiter re-enters the
		// loop and re-checks ownership, exactly as a reference
		// context's loop does after Block returns).
		if len(args) < 1 {
			return zero, true, fmt.Errorf("pthread_mutex_lock: missing mutex")
		}
		mu := rt.mutex(args[0].Addr())
		if step == 0 {
			if err := p.ChargeCycles(25); err != nil { // futex fast path
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		for mu.owner != nil && mu.owner != p {
			mu.waiters = append(mu.waiters, p)
			if err := p.BlockFor(interp.ReasonMutex); err != nil {
				p.PushResume(1, nil)
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
		if step == 0 {
			if mu.owner != p {
				return zero, true, fmt.Errorf("pthread_mutex_unlock: not the owner")
			}
			if err := p.ChargeCycles(25); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
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

func (rt *Runtime) mutex(addr uint32) *mutexState {
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
	rt := New(sim, opts)
	defer rt.release()
	main := pr.Funcs["main"]
	if main == nil {
		return nil, fmt.Errorf("pthreadrt: program has no main")
	}
	root, err := sim.Spawn(opts.Core, main, nil, 0)
	if err != nil {
		return nil, err
	}
	rt.bind(root)
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
