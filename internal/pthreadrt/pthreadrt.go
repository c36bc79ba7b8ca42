// Package pthreadrt is the baseline execution environment of the paper's
// evaluation: a Pthread runtime in which every thread of a multithreaded
// program shares ONE core of the SCC ("multithreaded applications do run
// on the SCC, however they can only take advantage of a single core",
// thesis Chapter 6). Threads time-share the core under a round-robin
// scheduler with a fixed quantum; each context switch costs scheduler
// cycles and flushes the L1 (TLB/cache pollution), which is what makes
// the paper's 32-thread single-core baseline substantially slower than a
// single thread doing the same work.
package pthreadrt

import (
	"fmt"

	"hsmcc/internal/cc/types"
	"hsmcc/internal/interp"
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

	quantum   sccsim.Time
	coreClock sccsim.Time
	nextTID   int64
	byTID     map[int64]*interp.Proc
	tidOf     map[*interp.Proc]int64
	joiners   map[int64][]*interp.Proc
	mutexes   map[uint32]*mutexState
	switches  uint64
}

type mutexState struct {
	owner   *interp.Proc
	waiters []*interp.Proc
}

// New attaches a baseline runtime (and its round-robin policy) to sim.
func New(sim *interp.Sim, opts Options) *Runtime {
	rt := &Runtime{
		sim:     sim,
		opts:    opts,
		quantum: sccsim.Time(opts.QuantumCycles) * sim.Machine.CorePeriodOf(opts.Core),
		byTID:   make(map[int64]*interp.Proc),
		tidOf:   make(map[*interp.Proc]int64),
		joiners: make(map[int64][]*interp.Proc),
		mutexes: make(map[uint32]*mutexState),
	}
	sim.Runtime = rt
	sim.Policy = &rrPolicy{rt: rt}
	return rt
}

// Switches reports how many context switches occurred.
func (rt *Runtime) Switches() uint64 { return rt.switches }

// rrPolicy keeps the current thread on the core until its quantum expires
// or it blocks, then rotates round-robin. Switching in a thread advances
// its clock to the core's time and charges the switch overhead. Current
// is tracked by pointer: the scheduler compacts finished contexts out of
// the scan list, so indices are not stable.
type rrPolicy struct {
	rt  *Runtime
	cur *interp.Proc
}

// Next implements interp.Policy.
func (pol *rrPolicy) Next(procs []*interp.Proc) *interp.Proc {
	if len(procs) == 0 {
		return nil
	}
	rt := pol.rt
	// The common case, answered before anything scans the thread list:
	// the current thread keeps its quantum. Only it ran since the last
	// call — whatever it spawned or unblocked starts no later than its own
	// clock — so folding that clock in keeps coreClock the furthest any
	// thread has run.
	if cur := pol.cur; cur != nil && cur.State == interp.Runnable && cur.Clock-cur.Slice < rt.quantum {
		if cur.Clock > rt.coreClock {
			rt.coreClock = cur.Clock
		}
		return cur
	}
	// Core time is the furthest any thread has run.
	coreClock := rt.coreClock
	for _, p := range procs {
		if p.Clock > coreClock {
			coreClock = p.Clock
		}
	}
	rt.coreClock = coreClock
	cur := len(procs) - 1
	for i, p := range procs {
		if p == pol.cur {
			cur = i
			break
		}
	}
	// Rotate to the next runnable thread.
	for off := 1; off <= len(procs); off++ {
		p := procs[(cur+off)%len(procs)]
		if p.State != interp.Runnable {
			continue
		}
		if p != pol.cur {
			rt.switches++
			if p.Clock < coreClock {
				p.Clock = coreClock
			}
			p.Clock += rt.sim.Machine.ComputeTime(p.Core, rt.opts.SwitchCycles)
			if rt.opts.FlushOnSwitch {
				p.Clock += rt.sim.Machine.FlushL1(p.Core)
			}
		}
		p.Slice = p.Clock
		pol.cur = p
		return p
	}
	return nil
}

// OnExit wakes joiners of a finished thread.
func (rt *Runtime) OnExit(p *interp.Proc) {
	tid, ok := rt.tidOf[p]
	if !ok {
		return
	}
	for _, j := range rt.joiners[tid] {
		j.Unblock(p.Clock)
	}
	delete(rt.joiners, tid)
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
			child, err := rt.sim.Spawn(rt.opts.Core, fn, []interp.Value{args[3]}, p.Clock)
			if err != nil {
				return zero, true, err
			}
			rt.nextTID++
			tid := rt.nextTID
			rt.byTID[tid] = child
			rt.tidOf[child] = tid
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
			child, ok := rt.byTID[tid]
			if !ok {
				return zero, true, fmt.Errorf("pthread_join: unknown thread %d", tid)
			}
			if err := p.ChargeCycles(200); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
			_ = child
		}
		if step <= 1 {
			tid := args[0].Int()
			child := rt.byTID[tid]
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
		return interp.IntValue(types.IntType, rt.tidOf[p]), true, nil

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
// bound to machine m.
func Run(pr *interp.Program, m *sccsim.Machine, opts Options) (*Result, error) {
	sim := interp.NewSim(m, pr)
	sim.Observe(opts.Observers)
	rt := New(sim, opts)
	main := pr.Funcs["main"]
	if main == nil {
		return nil, fmt.Errorf("pthreadrt: program has no main")
	}
	root, err := sim.Spawn(opts.Core, main, nil, 0)
	if err != nil {
		return nil, err
	}
	rt.tidOf[root] = 0
	rt.byTID[0] = root
	if err := sim.Run(); err != nil {
		return nil, err
	}
	return &Result{
		Makespan: sim.Makespan(),
		Output:   sim.Output(),
		Switches: rt.switches,
		Stats:    m.TotalStats(),
	}, nil
}
