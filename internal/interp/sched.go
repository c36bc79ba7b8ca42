package interp

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/park"
	"hsmcc/internal/sccsim"
)

// ProcState is an execution context's scheduling state.
type ProcState int

// Proc states.
const (
	Runnable ProcState = iota
	Running
	Blocked
	Done
)

// Runtime supplies the environment-specific builtins (pthread or RCCE).
//
// The builtin protocol: a builtin commits to handling its call before
// anything can yield, and before it propagates a yield from a
// yield-capable primitive (ChargeCycles, Block, Yield, the typed
// accessors) it saves its continuation with PushResume. When the
// context is re-entered the interpreter pops that frame and passes its
// step and state to CallBuiltin; a first entry, and every call of a
// walked context, passes (0, 0). Side effects that must not repeat
// sit strictly before the suspension that follows them. ChargeStep is
// the common first step: a charge whose yield saves step 1.
//
// A context's ID is its thread ID (pthread_self) and its rank
// (RCCE_ue): a session numbers contexts densely from 0 in spawn order
// and never reuses an ID, and both runtimes spawn in that order.
type Runtime interface {
	// CallBuiltin dispatches a runtime function at the given step;
	// handled=false passes the call to the interpreter's common
	// builtins.
	CallBuiltin(p *Proc, name string, args []Value, step int, state int64) (v Value, handled bool, err error)
	// OnExit runs when a context finishes (wakes joiners, etc.).
	OnExit(p *Proc)
}

// Walker runs the contexts of a Program built by LoadWalked — the
// tree-walk reference of package interpref — each on a goroutine it
// owns, handing control to and from the stepping loop so that one
// context runs at a time. The scheduler calls it from Spawn, step,
// suspend and the end of Run, and nowhere else.
type Walker interface {
	// Spawn starts p's walk of fn(args), parked until its first Step.
	Spawn(p *Proc, fn *ast.FuncDecl, args []Value)
	// Step runs p's walk until it suspends (done false) or returns
	// (done true, with the entry function's result).
	Step(p *Proc) (done bool, v Value, err error)
	// Suspend, called from inside p's walk, returns control to the
	// stepping loop and returns once the loop steps p again.
	Suspend(p *Proc)
	// Join ends the walks of s that did not finish and returns once
	// every goroutine s's walks started has exited.
	Join(s *Sim)
}

// YieldEvery is how many timed memory accesses a context performs before
// cooperatively yielding, bounding how far one context's virtual clock can
// run ahead between scheduling decisions.
const YieldEvery = 32

// StackBytes is the stack reserved per execution context.
const StackBytes = 256 * 1024

// Observers are the per-run hooks of a simulation session: what watches
// or stops a run without being part of what the run computes. Results
// are identical with or without them, so they are never part of a run's
// identity — pthreadrt.Options and rcce.Options embed this type beside
// their plain-data Params, and cache keys are built from Params alone.
type Observers struct {
	// Profiler, when non-nil, observes every timed data-memory access of
	// the session (see MemProfiler); profiling runs attach a
	// profile.Collector here, everything else leaves it nil.
	Profiler MemProfiler
	// Cancel, when non-nil, is polled at every scheduling decision (one
	// call per context switch). A non-nil return aborts the session
	// promptly with that error: in-flight contexts unwind, Run returns
	// the error, and no further work is scheduled. The serving layer
	// wires a request context's Err here so a wall-clock deadline or
	// client disconnect stops a simulation mid-flight.
	Cancel func() error
	// Trace, when non-nil, observes every scheduling event of the
	// session (see TraceSink): spawns, run slices, blocks with reasons,
	// unblocks, test-and-set spin rounds.
	Trace TraceSink
}

// Sim is one simulation session: a machine, a loaded program, a runtime
// and the set of execution contexts. The Program is the immutable
// compiled half — one Program may back any number of concurrent Sims —
// while the Sim carries every piece of per-run mutable state (context
// set, heaps, stack slots, output).
type Sim struct {
	Machine *sccsim.Machine
	Program *Program
	Runtime Runtime
	// Observers are the session's per-run hooks, installed by Observe.
	Observers
	Out bytes.Buffer

	// session holds the buffers Release parks for the next NewSim; nil
	// once released.
	*session
	nextID int
	err    error
	// elected carries the successor a suspending context chose to the
	// stepping loop, so each scheduling event makes exactly one
	// decision.
	elected *Proc
}

// session is the part of a Sim that grows with what its runs spawn:
// the contexts themselves and the tables and buffers around them. The
// per-core tables are dense slices indexed by core; contexts are
// indexed by ID, which is dense within a session.
type session struct {
	// spawned is every context of the session by ID.
	spawned []*Proc
	// sched is the session's scheduler.
	sched scheduler
	// heaps is each core's bump allocator (threads share their core's
	// heap), zero until the program image is instantiated there.
	heaps []uint32
	// stacks counts the stack slots ever handed out on each core.
	stacks []int
	// freeStacks recycles the slots of finished contexts so long-running
	// programs that repeatedly create and join threads (LU does one
	// round per elimination step) do not exhaust the address space.
	freeStacks [][]int
	// scratch is the free list of per-context buffers (coro.go).
	scratch []*procScratch
	// out is the output buffer's storage while the session is parked.
	out []byte
}

// sessions holds released sessions for the next NewSim.
var sessions park.Lot[*session]

// NewSim builds a session. The runtime must be attached by the caller
// before Run (pthreadrt and rcce packages do this). The session's
// contexts, tables and buffers come from one a Release parked when
// there is one.
func NewSim(m *sccsim.Machine, pr *Program) *Sim {
	k, _ := sessions.Take()
	if k == nil {
		k = new(session)
	}
	// Release leaves the tables empty and zero up to their capacity.
	n := m.Cores()
	k.heaps = slices.Grow(k.heaps, n)[:n]
	k.stacks = slices.Grow(k.stacks, n)[:n]
	k.freeStacks = slices.Grow(k.freeStacks, n)[:n]
	k.sched.cores = slices.Grow(k.sched.cores, n)[:n]
	s := &Sim{Machine: m, Program: pr, session: k}
	s.Out = *bytes.NewBuffer(k.out)
	k.out = nil
	return s
}

// Release parks the session for the next NewSim, the counterpart of
// sccsim.Machine.Release. Call it once the run's results have been
// read: every context the session spawned is zeroed, so a Proc or the
// Sim used afterwards panics instead of reaching a session another run
// now uses. Kept, emptied: the contexts, the per-core tables, the
// scheduler's tables, the per-context buffers and the output buffer.
// Releasing again does nothing.
func (s *Sim) Release() {
	k := s.session
	if k == nil {
		return
	}
	for _, p := range k.spawned[:s.nextID] {
		p.releaseScratch() // a context the run left unfinished
		*p = Proc{}
	}
	clear(k.heaps)
	clear(k.stacks)
	for i := range k.freeStacks {
		k.freeStacks[i] = k.freeStacks[i][:0]
	}
	k.sched.reset()
	k.heaps, k.stacks, k.freeStacks = k.heaps[:0], k.stacks[:0], k.freeStacks[:0]
	s.Out.Reset()
	k.out = s.Out.Bytes()
	*s = Sim{}
	sessions.Put(k)
}

// Observe installs the session's observers and binds a trace sink that
// samples machine state (MachineBinder) to the session's machine. Call
// it before the first Spawn: contexts copy the hooks when created.
func (s *Sim) Observe(o Observers) {
	s.Observers = o
	if b, ok := o.Trace.(MachineBinder); ok {
		b.BindMachine(s.Machine)
	}
}

// Procs returns the spawned contexts by ID.
func (s *Sim) Procs() []*Proc { return s.spawned[:s.nextID] }

// Spawn creates an execution context on core that will run fn(args) when
// first scheduled, starting at virtual time start. The context keeps its
// own copy of args. The program image is instantiated into the core's
// private memory the first time a context lands on that core.
func (s *Sim) Spawn(core int, fn *ast.FuncDecl, args []Value, start sccsim.Time) (*Proc, error) {
	if core < 0 || core >= s.Machine.Cores() {
		return nil, fmt.Errorf("interp: spawn on core %d of %d", core, s.Machine.Cores())
	}
	if s.Program.Funcs[fn.Name] != fn {
		return nil, fmt.Errorf("interp: spawn of %s, which is not a function of the program", fn.Name)
	}
	if s.heaps[core] == 0 {
		s.Program.instantiate(s.Machine, core)
		s.heaps[core] = s.Program.ImageEnd
	}
	var idx int
	if free := s.freeStacks[core]; len(free) > 0 {
		idx = free[len(free)-1]
		s.freeStacks[core] = free[:len(free)-1]
	} else {
		idx = s.stacks[core]
		s.stacks[core]++
	}
	const maxSlots = int((sccsim.PrivateLimit - sccsim.PrivateBase) / 2 / StackBytes)
	if idx >= maxSlots {
		return nil, fmt.Errorf("interp: core %d out of stack space (%d live contexts)", core, idx)
	}
	var p *Proc
	if s.nextID < len(s.spawned) {
		p = s.spawned[s.nextID]
	} else {
		p = new(Proc)
		s.spawned = append(s.spawned, p)
	}
	*p = Proc{
		Sim:      s,
		ID:       s.nextID,
		Core:     core,
		Clock:    start,
		State:    Runnable,
		stackIdx: idx,
		rootCF:   s.Program.compiled[fn],
		prof:     s.Profiler,
		trace:    s.Trace,
	}
	p.stackTop = sccsim.PrivateLimit - uint32(idx*StackBytes)
	p.stackPtr = p.stackTop
	p.timer = s.Machine.Timer(core)
	p.mach = s.Machine
	s.nextID++
	s.sched.add(p)
	if p.trace != nil {
		p.trace.TraceSpawn(p.ID, p.Core, start)
	}
	// Adopt the session's spare buffers: the resumption stack comes
	// pre-reserved (growth inside an unwind would add allocation noise to
	// the hot switch path) and a recycled bundle carries every arena at
	// its previous high-water capacity, so steady-state spawns allocate
	// nothing. The arguments are copied into the bundle, where they stay
	// for every re-descent of the context's life.
	p.adoptScratch()
	p.args = append(p.args[:0], args...)
	if w := s.Program.walker; w != nil {
		w.Spawn(p, fn, p.args)
	}
	return p, nil
}

// Run executes the session to completion and returns the first runtime
// error, if any: a plain loop on the calling goroutine steps whichever
// context the scheduler elects until everything is done, something
// deadlocks, or a context fails. The scheduler makes one decision per
// yield, block or exit, so it observes the same transitions whichever
// kind of Program the session runs. A walked Program's goroutines have
// all exited when Run returns.
func (s *Sim) Run() error {
	if w := s.Program.walker; w != nil {
		defer w.Join(s)
	}
	next := s.pickNext()
	for next != nil {
		next.State = Running
		if next.trace != nil {
			next.trace.TraceResume(next.ID, next.Core, next.Clock)
		}
		s.elected = nil
		finished := next.step()
		if s.err != nil {
			// The session stops on the first error without scheduling
			// more work.
			break
		}
		if finished {
			next = s.pickNext()
		} else {
			next = s.elected
		}
	}
	if s.err != nil {
		return s.err
	}
	if s.allDone() {
		return nil
	}
	return fmt.Errorf("interp: deadlock: %s", s.stateSummary())
}

// pickNext asks the scheduler for the next context. It is the single
// choke point every scheduling decision passes through, so it also
// polls the session's Cancel hook and the machine's access fault: on
// either it records the error and elects nobody, which ends the
// stepping loop. The memory-op cadence yields at once outside the
// private range, so a typed access that faults is its context's last;
// a bulk builtin's fault surfaces at the context's next yield or exit.
func (s *Sim) pickNext() *Proc {
	if s.Cancel != nil && s.err == nil {
		if err := s.Cancel(); err != nil {
			s.fail(fmt.Errorf("interp: session canceled: %w", err))
			return nil
		}
	}
	if err := s.Machine.Fault(); err != nil {
		s.fail(err)
		return nil
	}
	if linearNext != nil {
		return linearNext(&s.sched, s.Procs())
	}
	return s.sched.next()
}

// linearNext, when set, elects in place of the scheduler's index by
// scanning every context: the test oracle (export_test.go).
var linearNext func(t *scheduler, procs []*Proc) *Proc

// Makespan returns the latest completion time across contexts.
func (s *Sim) Makespan() sccsim.Time {
	var end sccsim.Time
	for _, p := range s.Procs() {
		if p.Clock > end {
			end = p.Clock
		}
	}
	return end
}

// Output returns everything the program printed.
func (s *Sim) Output() string { return s.Out.String() }

func (s *Sim) allDone() bool {
	for _, p := range s.Procs() {
		if p.State != Done {
			return false
		}
	}
	return true
}

func (s *Sim) stateSummary() string {
	counts := map[ProcState]int{}
	for _, p := range s.Procs() {
		counts[p.State]++
	}
	var keys []int
	for k := range counts {
		keys = append(keys, int(k))
	}
	sort.Ints(keys)
	buf := ""
	names := map[ProcState]string{Runnable: "runnable", Running: "running", Blocked: "blocked", Done: "done"}
	for _, k := range keys {
		buf += fmt.Sprintf(" %d %s", counts[ProcState(k)], names[ProcState(k)])
	}
	return buf
}

// fail records the first runtime error.
func (s *Sim) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// step enters or resumes a context and runs it to its next suspension
// point; true means the context finished (bookkeeping done). A compiled
// context re-descends from its root callee, resolved once at spawn; a
// walked context is handed to its Program's walker.
func (p *Proc) step() bool {
	if w := p.Sim.Program.walker; w != nil {
		done, v, err := w.Step(p)
		if done {
			p.finish(v, err)
		}
		return done
	}
	if len(p.kstack) > 0 {
		p.coResuming = true
	}
	v, err := p.callCompiled(p.rootCF, p.args)
	if isYield(err) {
		return false
	}
	p.finish(v, err)
	return true
}

// suspend hands control back to the stepping loop with next as the
// elected successor. A compiled context returns the yield sentinel,
// which its callers propagate (each pushing its resumption frame); a
// walked context parks in its walker and returns nil once the loop
// steps it again.
func (p *Proc) suspend(next *Proc) error {
	s := p.Sim
	s.elected = next
	if w := s.Program.walker; w != nil {
		w.Suspend(p)
		return nil
	}
	return errYield
}

// Yield cooperatively gives up the processor while staying runnable.
// When the scheduler re-elects the yielding context — the common case
// for a core's occupant within its quantum, and for a context alone on
// its core once it owns the earliest start — control returns without
// suspending at all: no unwind, no frames. The yielding context was the
// last elected, so the scheduler refreshes its core unasked.
func (p *Proc) Yield() error {
	p.State = Runnable
	p.lastYield = p.Clock
	s := p.Sim
	next := s.pickNext()
	if next == p {
		p.State = Running
		return nil
	}
	if p.trace != nil {
		p.trace.TraceSuspend(p.ID, p.Core, p.Clock, SuspendYield, ReasonNone)
	}
	return p.suspend(next)
}

// Block parks the context until another context calls Unblock; the
// caller's builtin resumes after its Block call once re-elected.
func (p *Proc) Block() error {
	p.State = Blocked
	p.lastYield = p.Clock
	if p.trace != nil {
		p.trace.TraceSuspend(p.ID, p.Core, p.Clock, SuspendBlock, p.takeBlockReason())
	}
	return p.suspend(p.Sim.pickNext())
}

// Unblock makes a parked context runnable again, advancing its clock to
// at least `at` (the virtual time of the event that released it).
func (p *Proc) Unblock(at sccsim.Time) {
	if at > p.Clock {
		p.Clock = at
	}
	if p.State == Blocked {
		p.State = Runnable
		if p.trace != nil {
			p.trace.TraceUnblock(p.ID, p.Core, p.Clock)
		}
	}
	if p.State == Runnable {
		p.Sim.sched.mark(p.Core)
	}
}

// takeBlockReason consumes the tag a BlockFor caller left for the one
// suspension it precedes.
func (p *Proc) takeBlockReason() BlockReason {
	r := p.blockReason
	p.blockReason = ReasonNone
	return r
}
