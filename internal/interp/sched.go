package interp

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"

	"hsmcc/internal/cc/ast"
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

// Policy picks the next context to run. Next must return nil only when no
// proc is Runnable.
type Policy interface {
	Next(procs []*Proc) *Proc
}

// MinClock schedules the runnable context with the smallest virtual time
// (ties broken by lowest ID): the policy for multi-core RCCE execution,
// which keeps cross-core memory events approximately time-ordered.
type MinClock struct{}

// Next implements Policy.
func (MinClock) Next(procs []*Proc) *Proc {
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

// Runtime supplies the environment-specific builtins (pthread or RCCE)
// and scheduling hooks.
type Runtime interface {
	// CallBuiltin dispatches a runtime function; handled=false passes the
	// call to the interpreter's common builtins. A builtin that calls a
	// yield-capable primitive (ChargeCycles, Block, Yield, the typed
	// accessors) must follow the coroutine resumption protocol: push a
	// continuation with PushResume before propagating a yield, pop it
	// with PopResume when re-entered with Resuming true, and never
	// yield before committing to handle the call.
	CallBuiltin(p *Proc, name string, args []Value) (v Value, handled bool, err error)
	// OnExit runs when a context finishes (wakes joiners, etc.).
	OnExit(p *Proc)
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
	Policy  Policy
	// Observers are the session's per-run hooks, installed by Observe.
	Observers
	Out bytes.Buffer

	procs  []*Proc
	nextID int
	// per-core bump allocators (threads share their core's heap).
	heaps  map[int]uint32
	stacks map[int]int // stack slots ever handed out on this core
	// freeStacks recycles the slots of finished contexts so long-running
	// programs that repeatedly create and join threads (LU does one
	// round per elimination step) do not exhaust the address space.
	freeStacks map[int][]int
	// doneMax preserves the completion times of compacted contexts.
	doneMax sccsim.Time
	done    int // finished contexts still in procs
	err     error
	// elected carries the successor a suspending context chose to the
	// stepping loop, so each scheduling event makes exactly one
	// Policy.Next call.
	elected *Proc
	// parked returns control from a reference context's goroutine to the
	// stepping loop (reference Programs only; see Proc.suspend).
	parked chan struct{}
}

// NewSim builds a session. The runtime must be attached by the caller
// before Run (pthreadrt and rcce packages do this).
func NewSim(m *sccsim.Machine, pr *Program) *Sim {
	return &Sim{
		Machine:    m,
		Program:    pr,
		Policy:     NewMinClockHeap(),
		heaps:      make(map[int]uint32),
		stacks:     make(map[int]int),
		freeStacks: make(map[int][]int),
		parked:     make(chan struct{}),
	}
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

// Procs returns the spawned contexts.
func (s *Sim) Procs() []*Proc { return s.procs }

// Spawn creates an execution context on core that will run fn(args) when
// first scheduled, starting at virtual time start. The program image is
// instantiated into the core's private memory the first time a context
// lands on that core.
func (s *Sim) Spawn(core int, fn *ast.FuncDecl, args []Value, start sccsim.Time) (*Proc, error) {
	if core < 0 || core >= s.Machine.Cores() {
		return nil, fmt.Errorf("interp: spawn on core %d of %d", core, s.Machine.Cores())
	}
	rootCF := s.Program.compiled[fn]
	if rootCF == nil && !s.Program.reference {
		return nil, fmt.Errorf("interp: spawn of %s, which is not a function of the program", fn.Name)
	}
	if _, loaded := s.heaps[core]; !loaded {
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
	p := &Proc{
		Sim:      s,
		ID:       s.nextID,
		Core:     core,
		Clock:    start,
		State:    Runnable,
		stackIdx: idx,
		fn:       fn,
		rootCF:   rootCF,
		args:     args,
		prof:     s.Profiler,
		trace:    s.Trace,
	}
	p.stackTop = sccsim.PrivateLimit - uint32(idx*StackBytes)
	p.stackPtr = p.stackTop
	p.timer = s.Machine.Timer(core)
	p.mach = s.Machine
	s.nextID++
	s.procs = append(s.procs, p)
	s.noteRunnable(p)
	if p.trace != nil {
		p.trace.TraceSpawn(p.ID, p.Core, start)
	}
	if s.Program.reference {
		p.resume = make(chan struct{})
		go p.top()
		return p, nil
	}
	// Adopt pooled buffers: the resumption stack comes pre-reserved
	// (growth inside an unwind would add allocation noise to the hot
	// switch path) and a recycled bundle carries every arena at its
	// previous high-water capacity, so steady-state spawns allocate
	// nothing.
	p.adoptScratch()
	return p, nil
}

// Run executes the session to completion and returns the first runtime
// error, if any: a plain loop on the calling goroutine steps whichever
// context the policy elects until everything is done, something
// deadlocks, or a context fails. The policy sees one Next per yield,
// block or exit, so stateful policies (round-robin quanta, many-to-one
// core multiplexing) observe the same transitions whichever kind of
// Program the session runs.
func (s *Sim) Run() error {
	defer s.stopAll()
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

// pickNext compacts if due and asks the policy for the next context.
// It is the single choke point every scheduling decision passes
// through, so it also polls the session's Cancel hook and the machine's
// access fault: on either it records the error and elects nobody, which
// ends the stepping loop. An access outside the memory map is at or
// above sccsim.SharedBase, where the memory-op cadence yields at once,
// so a typed access that faults is the last thing its context does; a
// bulk builtin's fault surfaces at the context's next yield or exit.
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
	if s.done >= 64 && s.done*2 >= len(s.procs) {
		s.compact()
	}
	return s.Policy.Next(s.procs)
}

// noteRunnable tells a notification-aware policy (the min-clock heap)
// that p became runnable or changed clock while runnable.
func (s *Sim) noteRunnable(p *Proc) {
	if n, ok := s.Policy.(runnableNotifier); ok {
		n.NoteRunnable(p)
	}
}

// compact drops finished contexts from the scheduling scan once they
// outnumber the live ones, keeping Next() cheap for programs that spawn
// thousands of short-lived threads.
func (s *Sim) compact() {
	live := s.procs[:0]
	for _, p := range s.procs {
		if p.State == Done {
			if p.Clock > s.doneMax {
				s.doneMax = p.Clock
			}
			continue
		}
		live = append(live, p)
	}
	s.procs = live
	s.done = 0
}

// Makespan returns the latest completion time across contexts.
func (s *Sim) Makespan() sccsim.Time {
	end := s.doneMax
	for _, p := range s.procs {
		if p.Clock > end {
			end = p.Clock
		}
	}
	return end
}

// Output returns everything the program printed.
func (s *Sim) Output() string { return s.Out.String() }

func (s *Sim) allDone() bool {
	for _, p := range s.procs {
		if p.State != Done {
			return false
		}
	}
	return true
}

func (s *Sim) stateSummary() string {
	counts := map[ProcState]int{}
	for _, p := range s.procs {
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

// stopAll ends the goroutines of reference contexts the session leaves
// unfinished (error, cancellation, deadlock); each is parked in acquire.
func (s *Sim) stopAll() {
	for _, p := range s.procs {
		if p.State != Done && p.resume != nil {
			close(p.resume)
		}
	}
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
// reference context's goroutine is woken and waited for.
func (p *Proc) step() bool {
	if p.resume != nil {
		p.resume <- struct{}{}
		<-p.Sim.parked
		return p.State == Done
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

// top is a reference context's goroutine body.
func (p *Proc) top() {
	p.acquire()
	v, err := p.callTree(p.fn, p.args)
	p.finish(v, err)
	p.Sim.parked <- struct{}{}
}

// acquire parks a reference context's goroutine until the stepping loop
// steps it; a torn-down session ends the goroutine instead.
func (p *Proc) acquire() {
	if _, ok := <-p.resume; !ok {
		runtime.Goexit()
	}
}

// suspend hands control back to the stepping loop with next as the
// elected successor. A compiled context returns the yield sentinel,
// which its callers propagate (each pushing its resumption frame); a
// reference context parks its goroutine here and returns nil once the
// loop steps it again.
func (p *Proc) suspend(next *Proc) error {
	s := p.Sim
	s.elected = next
	if p.resume == nil {
		return errYield
	}
	s.parked <- struct{}{}
	p.acquire()
	return nil
}

// Yield cooperatively gives up the processor while staying runnable.
// When the policy re-elects the yielding context — the common case under
// both the round-robin baseline (within a quantum) and min-clock once a
// context owns the smallest time — control returns without suspending at
// all: no unwind, no frames.
func (p *Proc) Yield() error {
	p.State = Runnable
	p.lastYield = p.Clock
	s := p.Sim
	s.noteRunnable(p)
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
		p.Sim.noteRunnable(p)
	}
}

// takeBlockReason consumes the tag a BlockFor caller left for the one
// suspension it precedes.
func (p *Proc) takeBlockReason() BlockReason {
	r := p.blockReason
	p.blockReason = ReasonNone
	return r
}
