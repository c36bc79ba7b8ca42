package interp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"hsmcc/internal/sccsim"
)

// errThreadExit unwinds a context when the program calls pthread_exit or
// exit; it is not reported as a failure.
var errThreadExit = errors.New("thread exit")

// ThreadExitError returns the sentinel used to unwind a context; runtimes
// return it from CallBuiltin to terminate the calling thread cleanly.
func ThreadExitError() error { return errThreadExit }

// MaxCallDepth bounds recursion in interpreted programs.
const MaxCallDepth = 256

// Proc is one execution context: a Pthread thread or an RCCE process.
type Proc struct {
	Sim   *Sim
	ID    int
	Core  int
	Clock sccsim.Time
	State ProcState
	// Ret is the entry function's return value once State is Done.
	Ret Value

	// rootCF is the entry function's compiled form, resolved at spawn
	// so every resume skips the map lookup (nil for a walked context).
	rootCF    *compiledFunc
	args      []Value
	stackIdx  int
	stackTop  uint32
	stackPtr  uint32
	memOps    int
	lastYield sccsim.Time

	// Compiled-engine state: activation records index into the slotMem
	// arena (cfp is the running frame's base), and argArena is the
	// stack-disciplined scratch space for call arguments. Both amortise
	// to zero allocations per call.
	cframes  []cframe
	slotMem  []uint32
	cfp      int
	argArena []Value
	// retSlots holds one return-value cell per call depth, so a call's
	// ret pointer does not escape to the heap; fixed capacity because
	// active bodies hold interior pointers across nested calls.
	retSlots []Value
	// text holds printf's format and formatted output, and atoi's
	// string, between calls.
	text []byte
	// Coroutine state: the resumption stacks a suspension unwinds into
	// (pointer-free meta plus payload side stacks), the pop scratch
	// slot, and the flag marking a re-descent to the suspension point
	// (coro.go documents the protocol).
	kstack     []kmeta
	kvals      []Value
	kxs        []any
	kscratch   kframe
	coResuming bool
	// scratch is the pooled bundle the buffers above came from; finish
	// returns it for the next spawn.
	scratch *procScratch
	// timer is the machine's cycle-to-time handle for this context's
	// core (stable across DVFS changes), mach the machine itself: both
	// copied at Spawn so the per-operation paths skip the Sim indirection.
	timer *sccsim.CoreTimer
	mach  *sccsim.Machine
	// prof is the session's access profiler (nil when disabled), copied
	// from Sim.Profiler at Spawn so the accessor hot path avoids the Sim
	// indirection.
	prof MemProfiler
	// trace is the session's scheduling-event sink (nil when disabled),
	// copied from Sim.Trace at Spawn; blockReason carries a BlockFor tag
	// to the one suspension it precedes.
	trace       TraceSink
	blockReason BlockReason

	// Stats.
	Ops   uint64 // executed statements
	Calls uint64
}

// ---------------------------------------------------------------------------
// Time accounting and memory access
// ---------------------------------------------------------------------------

// Per-operation compute costs in core cycles, P54C-flavoured: the Pentium
// is in-order with a slow divider and blocking loads. The same table
// applies to baseline and translated runs, so runtime ratios are driven
// by parallel structure and the memory system, and to the tree-walk
// reference, which charges the same costs in the same order.
const (
	CostALU    = 1  // integer add/sub/logic/compare, branches
	CostIMul   = 9  // integer multiply
	CostIDiv   = 41 // integer divide / modulo
	CostFAdd   = 3  // FP add/sub/compare
	CostFMul   = 3  // FP multiply
	CostFDiv   = 39 // FP divide
	CostConv   = 3  // int<->float conversion
	CostCall   = 5  // call + frame setup
	CostReturn = 3
)

// yieldHorizonPs bounds how far a context's virtual clock may run ahead
// between scheduler handoffs (2.5 us = 2000 cycles at 800 MHz). Memory-
// controller queueing is order-of-issue, so issue order must approximate
// virtual-time order: without this bound, one context executing a large
// compute block (e.g. RCCE_init) and then touching DRAM would push the
// controller's free time into the virtual future and charge every
// lower-clock context a spurious wait.
const yieldHorizonPs = sccsim.Time(2_500_000)

// chargeCycles adds n core cycles of compute time, yielding when the
// clock has run past the skew horizon. The charge is complete before a
// yield propagates, so callers resume after the call without re-running
// it (a "leaf" in the coroutine protocol).
func (p *Proc) chargeCycles(n int) error {
	p.Clock += p.timer.Cycles(n)
	if p.Clock-p.lastYield >= yieldHorizonPs {
		return p.Yield()
	}
	return nil
}

// MemProfiler observes the timed data-memory accesses a context
// performs (loadWord and storeWord, access.go). Implementations must be
// cheap and need no locking: the scheduler runs one context of a session
// at a time.
// Each access is reported exactly once, before any cooperative yield
// propagates (the coroutine leaf convention: the access has completed
// and is never re-issued on resume), so counters are byte-identical
// between a compiled Program and its tree-walk reference. A nil profiler — the
// default — costs a single pointer check per access.
type MemProfiler interface {
	NoteAccess(core int, addr uint32, write bool)
}

// noteMemOp finishes a timed access of size bytes at addr: it reports it
// to the profiler (if any) and implements the cooperative yield cadence.
// Accesses not wholly inside the private range (below PrivateBase the
// subtraction wraps; a word straddling PrivateLimit ends past it) yield
// immediately. Shared DRAM and the MPB are the points where cross-core
// contention is modelled, and letting one context run a burst ahead
// would serialize whole bursts at the memory controllers instead of
// interleaving requests in virtual-time order; an unmapped address is
// the machine's fault, so the access is its context's last. Private
// accesses that hit a cache cannot contend, and yield only every
// YieldEvery ops to keep scheduling overhead low; a private L2 miss does
// contend — it queues at its memController's freeAt like a shared
// access — so a context inside that window can issue a miss from the
// other contexts' future. That error is bounded by the window and the
// horizon, and unmeasured (ROADMAP item 1). The yield itself is
// outlined: this is the one call a typed accessor makes after its
// Machine access.
func (p *Proc) noteMemOp(addr uint32, size int, write bool) error {
	if p.prof != nil {
		p.prof.NoteAccess(p.Core, addr, write)
	}
	p.memOps++
	if addr-sccsim.PrivateBase > sccsim.PrivateLimit-sccsim.PrivateBase-uint32(size) || p.memOps >= YieldEvery ||
		p.Clock-p.lastYield >= yieldHorizonPs {
		return p.yieldMemOp()
	}
	return nil
}

// yieldMemOp is noteMemOp's cold half.
func (p *Proc) yieldMemOp() error {
	p.memOps = 0
	return p.Yield()
}

// ---------------------------------------------------------------------------
// Heap and stack
// ---------------------------------------------------------------------------

// heapAlloc bump-allocates n*m bytes from the core's private heap for
// builtin name. A negative or overflowing size, or one that would carry
// the heap past heapLimit, is a run error.
func (p *Proc) heapAlloc(name string, n, m int64) (uint32, error) {
	s := p.Sim
	addr := (s.heaps[p.Core] + 7) &^ 7
	if n < 0 || m < 0 || m > 0 && n > math.MaxInt32/m {
		return 0, fmt.Errorf("%s of %d x %d bytes at %#x: not a size", name, n, m, addr)
	}
	if err := p.CheckSpan(name, addr, n*m); err != nil {
		return 0, err
	}
	s.heaps[p.Core] = addr + uint32(n*m)
	return addr, nil
}

// StackTop is the address the context's stack grows down from: the
// compiled engine's frames start there, and so do a tree walk's.
func (p *Proc) StackTop() uint32 { return p.stackTop }

// ---------------------------------------------------------------------------
// Compiled-engine frames and calls
// ---------------------------------------------------------------------------

// slotAddr returns the address of slot idx in the running compiled frame.
func (p *Proc) slotAddr(idx int) uint32 { return p.slotMem[p.cfp+idx] }

// pushCFrame materialises cf's precomputed layout: the same subtract-and-
// align walk the tree-walk reference performs per call, but over a
// resolved slot list instead of a fresh AST inspection, into a reused
// arena instead of a fresh map.
func (p *Proc) pushCFrame(cf *compiledFunc) error {
	if len(p.cframes) >= MaxCallDepth {
		return fmt.Errorf("call depth exceeds %d in %s", MaxCallDepth, cf.name)
	}
	base := len(p.slotMem)
	sp := p.stackPtr
	for _, sd := range cf.slots {
		sp -= sd.size
		sp &^= sd.amask
		p.slotMem = append(p.slotMem, sp)
	}
	if p.stackTop-sp > StackBytes {
		p.slotMem = p.slotMem[:base]
		return fmt.Errorf("stack overflow in %s", cf.name)
	}
	p.cframes = append(p.cframes, cframe{base: base, saved: p.stackPtr})
	p.stackPtr = sp
	p.cfp = base
	return nil
}

func (p *Proc) popCFrame() {
	fr := p.cframes[len(p.cframes)-1]
	p.cframes = p.cframes[:len(p.cframes)-1]
	p.slotMem = p.slotMem[:fr.base]
	p.stackPtr = fr.saved
	if n := len(p.cframes); n > 0 {
		p.cfp = p.cframes[n-1].base
	} else {
		p.cfp = 0
	}
}

// callCompiled calls a compiled function with the tree-walk reference's
// cycle charges and timed parameter stores, and no per-call allocation.
// Resumable at every suspension point: after the call charge (1),
// between parameter stores (2), inside the body (3) and after the
// return charge (4).
func (p *Proc) callCompiled(cf *compiledFunc, args []Value) (Value, error) {
	if cf.body == nil {
		return Value{}, fmt.Errorf("call of undefined function %s", cf.name)
	}
	if p.coResuming {
		// Nearly every resume re-enters a suspended body (step 3, no
		// payload flags, and never a piggyback carrier — the enclosing
		// call combinator's frame sits above it on every unwind, so
		// blocks fuse onto that instead). Decode it by hand and skip the
		// scratch-slot round trip of the general pop.
		n := len(p.kstack) - 1
		if m := &p.kstack[n]; m.step == 3 {
			depth := int(m.n)
			p.kstack = p.kstack[:n]
			if n == 0 {
				p.coResuming = false
			}
			return p.runCompiledBodyAt(cf, depth)
		}
		fr := p.popKRef()
		switch fr.step {
		case 1: // call charge complete, frame not yet pushed
			return p.enterCompiled(cf, args)
		case 2: // parameter store i-1 complete
			if err := p.storeParams(cf, args, int(fr.n)); err != nil {
				return Value{}, err
			}
			return p.runCompiledBody(cf)
		case 3: // suspended inside the body; fr.n carries the call depth
			return p.runCompiledBodyAt(cf, int(fr.n))
		default: // 4: return charge complete, result saved
			return fr.v, nil
		}
	}
	p.Calls++
	if err := p.chargeCycles(CostCall); err != nil {
		p.pushK(kframe{step: 1})
		return Value{}, err
	}
	return p.enterCompiled(cf, args)
}

// enterCompiled pushes the activation record, stores the parameters and
// runs the body (everything after the call charge).
func (p *Proc) enterCompiled(cf *compiledFunc, args []Value) (Value, error) {
	if err := p.pushCFrame(cf); err != nil {
		return Value{}, err
	}
	if err := p.storeParams(cf, args, 0); err != nil {
		return Value{}, err
	}
	return p.runCompiledBody(cf)
}

// storeParams performs the timed parameter stores from index `from`; on
// a yield the in-flight store has completed and the frame records the
// next index.
func (p *Proc) storeParams(cf *compiledFunc, args []Value, from int) error {
	for i := from; i < len(cf.paramSlot); i++ {
		si := cf.paramSlot[i]
		if si < 0 {
			continue
		}
		var v Value
		if i < len(args) {
			v = args[i]
		}
		if err := p.StoreTyped(p.slotMem[p.cfp+si], cf.paramType[i], v); err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 2, n: int64(i + 1)})
				return err
			}
			p.popCFrame()
			return err
		}
	}
	return nil
}

// runCompiledBody starts a fresh body at the current call depth (this
// function's frame is the innermost, so len(cframes) IS its depth).
func (p *Proc) runCompiledBody(cf *compiledFunc) (Value, error) {
	return p.runCompiledBodyAt(cf, len(p.cframes))
}

// runCompiledBodyAt executes (or re-enters) the body, pops the
// activation record and charges the return. The return cell comes from
// the per-depth arena at the function's OWN depth — recorded in the
// suspension frame, because during a resume descent the deeper
// suspended calls are still pushed and len(cframes) would index a
// deeper call's cell. The cell is zeroed on fresh entry exactly like
// the local it replaces (ReturnStmt writes it with no suspension before
// the body completes, so a re-entered body never carries a partial cell
// across a yield, and nothing runs on this context while it is
// suspended).
func (p *Proc) runCompiledBodyAt(cf *compiledFunc, depth int) (Value, error) {
	ret := &p.retSlots[depth]
	if !p.coResuming {
		*ret = Value{}
	}
	if _, err := cf.body(p, ret); err != nil {
		if isYield(err) {
			p.pushK(kframe{step: 3, n: int64(depth)})
			return Value{}, err
		}
		p.popCFrame()
		return Value{}, err
	}
	rv := *ret
	p.popCFrame()
	if err := p.chargeCycles(CostReturn); err != nil {
		p.pushK(kframe{step: 4, v: rv})
		return Value{}, err
	}
	return rv, nil
}

// evalCompiledArgs evaluates call arguments into the Proc's argument
// arena, charging one ALU cycle per argument push as the tree walk does.
// The caller truncates the arena back to base when the call returns; builtins
// receive the arena-backed slice and must not retain it (none do). On a
// yield the arena stays extended — evaluated arguments live there across
// the suspension — and the frame records the next argument to evaluate.
func (p *Proc) evalCompiledArgs(fns []evalFn) ([]Value, int, error) {
	var base, start int
	if p.coResuming {
		fr := p.popKRef()
		base, start = int(fr.a), int(fr.n)
	} else {
		base = len(p.argArena)
		need := base + len(fns)
		if cap(p.argArena) < need {
			grown := make([]Value, need, need*2+8)
			copy(grown, p.argArena)
			p.argArena = grown
		} else {
			p.argArena = p.argArena[:need]
		}
	}
	for i := start; i < len(fns); i++ {
		v, err := fns[i](p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{a: uint32(base), n: int64(i)})
				return nil, 0, err
			}
			p.argArena = p.argArena[:base]
			return nil, 0, err
		}
		p.argArena[base+i] = v
		if err := p.chargeCycles(CostALU); err != nil {
			p.pushK(kframe{a: uint32(base), n: int64(i + 1)})
			return nil, 0, err
		}
	}
	return p.argArena[base : base+len(fns) : base+len(fns)], base, nil
}

// ChargeCycles adds compute cycles; for runtime packages. On a yield
// the charge has completed.
func (p *Proc) ChargeCycles(n int) error { return p.chargeCycles(n) }

// ProfileAccess reports a timed access a runtime performed directly
// against the Machine (bulk copy loops: RCCE put/get, send/recv
// staging) to the session profiler. Call it once per Machine.Load or
// Machine.Store, immediately after the access, before any yield can
// propagate — mirroring the typed accessors' exactly-once convention.
func (p *Proc) ProfileAccess(addr uint32, write bool) {
	if p.prof != nil {
		p.prof.NoteAccess(p.Core, addr, write)
	}
}

// maxCString bounds a C string read out of simulated memory.
const maxCString = 1 << 16

// cstrChunk is appendCString's read size; an aligned chunk never
// crosses a page.
const cstrChunk = 64

// appendCString appends the NUL-terminated string at addr (at most
// maxCString bytes, without the NUL) to dst. It reads aligned chunks cut
// at the MPB's end, so beyond the NUL it touches nothing outside the
// NUL's page (the private range's ends are page-aligned), and it faults
// where a byte-at-a-time read would: a read past the MPB's end is one
// byte. A faulting read reads zeros, so the string ends there.
func (p *Proc) appendCString(dst []byte, addr uint32) []byte {
	m := p.Sim.Machine
	mpbEnd := uint64(sccsim.MPBBase) + uint64(m.Config().MPBTotal())
	for read := 0; read < maxCString; {
		n := cstrChunk - int(addr%cstrChunk)
		switch a := uint64(addr); {
		case a >= mpbEnd:
			n = 1
		case a+uint64(n) > mpbEnd:
			n = int(mpbEnd - a)
		}
		n = min(n, maxCString-read)
		dst = slices.Grow(dst, n)
		chunk := dst[len(dst) : len(dst)+n]
		m.ReadBytes(p.Core, addr, chunk)
		if i := bytes.IndexByte(chunk, 0); i >= 0 {
			return dst[:len(dst)+i]
		}
		dst = dst[:len(dst)+n]
		read += n
		addr += uint32(n)
	}
	return dst
}

// Seconds converts the context clock to seconds.
func (p *Proc) Seconds() float64 { return float64(p.Clock) / sccsim.PsPerSecond }
