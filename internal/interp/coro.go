package interp

import (
	"fmt"
	"sync"
)

// The coroutine execution core. Execution contexts are stackless
// coroutines stepped from one plain loop on the caller's goroutine
// (Sim.Run): a yield point (memory-op cadence, clock-skew horizon,
// RCCE/pthread blocking) unwinds the compiled-closure stack with the
// errYield sentinel while every closure on the path pushes an explicit
// resumption frame, and the loop later re-enters the context from the
// top, each closure popping its frame and jumping straight back to the
// suspended child. No goroutines are created and no channel is touched
// on any context switch. (Only the contexts of a test-only reference
// Program, which walk the AST, park on goroutines instead.)
//
// Frame discipline (the whole protocol):
//
//   - Leaf primitives (chargeCycles, noteMemOp and the typed memory
//     accessors, Yield, Block) COMPLETE their effect before yielding and
//     return errYield without a frame; their caller records "site k
//     done" and resumes after the call, never re-running it. A leaf
//     that produces a value returns the real value alongside errYield
//     so the caller can save it in its frame.
//   - Every other function on the unwind path pushes exactly one frame
//     ("I was inside child k", plus any locals computed so far) and, on
//     resume, pops it and re-invokes the same child, which resumes
//     internally. The re-descent never evaluates anything fresh, so the
//     shared Proc state (slot arena, frame pointer, argument arena) is
//     only consulted once control reaches the suspension point again.
//
// Resumption frames are pushed innermost-first during the unwind, so
// popping from the tail re-enters the path outermost-first. The last
// pop clears the resuming flag; execution then continues normally.

// errYield is the coroutine suspension sentinel. It travels the same
// path as runtime errors — every combinator already propagates errors
// immediately — but is intercepted by the scheduler loop instead of
// failing the session.
var errYield error = yieldError{}

// yieldError is errYield's type, and no other error has it: a zero-size
// type, so that isYield is a type assertion — one compare of the
// interface's type word, inlined — where an == on two error values
// calls into the runtime every time it meets a yield.
type yieldError struct{}

func (yieldError) Error() string { return "interp: coroutine yield" }

// isYield reports whether err is errYield. Every test for a suspension
// goes through it.
func isYield(err error) bool {
	_, ok := err.(yieldError)
	return ok
}

// IsYield reports whether err is the coroutine suspension sentinel.
// Runtime packages use it to distinguish a suspension from a failure
// when a primitive they called wants to yield.
func IsYield(err error) bool { return isYield(err) }

// kframe is one resumption frame: the step a function suspended at plus
// whatever locals it needs to continue. The scratch fields cover every
// shape the compiled combinators save (values, addresses, counters);
// runtimes put their state in x.
//
// Storage is split for the sake of the switch hot path: the per-frame
// meta (step, address, counter) lives in a pointer-free 16-byte stack
// that the garbage collector never scans and pushes without write
// barriers, while the occasional Value or interface payload rides on
// side stacks, flagged in the step word. A frame push is the unwind's
// only memory traffic, so this layout halves the cost of every context
// switch.
type kframe struct {
	step int
	v    Value
	a    uint32
	n    int64
	x    any
}

// kmeta is the pointer-free stored form of a frame.
type kmeta struct {
	step int32 // step | kHasV | kHasX
	a    uint32
	n    int64
}

// The step word's upper bits carry three payload tags over one 16-byte
// kmeta:
//
//   - kHasV/kHasX flag a Value or interface payload on the side stacks.
//     A fused closure's scalar rides in n instead (fuse.go), so the
//     Values that reach kvals are the generic closures'.
//   - kPiggy fuses a multi-statement block's resume index into the frame
//     below it (bits 13..25) instead of pushing a frame of the block's
//     own. Straight-line statement lists are the most common combinator
//     on every unwind path, so this removes one push+pop per block level
//     per context switch. The fusing block always peeks and clears the
//     piggy bits before the carrier frame's owner pops it (resume order
//     is outermost-first and the owner is always deeper), so popKRef
//     never decodes a step with piggy bits still set.
//
// Own steps are bounded by the largest block statement index, so the
// mask keeps 26 bits even though fused carriers must fit theirs in 13.
const (
	kHasV       = 1 << 30
	kHasX       = 1 << 29
	kPiggy      = 1 << 28
	kPiggyShift = 13
	kPiggyMax   = 1<<kPiggyShift - 1
	kPiggyBits  = kPiggy | kPiggyMax<<kPiggyShift
	kStepMask   = 1<<26 - 1
)

// pushK saves one resumption frame. A saved Value always carries its
// type (the zero Value means "nothing saved"), which is what lets the
// payload flags reconstruct the frame exactly.
func (p *Proc) pushK(fr kframe) {
	st := int32(fr.step)
	if fr.v.T != nil {
		st |= kHasV
		p.kvals = append(p.kvals, fr.v)
	}
	if fr.x != nil {
		st |= kHasX
		p.kxs = append(p.kxs, fr.x)
	}
	p.kstack = append(p.kstack, kmeta{step: st, a: fr.a, n: fr.n})
}

func (p *Proc) popK() kframe {
	return *p.popKRef()
}

// popKRef pops the top frame into the Proc's scratch slot and returns a
// pointer to it. The slot is overwritten by the next pop, so a resuming
// function must copy any field it needs into locals before re-invoking
// anything that could pop or push (the re-descent discipline already
// requires exactly that).
func (p *Proc) popKRef() *kframe {
	n := len(p.kstack) - 1
	m := p.kstack[n]
	p.kstack = p.kstack[:n]
	fr := &p.kscratch
	fr.step = int(m.step & kStepMask)
	fr.a = m.a
	fr.n = m.n
	if m.step&kHasV != 0 {
		vi := len(p.kvals) - 1
		fr.v = p.kvals[vi]
		p.kvals[vi] = Value{}
		p.kvals = p.kvals[:vi]
	} else {
		fr.v = Value{}
	}
	if m.step&kHasX != 0 {
		xi := len(p.kxs) - 1
		fr.x = p.kxs[xi]
		p.kxs[xi] = nil
		p.kxs = p.kxs[:xi]
	} else {
		fr.x = nil
	}
	if n == 0 {
		p.coResuming = false
	}
	return fr
}

// Resuming reports whether the context is re-descending to a suspension
// point. Runtime packages check it at the top of a builtin and pop
// their frame with PopResume.
func (p *Proc) Resuming() bool { return p.coResuming }

// PushResume saves a runtime builtin's continuation before it
// propagates a yield: step selects where to re-enter, x carries any
// state the re-entry needs.
func (p *Proc) PushResume(step int, x any) { p.pushK(kframe{step: step, x: x}) }

// PopResume pops the frame pushed by PushResume. Call only when
// Resuming reports true.
func (p *Proc) PopResume() (int, any) {
	fr := p.popK()
	return fr.step, fr.x
}

// procScratch bundles every growable per-context buffer of the compiled
// engine so one pool hit at spawn replaces seven warm-up allocations
// (the resumption stacks, the activation arenas and the 6 KB per-depth
// return arena). Contexts churn — a matrix cell spawns and finishes
// hundreds — while the buffers' high-water marks are workload constants,
// so recycling makes a whole sweep allocate O(live contexts) once
// instead of O(spawns). The pool is package-level on purpose: parallel
// grid workers and repeated cells all feed the same free list
// (sync.Pool is concurrency-safe and GC-bounded).
type procScratch struct {
	kstack   []kmeta
	kvals    []Value
	kxs      []any
	cframes  []cframe
	slotMem  []uint32
	argArena []Value
	retSlots []Value
}

var scratchPool = sync.Pool{New: func() any {
	return &procScratch{
		kstack:   make([]kmeta, 0, 64),
		retSlots: make([]Value, maxCallDepth+1),
	}
}}

// adoptScratch attaches pooled buffers to a fresh context.
func (p *Proc) adoptScratch() {
	sc := scratchPool.Get().(*procScratch)
	p.scratch = sc
	p.kstack = sc.kstack
	p.kvals = sc.kvals
	p.kxs = sc.kxs
	p.cframes = sc.cframes
	p.slotMem = sc.slotMem
	p.argArena = sc.argArena
	p.retSlots = sc.retSlots
}

// releaseScratch returns the buffers (with their grown capacities) to
// the pool. All stacks are empty at a clean finish; retSlots keeps its
// stale cells because runCompiledBodyAt zeroes a cell on every fresh
// entry, and Values hold no heap pointers beyond the immortal type
// singletons.
func (p *Proc) releaseScratch() {
	sc := p.scratch
	if sc == nil {
		return
	}
	p.scratch = nil
	// The side stacks and argument arena are empty after a clean finish,
	// but a context killed by a runtime error can leave occupied cells;
	// clear them so the pool never pins runtime objects.
	for i := range p.kvals {
		p.kvals[i] = Value{}
	}
	for i := range p.kxs {
		p.kxs[i] = nil
	}
	for i := range p.argArena {
		p.argArena[i] = Value{}
	}
	sc.kstack = p.kstack[:0]
	sc.kvals = p.kvals[:0]
	sc.kxs = p.kxs[:0]
	sc.cframes = p.cframes[:0]
	sc.slotMem = p.slotMem[:0]
	sc.argArena = p.argArena[:0]
	sc.retSlots = p.retSlots
	p.kstack, p.kvals, p.kxs = nil, nil, nil
	p.cframes, p.slotMem, p.argArena, p.retSlots = nil, nil, nil, nil
	scratchPool.Put(sc)
}

// finish is the context completion path: record the result, recycle the
// stack slot, wake joiners.
func (p *Proc) finish(v Value, err error) {
	switch err {
	case nil, errThreadExit:
		p.Ret = v
	default:
		p.Sim.fail(fmt.Errorf("proc %d (core %d): %w", p.ID, p.Core, err))
	}
	if p.trace != nil {
		p.trace.TraceSuspend(p.ID, p.Core, p.Clock, SuspendFinish, ReasonNone)
	}
	p.State = Done
	s := p.Sim
	s.done++
	s.freeStacks[p.Core] = append(s.freeStacks[p.Core], p.stackIdx)
	p.releaseScratch()
	if s.Runtime != nil {
		s.Runtime.OnExit(p)
	}
}
