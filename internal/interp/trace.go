package interp

import "hsmcc/internal/sccsim"

// Scheduler tracing follows the MemProfiler pattern: an interface the
// session owner attaches before Spawn and a nil-check at each hook site.
// Every hook fires from exactly one place in the scheduler, so an
// attached sink observes the same event sequence — same contexts, same
// clocks, same order — for a compiled Program and for its tree-walk
// reference. The hooks only observe (they never charge time or touch
// scheduling state), so simulation output and cycle statistics are
// identical with tracing on or off.
//
// Hook sites:
//
//   - TraceSpawn: Sim.Spawn.
//   - TraceResume: the elected context's Runnable→Running transition in
//     the Sim.Run stepping loop. A self-reelected yielder suspends
//     nothing and resumes nothing: its run slice simply continues.
//   - TraceSuspend: Yield after the self-reelect check (kind
//     SuspendYield), Block (SuspendBlock with the reason a BlockFor
//     caller tagged), and finish (SuspendFinish).
//   - TraceUnblock: Proc.Unblock's Blocked→Runnable edge, after the
//     clock advanced to the release time.
//   - TraceSpin: Proc.NoteSpin, called by runtimes once per failed
//     test-and-set round of a spin lock.
//
// The suspend event carries the context's clock at the moment it gave
// up the processor; the resume event carries its clock when it next got
// it (which may be later — the scheduler charges a change of occupant
// when it elects). A recorder reconstructs per-context run slices as
// [resume clock, suspend clock] and blocked intervals as
// [suspend clock, unblock clock].

// SuspendKind says why a context gave up the processor.
type SuspendKind uint8

// Suspension kinds.
const (
	SuspendYield  SuspendKind = iota // cooperative yield, still runnable
	SuspendBlock                     // parked until Unblock
	SuspendFinish                    // context completed
)

// BlockReason classifies a SuspendBlock for the stall breakdown.
// Runtimes tag their Block calls through BlockFor.
type BlockReason uint8

// Block reasons.
const (
	ReasonNone    BlockReason = iota
	ReasonMutex               // pthread_mutex_lock wait
	ReasonBarrier             // RCCE_barrier wait
	ReasonJoin                // pthread_join wait
	ReasonSend                // rendezvous send waiting for the drain
	ReasonRecv                // rendezvous recv waiting for the message
)

// String returns the stable lower-case name used in trace exports.
func (r BlockReason) String() string {
	switch r {
	case ReasonMutex:
		return "mutex"
	case ReasonBarrier:
		return "barrier"
	case ReasonJoin:
		return "join"
	case ReasonSend:
		return "send"
	case ReasonRecv:
		return "recv"
	}
	return "block"
}

// NumBlockReasons is the size of the BlockReason enumeration (for
// fixed-size per-reason accumulators).
const NumBlockReasons = int(ReasonRecv) + 1

// TraceSink observes scheduling events of a session. Implementations
// must be cheap and need no locking (one context of a session runs at a
// time, and the hooks fire from the scheduling paths only — never from
// the per-access memory hot path). A nil sink — the default — costs a
// single pointer check per context switch.
type TraceSink interface {
	TraceSpawn(ctx, core int, at sccsim.Time)
	TraceResume(ctx, core int, at sccsim.Time)
	TraceSuspend(ctx, core int, at sccsim.Time, kind SuspendKind, reason BlockReason)
	TraceUnblock(ctx, core int, at sccsim.Time)
	TraceSpin(ctx, core int, at sccsim.Time, backoff int)
}

// MachineBinder is implemented by trace sinks that sample machine state
// (per-core counters). Sim.Observe binds the session's machine when it
// installs the sink, before the first spawn, so sinks can be constructed
// before the machine exists.
type MachineBinder interface {
	BindMachine(m *sccsim.Machine)
}

// BlockFor parks the context like Block, tagging the suspension with
// the reason a trace sink sees. The tag is consumed by the one Block it
// precedes (a plain Block reports ReasonNone).
func (p *Proc) BlockFor(r BlockReason) error {
	p.blockReason = r
	return p.Block()
}

// NoteSpin reports one failed test-and-set round of a spin lock (with
// the backoff about to be charged, in cycles) to the session trace.
// Call it exactly once per failed round, before any yield propagates,
// so a suspended round is never counted twice.
func (p *Proc) NoteSpin(backoff int) {
	if p.trace != nil {
		p.trace.TraceSpin(p.ID, p.Core, p.Clock, backoff)
	}
}
