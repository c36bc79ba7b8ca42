// Package rcce is the Go analogue of the RCCE 2.0 communication library
// the translated programs target (van der Wijngaart et al. [29]): one
// process per core ("unit of execution"), a symmetric shared-memory
// allocator over the off-chip shared DRAM, an on-chip allocator over the
// Message Passing Buffer, barriers, test-and-set locks and one-sided
// put/get. Each API call charges SCC-realistic costs through the machine
// model.
//
// Allocation symmetry: like the real RCCE_shmalloc, the allocators return
// the same address on every rank for the same call sequence. The runtime
// enforces this — ranks must issue identical allocation sequences (the
// translator guarantees it by hoisting allocations to the top of
// RCCE_APP), and a divergent size is reported as an error.
package rcce

import (
	"fmt"
	"slices"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/interp"
	"hsmcc/internal/park"
	"hsmcc/internal/sccsim"
)

// Params are the RCCE runtime's scalar parameters: plain data,
// comparable, and — with the UE-to-core map in Options.Cores —
// everything about the runtime a run's result depends on. A cache key
// over an RCCE run embeds this struct as is.
type Params struct {
	// NumUEs is the number of participating units of execution when
	// Options.Cores is nil.
	NumUEs int
	// StripeMPB block-distributes on-chip allocations across the
	// participants' MPB sections so each rank's slice is local
	// (disabled for the placement ablation: everything lands in rank
	// 0's section).
	StripeMPB bool
	// AllowOversubscribe enables the thesis §7.2 many-to-one mode: when
	// NumUEs exceeds the core count, ranks are assigned round-robin and
	// UEs sharing a core are time-multiplexed (with context-switch
	// costs) instead of being rejected.
	AllowOversubscribe bool
	// InitCycles/BarrierCycles are the library costs of RCCE_init and
	// each barrier visit.
	InitCycles    int
	BarrierCycles int
}

// Options configures an RCCE execution: the Params and the core map a
// run's result depends on, and the per-run observers it does not.
type Options struct {
	Params
	// Cores lists the physical cores of the participating UEs; rank i
	// runs on Cores[i]. Nil means cores 0..N-1. It is identity like
	// Params (who touches a partition from how far decides a placement's
	// result) and enters a cache key as its canonical text.
	Cores []int
	// Observers: profiling runs of the `profiled` placement policy set
	// Profiler.
	interp.Observers
	// AllocObserver, when non-nil, is told about each symmetric
	// allocation the moment it is created (not on the replaying ranks),
	// which lets a profiler label the allocator's address ranges with
	// the shared variables they back.
	AllocObserver AllocObserver
}

// AllocObserver observes symmetric allocations. seq is the allocation's
// index within its region (off-chip shmalloc and on-chip mpbmalloc
// count separately), matching the translator's emission order.
type AllocObserver interface {
	NoteAlloc(onChip bool, seq int, addr uint32, size int)
}

// DefaultOptions returns the runtime configuration used by the harness.
func DefaultOptions(numUEs int) Options {
	return Options{Params: Params{
		NumUEs:        numUEs,
		StripeMPB:     true,
		InitCycles:    50_000,
		BarrierCycles: 600,
	}}
}

type allocation struct {
	addr uint32
	size int
}

// allocator is one symmetric allocator: the next free address, every
// allocation made so far in call order, and each context's position in
// that sequence by Proc.ID (dense within the session).
type allocator struct {
	cursor uint32
	allocs []allocation
	seq    []int
}

// next returns p's position in the allocation sequence and advances it.
func (a *allocator) next(p *interp.Proc) int {
	for len(a.seq) <= p.ID {
		a.seq = append(a.seq, 0)
	}
	idx := a.seq[p.ID]
	a.seq[p.ID]++
	return idx
}

// barrier is the state of the one RCCE barrier: arrivals so far, the
// latest arrival time and the contexts blocked in it.
type barrier struct {
	arrived int
	release sccsim.Time
	waiting []*interp.Proc
}

// library implements interp.Runtime for translated RCCE programs. A
// rank is its context's Proc.ID: Run spawns the ranks in order on a
// fresh session.
type library struct {
	sim  *interp.Sim
	opts Options
	ues  []int // rank -> core
	// uesBuf holds ues when Options.Cores is nil.
	uesBuf []int
	// seen marks the cores newLibrary has met in the UE list.
	seen []bool

	shared  allocator
	mpb     allocator
	barrier barrier
	// sendrecv tracks two-sided messaging (sendrecv.go).
	sendrecv *sendState
}

// Many-to-one mode (thesis §7.2, after Cichowski et al. [6], who run
// several RCCE UEs on one core): a UE keeps its core for quantumCycles,
// and each change of UE on a core costs switchCycles and an L1 flush.
const quantumCycles, switchCycles = 10_000, 1_500

// parked holds the tables of finished runs for the next newLibrary.
var parked park.Lot[*library]

// newLibrary attaches an RCCE runtime to sim. Scheduling keeps the
// session's one-to-one default unless UEs share cores. Its tables come
// from a finished run's when one is parked.
func newLibrary(sim *interp.Sim, opts Options) (*library, error) {
	rt, _ := parked.Take()
	if rt == nil {
		rt = new(library)
	}
	cores := sim.Machine.Cores()
	ues := opts.Cores
	if ues == nil {
		if opts.NumUEs <= 0 {
			rt.release()
			return nil, fmt.Errorf("rcce: no UEs configured")
		}
		for i := 0; i < opts.NumUEs; i++ {
			rt.uesBuf = append(rt.uesBuf, i%cores)
		}
		ues = rt.uesBuf
	}
	// Cores outside the machine are counted here and rejected by Spawn.
	// release leaves seen empty and zero up to its capacity.
	rt.seen = slices.Grow(rt.seen, cores)[:cores]
	shared, distinct := false, 0
	var outside map[int]bool
	for _, c := range ues {
		var dup bool
		if c >= 0 && c < cores {
			dup, rt.seen[c] = rt.seen[c], true
		} else {
			if outside == nil {
				outside = make(map[int]bool)
			}
			dup, outside[c] = outside[c], true
		}
		if dup {
			shared = true
		} else {
			distinct++
		}
	}
	if shared && !opts.AllowOversubscribe {
		rt.release()
		return nil, fmt.Errorf("rcce: %d UEs on %d cores share cores (set AllowOversubscribe for §7.2 many-to-one mode)",
			len(ues), distinct)
	}
	rt.sim, rt.opts, rt.ues = sim, opts, ues
	if shared {
		// UEs sharing a core are serialised in virtual time.
		sim.TimeShare(quantumCycles, switchCycles, true)
	}
	rt.shared.cursor = sccsim.SharedBase
	rt.mpb.cursor = sccsim.MPBBase
	sim.Runtime = rt
	return rt, nil
}

// release empties rt and parks it for the next newLibrary: every table
// keeps its capacity, everything else is zero. Run calls it once its
// Result is built.
func (rt *library) release() {
	clear(rt.seen)
	clear(rt.barrier.waiting)
	*rt = library{
		uesBuf:  rt.uesBuf[:0],
		seen:    rt.seen[:0],
		shared:  allocator{allocs: rt.shared.allocs[:0], seq: rt.shared.seq[:0]},
		mpb:     allocator{allocs: rt.mpb.allocs[:0], seq: rt.mpb.seq[:0]},
		barrier: barrier{waiting: rt.barrier.waiting[:0]},
	}
	parked.Put(rt)
}

// OnExit implements interp.Runtime.
func (rt *library) OnExit(p *interp.Proc) {}

// voidPtrType is the type of the pointers the allocators return, built
// once rather than per call.
var voidPtrType = types.PointerTo(types.VoidType)

// CallBuiltin implements the RCCE API under the builtin protocol of
// interp.Runtime: the step and state of the builtin's saved frame are
// routed into whichever builtin the name dispatches to, the state being
// an allocator's address or acquireLock's backoff. Side effects that
// must not repeat (symmetric allocations, barrier arrival, message
// staging) sit strictly before the suspension that follows them.
func (rt *library) CallBuiltin(p *interp.Proc, name string, args []interp.Value, step int, state int64) (interp.Value, bool, error) {
	if v, handled, err := rt.sendrecvBuiltin(p, name, args, step); handled || err != nil {
		return v, handled, err
	}
	zero := interp.IntValue(types.IntType, 0)
	switch name {
	case "RCCE_init":
		return zero, true, p.ChargeStep(step, rt.opts.InitCycles, 0)

	case "RCCE_finalize":
		return zero, true, p.ChargeStep(step, 1_000, 0)

	case "RCCE_ue":
		return interp.IntValue(types.IntType, int64(p.ID)), true, p.ChargeStep(step, 10, 0)

	case "RCCE_num_ues":
		return interp.IntValue(types.IntType, int64(len(rt.ues))), true, p.ChargeStep(step, 10, 0)

	case "RCCE_wtime", "wallclock":
		if err := p.ChargeStep(step, 15, 0); err != nil {
			return zero, true, err
		}
		return interp.FloatValue(types.DoubleType, p.Seconds()), true, nil

	case "RCCE_shmalloc", "RCCE_mpbmalloc", "RCCE_malloc":
		// The symmetric allocators advance a per-context sequence; they
		// must run exactly once, so the charge-yield saves the address.
		addr := uint32(state)
		if step == 0 {
			if len(args) < 1 {
				return zero, true, fmt.Errorf("%s: missing size", name)
			}
			var err error
			if name == "RCCE_shmalloc" {
				addr, err = rt.shmalloc(p, int(args[0].Int()))
			} else {
				addr, err = rt.mpbmalloc(p, name, int(args[0].Int()))
			}
			if err != nil {
				return zero, true, err
			}
		}
		return interp.PtrValue(voidPtrType, addr), true, p.ChargeStep(step, 300, int64(addr))

	case "RCCE_shfree":
		return zero, true, p.ChargeStep(step, 50, 0)

	case "RCCE_barrier":
		return zero, true, rt.doBarrier(p, step)

	case "RCCE_acquire_lock":
		if len(args) < 1 {
			return zero, true, fmt.Errorf("RCCE_acquire_lock: missing UE")
		}
		return zero, true, rt.acquireLock(p, int(args[0].Int()), step, int(state))

	case "RCCE_release_lock":
		if len(args) < 1 {
			return zero, true, fmt.Errorf("RCCE_release_lock: missing UE")
		}
		target := rt.lockTarget(int(args[0].Int()))
		lat := rt.sim.Machine.TASClear(p.Core, target, p.Clock)
		p.Clock += lat
		return zero, true, nil

	case "RCCE_put", "RCCE_get":
		if len(args) < 3 {
			return zero, true, fmt.Errorf("%s: want (dst, src, size, ue)", name)
		}
		return zero, true, rt.bulkCopy(p, name, args[0].Addr(), args[1].Addr(), int(args[2].Int()), step)

	// Power management (thesis §5.1: "procedure calls to the power
	// management API"; frequency changes act on the caller's voltage
	// domain, as on the real chip).
	case "RCCE_power_domain":
		return interp.IntValue(types.IntType, int64(rt.sim.Machine.DomainOf(p.Core))), true, p.ChargeStep(step, 10, 0)

	case "RCCE_get_frequency":
		if err := p.ChargeStep(step, 10, 0); err != nil {
			return zero, true, err
		}
		mhz := rt.sim.Machine.DomainMHz(rt.sim.Machine.DomainOf(p.Core))
		return interp.IntValue(types.IntType, int64(mhz)), true, nil

	case "RCCE_set_frequency":
		if len(args) < 1 {
			return zero, true, fmt.Errorf("RCCE_set_frequency: missing MHz")
		}
		// Changing a domain's voltage and clock stalls it briefly.
		if err := p.ChargeStep(step, 20_000, 0); err != nil {
			return zero, true, err
		}
		dom := rt.sim.Machine.DomainOf(p.Core)
		if err := rt.sim.SetDomainMHz(dom, int(args[0].Int())); err != nil {
			return interp.IntValue(types.IntType, -1), true, nil
		}
		return zero, true, nil

	case "RCCE_chip_power":
		if err := p.ChargeStep(step, 100, 0); err != nil {
			return zero, true, err
		}
		return interp.FloatValue(types.DoubleType, rt.sim.Machine.PowerEstimate()), true, nil
	}
	return interp.Value{}, false, nil
}

// shmalloc is the symmetric off-chip shared allocator. A fresh
// allocation's span is checked before the cursor moves: a negative size
// or one past the shared range is a run error.
func (rt *library) shmalloc(p *interp.Proc, size int) (uint32, error) {
	idx := rt.shared.next(p)
	if idx < len(rt.shared.allocs) {
		a := rt.shared.allocs[idx]
		if a.size != size {
			return 0, fmt.Errorf("rcce: rank %d shmalloc #%d size %d diverges from %d",
				p.ID, idx, size, a.size)
		}
		return a.addr, nil
	}
	addr := (rt.shared.cursor + 31) &^ 31
	if err := p.CheckSpan("RCCE_shmalloc", addr, int64(size)); err != nil {
		return 0, err
	}
	rt.shared.cursor = addr + uint32(size)
	rt.shared.allocs = append(rt.shared.allocs, allocation{addr, size})
	if rt.opts.AllocObserver != nil {
		rt.opts.AllocObserver.NoteAlloc(false, idx, addr, size)
	}
	return addr, nil
}

// mpbmalloc is the symmetric on-chip allocator behind the builtin name;
// allocations are striped across the participants' MPB sections unless
// disabled. A negative size is a run error before the cursor moves.
func (rt *library) mpbmalloc(p *interp.Proc, name string, size int) (uint32, error) {
	idx := rt.mpb.next(p)
	if idx < len(rt.mpb.allocs) {
		a := rt.mpb.allocs[idx]
		if a.size != size {
			return 0, fmt.Errorf("rcce: rank %d mpbmalloc #%d size %d diverges from %d",
				p.ID, idx, size, a.size)
		}
		return a.addr, nil
	}
	addr := (rt.mpb.cursor + 31) &^ 31
	total := rt.sim.Machine.Config().MPBTotal()
	if int64(addr)+int64(size) > int64(sccsim.MPBBase)+int64(total) {
		return 0, fmt.Errorf("rcce: MPB exhausted (%d bytes requested beyond %d total)", size, total)
	}
	if err := p.CheckSpan(name, addr, int64(size)); err != nil {
		return 0, err
	}
	rt.mpb.cursor = addr + uint32(size)
	rt.mpb.allocs = append(rt.mpb.allocs, allocation{addr, size})
	if rt.opts.AllocObserver != nil {
		rt.opts.AllocObserver.NoteAlloc(true, idx, addr, size)
	}
	if rt.opts.StripeMPB && len(rt.ues) > 1 {
		chunk := (size + len(rt.ues) - 1) / len(rt.ues)
		chunk = (chunk + 31) &^ 31
		if chunk > 0 {
			rt.sim.Machine.MapMPB(addr, size, rt.ues, chunk)
		}
	} else {
		rt.sim.Machine.MapMPB(addr, size, rt.ues[:1], size+31)
	}
	return addr, nil
}

// doBarrier implements a dissemination-cost barrier: everyone waits for
// the last arriver, then resumes at the release time. Steps: 0 the
// arrival charge; 1 arrival bookkeeping + block; 2 woken at release.
func (rt *library) doBarrier(p *interp.Proc, step int) error {
	if err := p.ChargeStep(step, rt.opts.BarrierCycles, 0); err != nil || step > 1 {
		return err
	}
	b := &rt.barrier
	if p.Clock > b.release {
		b.release = p.Clock
	}
	b.arrived++
	if b.arrived == len(rt.ues) {
		release := b.release
		for _, w := range b.waiting {
			w.Unblock(release)
		}
		b.waiting = b.waiting[:0]
		b.arrived = 0
		b.release = 0
		if release > p.Clock {
			p.Clock = release
		}
		return nil
	}
	b.waiting = append(b.waiting, p)
	if err := p.BlockFor(interp.ReasonBarrier); err != nil {
		p.PushResume(2, 0)
		return err
	}
	return nil
}

// lockTarget maps a UE number to the core whose test-and-set register
// backs that lock. A number past the last UE falls back to rank 0's
// register: the translator turns mutex k into lock k, and a program may
// have more mutexes than UEs.
func (rt *library) lockTarget(ue int) int {
	if ue >= 0 && ue < len(rt.ues) {
		return rt.ues[ue]
	}
	return rt.ues[0]
}

// acquireLock spins on the target core's test-and-set register. The
// spin iteration has two suspension points — the backoff charge and the
// explicit yield — so the frame carries the current backoff (0 before
// the first round): step 1 resumes before the doubling (charge done),
// step 2 after the yield (iteration complete, test again).
func (rt *library) acquireLock(p *interp.Proc, ue int, step int, backoff int) error {
	target := rt.lockTarget(ue)
	if backoff == 0 {
		backoff = 50
	}
	for {
		if step == 0 {
			ok, lat := rt.sim.Machine.TestAndSet(p.Core, target, p.Clock)
			p.Clock += lat
			if ok {
				return nil
			}
			// One failed round, reported before the backoff charge can
			// suspend (the step guard keeps it exactly-once per round).
			p.NoteSpin(backoff)
		}
		if err := p.ChargeStep(step, backoff, int64(backoff)); err != nil {
			return err
		}
		if step <= 1 {
			if backoff < 800 {
				backoff *= 2
			}
			if err := p.Yield(); err != nil {
				p.PushResume(2, int64(backoff))
				return err
			}
		}
		step = 0
	}
}

// bulkCopy moves size bytes line-by-line with full memory timing: the
// transfer cost of RCCE_put/RCCE_get (name). Both spans are checked
// before anything is copied or charged. Only the trailing charge can
// yield; the copies complete before it.
func (rt *library) bulkCopy(p *interp.Proc, name string, dst, src uint32, size int, step int) error {
	if step != 0 {
		return nil
	}
	for _, a := range []uint32{src, dst} {
		if err := p.CheckSpan(name, a, int64(size)); err != nil {
			return err
		}
	}
	var buf [lineBytes]byte
	m := rt.sim.Machine
	eachLine(size, func(off uint32, n int) {
		p.Clock += m.Load(p.Core, src+off, buf[:n], p.Clock)
		p.Clock += m.Store(p.Core, dst+off, buf[:n], p.Clock)
		p.ProfileAccess(src+off, false)
		p.ProfileAccess(dst+off, true)
	})
	return p.ChargeStep(step, costPerCall+size/lineBytes, 0)
}

// lineBytes is the granularity of every RCCE copy: one cache line.
const lineBytes = 32

// eachLine calls f(off, n) for each line of a size-byte span in order,
// n being the line's length (the last may be shorter): the walk shared
// by put/get and the send/recv staging and drain.
func eachLine(size int, f func(off uint32, n int)) {
	for off := 0; off < size; off += lineBytes {
		f(uint32(off), min(lineBytes, size-off))
	}
}

const costPerCall = 40

// Result summarises one RCCE run.
type Result struct {
	Makespan sccsim.Time
	Output   string
	Stats    sccsim.CoreStats
	// OnChipBytes is how much MPB space the program allocated.
	OnChipBytes int
	// SharedBytes is how much off-chip shared memory it allocated.
	SharedBytes int
}

// Seconds returns the makespan in seconds.
func (r *Result) Seconds() float64 { return float64(r.Makespan) / sccsim.PsPerSecond }

// entryPoint returns the program's RCCE entry function: RCCE_APP if
// present (translated programs), else main (hand-written RCCE programs).
func entryPoint(pr *interp.Program) *ast.FuncDecl {
	if fn := pr.Funcs["RCCE_APP"]; fn != nil {
		return fn
	}
	return pr.Funcs["main"]
}

// Run executes pr on machine m with one process per UE, starting every
// rank at time zero (the SCC launcher starts all cores together). On
// every return path it releases the session and the runtime's tables
// once the Result is built.
func Run(pr *interp.Program, m *sccsim.Machine, opts Options) (*Result, error) {
	sim := interp.NewSim(m, pr)
	defer sim.Release()
	sim.Observe(opts.Observers)
	rt, err := newLibrary(sim, opts)
	if err != nil {
		return nil, err
	}
	defer rt.release()
	entry := entryPoint(pr)
	if entry == nil {
		return nil, fmt.Errorf("rcce: program has neither RCCE_APP nor main")
	}
	// RCCE_APP(int *argc, char **argv) receives null pointers; the
	// benchmarks do not read their arguments. Spawn copies them.
	var argBuf [2]interp.Value
	args := argBuf[:0]
	for range entry.Params {
		args = append(args, interp.IntValue(types.IntType, 0))
	}
	for _, core := range rt.ues {
		if _, err := sim.Spawn(core, entry, args, 0); err != nil {
			return nil, err
		}
	}
	if err := sim.Run(); err != nil {
		return nil, err
	}
	res := &Result{
		Makespan:    sim.Makespan(),
		Output:      sim.Output(),
		Stats:       m.TotalStats(),
		OnChipBytes: int(rt.mpb.cursor - sccsim.MPBBase),
		SharedBytes: int(rt.shared.cursor - sccsim.SharedBase),
	}
	return res, nil
}
