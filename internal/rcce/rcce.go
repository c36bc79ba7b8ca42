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

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/interp"
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

// Runtime implements interp.Runtime for translated RCCE programs.
type Runtime struct {
	sim  *interp.Sim
	opts Options
	ues  []int // rank -> core
	// rankByProc resolves a context to its rank; with many-to-one
	// mapping several contexts share a core, so core identity is not
	// enough.
	rankByProc map[*interp.Proc]int
	rankByCore map[int]int

	shared struct {
		cursor uint32
		allocs []allocation
		seq    map[*interp.Proc]int
	}
	mpb struct {
		cursor uint32
		allocs []allocation
		seq    map[*interp.Proc]int
	}
	barrier struct {
		arrived int
		release sccsim.Time
		waiting []*interp.Proc
	}
	// sendrecv tracks two-sided messaging (sendrecv.go).
	sendrecv *sendState
}

// New attaches an RCCE runtime to sim. Scheduling uses the session's
// default min-clock policy.
func New(sim *interp.Sim, opts Options) (*Runtime, error) {
	ues := opts.Cores
	if ues == nil {
		if opts.NumUEs <= 0 {
			return nil, fmt.Errorf("rcce: no UEs configured")
		}
		for i := 0; i < opts.NumUEs; i++ {
			ues = append(ues, i%sim.Machine.Cores())
		}
	}
	shared := false
	seen := make(map[int]bool)
	for _, c := range ues {
		if seen[c] {
			shared = true
		}
		seen[c] = true
	}
	if shared && !opts.AllowOversubscribe {
		return nil, fmt.Errorf("rcce: %d UEs on %d cores share cores (set AllowOversubscribe for §7.2 many-to-one mode)",
			len(ues), len(seen))
	}
	rt := &Runtime{
		sim:        sim,
		opts:       opts,
		ues:        ues,
		rankByProc: make(map[*interp.Proc]int),
		rankByCore: make(map[int]int),
	}
	for r, c := range ues {
		rt.rankByCore[c] = r
	}
	if shared {
		// UEs sharing a core are serialised in virtual time.
		sim.Policy = newManyToOne(sim.Machine)
	}
	rt.shared.cursor = sccsim.SharedBase
	rt.shared.seq = make(map[*interp.Proc]int)
	rt.mpb.cursor = sccsim.MPBBase
	rt.mpb.seq = make(map[*interp.Proc]int)
	sim.Runtime = rt
	return rt, nil
}

// NumUEs returns the number of participating units of execution.
func (rt *Runtime) NumUEs() int { return len(rt.ues) }

// RankOf returns the rank of a context: by registration when spawned via
// Run, by core otherwise (single-UE-per-core sessions built by hand).
func (rt *Runtime) RankOf(p *interp.Proc) int {
	if r, ok := rt.rankByProc[p]; ok {
		return r
	}
	return rt.rankByCore[p.Core]
}

// RegisterRank binds a spawned context to its rank; Run does this for
// every UE it creates.
func (rt *Runtime) RegisterRank(p *interp.Proc, rank int) { rt.rankByProc[p] = rank }

// OnExit implements interp.Runtime.
func (rt *Runtime) OnExit(p *interp.Proc) {}

// voidPtrType is the type of the pointers the allocators return, built
// once rather than per call.
var voidPtrType = types.PointerTo(types.VoidType)

// CallBuiltin implements the RCCE API.
//
// Every builtin follows the coroutine resumption protocol (see
// interp.Runtime): the single frame popped here carries the step to
// continue from plus any loop state (acquireLock's backoff), and is
// routed into whichever builtin the name dispatches to. Side effects
// that must not repeat (symmetric allocations, barrier arrival, message
// staging) sit strictly before the suspension that follows them, and no
// builtin yields before committing to handle its call.
func (rt *Runtime) CallBuiltin(p *interp.Proc, name string, args []interp.Value) (interp.Value, bool, error) {
	step := 0
	var sx any
	if p.Resuming() {
		step, sx = p.PopResume()
	}
	if v, handled, err := rt.sendrecvBuiltin(p, name, args, step); handled || err != nil {
		return v, handled, err
	}
	zero := interp.IntValue(types.IntType, 0)
	switch name {
	case "RCCE_init":
		if step == 0 {
			if err := p.ChargeCycles(rt.opts.InitCycles); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return zero, true, nil

	case "RCCE_finalize":
		if step == 0 {
			if err := p.ChargeCycles(1_000); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return zero, true, nil

	case "RCCE_ue":
		if step == 0 {
			if err := p.ChargeCycles(10); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return interp.IntValue(types.IntType, int64(rt.RankOf(p))), true, nil

	case "RCCE_num_ues":
		if step == 0 {
			if err := p.ChargeCycles(10); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return interp.IntValue(types.IntType, int64(len(rt.ues))), true, nil

	case "RCCE_wtime", "wallclock":
		if step == 0 {
			if err := p.ChargeCycles(15); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return interp.FloatValue(types.DoubleType, p.Seconds()), true, nil

	case "RCCE_shmalloc":
		// The symmetric allocator advances a per-context sequence; it
		// must run exactly once, so the charge-yield saves the address.
		addr, _ := sx.(uint32)
		if step == 0 {
			if len(args) < 1 {
				return zero, true, fmt.Errorf("RCCE_shmalloc: missing size")
			}
			var err error
			addr, err = rt.shmalloc(p, int(args[0].Int()))
			if err != nil {
				return zero, true, err
			}
			if err := p.ChargeCycles(300); err != nil {
				p.PushResume(1, addr)
				return zero, true, err
			}
		}
		return interp.PtrValue(voidPtrType, addr), true, nil

	case "RCCE_shfree":
		if step == 0 {
			if err := p.ChargeCycles(50); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return zero, true, nil

	case "RCCE_mpbmalloc", "RCCE_malloc":
		addr, _ := sx.(uint32)
		if step == 0 {
			if len(args) < 1 {
				return zero, true, fmt.Errorf("%s: missing size", name)
			}
			var err error
			addr, err = rt.mpbmalloc(p, name, int(args[0].Int()))
			if err != nil {
				return zero, true, err
			}
			if err := p.ChargeCycles(300); err != nil {
				p.PushResume(1, addr)
				return zero, true, err
			}
		}
		return interp.PtrValue(voidPtrType, addr), true, nil

	case "RCCE_barrier":
		if err := rt.doBarrier(p, step); err != nil {
			return zero, true, err
		}
		return zero, true, nil

	case "RCCE_acquire_lock":
		if step == 0 && len(args) < 1 {
			return zero, true, fmt.Errorf("RCCE_acquire_lock: missing UE")
		}
		if err := rt.acquireLock(p, int(args[0].Int()), step, sx); err != nil {
			return zero, true, err
		}
		return zero, true, nil

	case "RCCE_release_lock":
		if len(args) < 1 {
			return zero, true, fmt.Errorf("RCCE_release_lock: missing UE")
		}
		target := rt.lockTarget(int(args[0].Int()))
		lat := rt.sim.Machine.TASClear(p.Core, target, p.Clock)
		p.Clock += lat
		return zero, true, nil

	case "RCCE_put", "RCCE_get":
		if step == 0 && len(args) < 3 {
			return zero, true, fmt.Errorf("%s: want (dst, src, size, ue)", name)
		}
		if err := rt.bulkCopy(p, name, args[0].Addr(), args[1].Addr(), int(args[2].Int()), step); err != nil {
			return zero, true, err
		}
		return zero, true, nil

	// Power management (thesis §5.1: "procedure calls to the power
	// management API"; frequency changes act on the caller's voltage
	// domain, as on the real chip).
	case "RCCE_power_domain":
		if step == 0 {
			if err := p.ChargeCycles(10); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return interp.IntValue(types.IntType, int64(rt.sim.Machine.DomainOf(p.Core))), true, nil

	case "RCCE_get_frequency":
		if step == 0 {
			if err := p.ChargeCycles(10); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		mhz := rt.sim.Machine.DomainMHz(rt.sim.Machine.DomainOf(p.Core))
		return interp.IntValue(types.IntType, int64(mhz)), true, nil

	case "RCCE_set_frequency":
		if step == 0 {
			if len(args) < 1 {
				return zero, true, fmt.Errorf("RCCE_set_frequency: missing MHz")
			}
			// Changing a domain's voltage and clock stalls it briefly.
			if err := p.ChargeCycles(20_000); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		dom := rt.sim.Machine.DomainOf(p.Core)
		if err := rt.sim.Machine.SetDomainMHz(dom, int(args[0].Int())); err != nil {
			return interp.IntValue(types.IntType, -1), true, nil
		}
		return zero, true, nil

	case "RCCE_chip_power":
		if step == 0 {
			if err := p.ChargeCycles(100); err != nil {
				p.PushResume(1, nil)
				return zero, true, err
			}
		}
		return interp.FloatValue(types.DoubleType, rt.sim.Machine.PowerEstimate()), true, nil
	}
	return interp.Value{}, false, nil
}

// shmalloc is the symmetric off-chip shared allocator. A fresh
// allocation's span is checked before the cursor moves: a negative size
// or one past the shared range is a run error.
func (rt *Runtime) shmalloc(p *interp.Proc, size int) (uint32, error) {
	idx := rt.shared.seq[p]
	rt.shared.seq[p] = idx + 1
	if idx < len(rt.shared.allocs) {
		a := rt.shared.allocs[idx]
		if a.size != size {
			return 0, fmt.Errorf("rcce: rank %d shmalloc #%d size %d diverges from %d",
				rt.RankOf(p), idx, size, a.size)
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
func (rt *Runtime) mpbmalloc(p *interp.Proc, name string, size int) (uint32, error) {
	idx := rt.mpb.seq[p]
	rt.mpb.seq[p] = idx + 1
	if idx < len(rt.mpb.allocs) {
		a := rt.mpb.allocs[idx]
		if a.size != size {
			return 0, fmt.Errorf("rcce: rank %d mpbmalloc #%d size %d diverges from %d",
				rt.RankOf(p), idx, size, a.size)
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
func (rt *Runtime) doBarrier(p *interp.Proc, step int) error {
	if step == 0 {
		if err := p.ChargeCycles(rt.opts.BarrierCycles); err != nil {
			p.PushResume(1, nil)
			return err
		}
	}
	if step <= 1 {
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
			p.PushResume(2, nil)
			return err
		}
	}
	return nil
}

// lockTarget maps a UE number to the core whose test-and-set register
// backs that lock.
func (rt *Runtime) lockTarget(ue int) int {
	if ue >= 0 && ue < len(rt.ues) {
		return rt.ues[ue]
	}
	return rt.ues[0]
}

// acquireLock spins on the target core's test-and-set register. The
// spin iteration has two suspension points — the backoff charge and the
// explicit yield — so the frame carries the current backoff: step 1
// resumes before the doubling (charge done), step 2 after the yield
// (iteration complete, test again).
func (rt *Runtime) acquireLock(p *interp.Proc, ue int, step int, sx any) error {
	target := rt.lockTarget(ue)
	backoff := 50
	if b, ok := sx.(int); ok {
		backoff = b
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
			if err := p.ChargeCycles(backoff); err != nil {
				p.PushResume(1, backoff)
				return err
			}
		}
		if step <= 1 {
			if backoff < 800 {
				backoff *= 2
			}
			if err := p.Yield(); err != nil {
				p.PushResume(2, backoff)
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
func (rt *Runtime) bulkCopy(p *interp.Proc, name string, dst, src uint32, size int, step int) error {
	if step != 0 {
		return nil
	}
	for _, a := range []uint32{src, dst} {
		if err := p.CheckSpan(name, a, int64(size)); err != nil {
			return err
		}
	}
	const line = 32
	buf := make([]byte, line)
	m := rt.sim.Machine
	for off := 0; off < size; off += line {
		n := line
		if size-off < n {
			n = size - off
		}
		p.Clock += m.Load(p.Core, src+uint32(off), buf[:n], p.Clock)
		p.Clock += m.Store(p.Core, dst+uint32(off), buf[:n], p.Clock)
		p.ProfileAccess(src+uint32(off), false)
		p.ProfileAccess(dst+uint32(off), true)
	}
	if err := p.ChargeCycles(costPerCall + size/line); err != nil {
		p.PushResume(1, nil)
		return err
	}
	return nil
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

// EntryPoint returns the program's RCCE entry function: RCCE_APP if
// present (translated programs), else main (hand-written RCCE programs).
func EntryPoint(pr *interp.Program) *ast.FuncDecl {
	if fn := pr.Funcs["RCCE_APP"]; fn != nil {
		return fn
	}
	return pr.Funcs["main"]
}

// Run executes pr on machine m with one process per UE, starting every
// rank at time zero (the SCC launcher starts all cores together).
func Run(pr *interp.Program, m *sccsim.Machine, opts Options) (*Result, error) {
	sim := interp.NewSim(m, pr)
	sim.Observe(opts.Observers)
	rt, err := New(sim, opts)
	if err != nil {
		return nil, err
	}
	entry := EntryPoint(pr)
	if entry == nil {
		return nil, fmt.Errorf("rcce: program has neither RCCE_APP nor main")
	}
	// RCCE_APP(int *argc, char **argv) receives null pointers; the
	// benchmarks do not read their arguments.
	var args []interp.Value
	for range entry.Params {
		args = append(args, interp.IntValue(types.IntType, 0))
	}
	for rank, core := range rt.ues {
		p, err := sim.Spawn(core, entry, args, 0)
		if err != nil {
			return nil, err
		}
		rt.RegisterRank(p, rank)
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
