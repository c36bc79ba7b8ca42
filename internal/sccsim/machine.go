package sccsim

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Machine is one simulated SCC chip: storage plus a timing model. It is
// not safe for concurrent use; the interpreter's scheduler guarantees a
// single execution context touches it at a time (DESIGN.md §8).
type Machine struct {
	cfg Config

	// Derived timing constants (picoseconds).
	basePeriod Time
	hopTime    Time
	l1Hit      Time
	l2Hit      Time
	mpbAccess  Time
	mcLatency  Time
	mcOccupy   Time
	dirtyEvict Time

	// Derived geometry, resolved once from the config so the access hot
	// path never re-derives tile or controller mapping.
	coresPerTile int
	mpbStride    int
	mcPos        []meshPos
	coreMC       []int32
	coreMCHops   []int32

	// cores and mcs are value slabs, and every store below is
	// first-touch: building a machine is a fixed number of allocations
	// whatever its core count, and no core owns a heap object before
	// its first access. cores, shared and mpb come from store, which
	// Release hands to the next machine of the same shape.
	cores  []coreState
	mcs    []memController
	shared PageMem
	// mpb holds the prefix of the MPB the run has touched, claimed by
	// the first MPB access and grown by later ones (mpbSpan): the
	// Pthread baseline and off-chip placements never touch it.
	mpb   []byte
	store *storage
	// mpbRanges records striped allocations so remote-vs-local MPB
	// latency reflects data placement; addresses outside any range
	// default to the section owner (addr / MPBStride).
	mpbRanges []mpbRange
	tas       []bool
	// fault is the first out-of-map access (Fault).
	fault error
}

type coreState struct {
	l1    Cache
	l2    Cache
	priv  PageMem
	timer CoreTimer // current core period under DVFS + compute-time accumulator
	// Derived per-core latencies, recomputed on DVFS changes so the
	// per-access hot path avoids a cycles×period multiply each time.
	l1HitT Time
	l2HitT Time
	dirtyT Time
	stats  CoreStats
}

// CoreTimer is one core's cycle-to-time converter: Period tracks the
// core's DVFS state and Comp accumulates its compute time. The machine
// hands out a stable pointer per core (Timer) so the interpreter can
// charge compute cycles with one multiply and two adds — no machine or
// core-state re-resolution on the per-operation hot path.
type CoreTimer struct {
	Period Time
	Comp   Time
}

// Cycles converts a cycle count on this core into time, accounting it.
func (t *CoreTimer) Cycles(n int) Time {
	d := Time(n) * t.Period
	t.Comp += d
	return d
}

// Timer returns core's timer handle; it stays valid across DVFS changes.
func (m *Machine) Timer(core int) *CoreTimer { return &m.cores[core].timer }

// setPeriod installs a core period and its derived latencies.
func (cs *coreState) setPeriod(cfg *Config, period Time) {
	cs.timer.Period = period
	cs.l1HitT = Time(cfg.L1HitCycles) * period
	cs.l2HitT = Time(cfg.L2HitCycles) * period
	cs.dirtyT = Time(cfg.DirtyEvictCycles) * period
}

// CoreStats counts one core's memory traffic and time.
type CoreStats struct {
	Loads, Stores     uint64
	PrivateAccesses   uint64
	SharedAccesses    uint64
	MPBAccesses       uint64
	MPBRemote         uint64
	L1Hits, L1Misses  uint64
	L2Hits, L2Misses  uint64
	MemTime, CompTime Time
}

// Delta returns the counter increments since prev (a snapshot of the
// same core taken earlier). Counters only grow, so the result is the
// traffic of the interval; trace recorders sample it per run slice.
func (s CoreStats) Delta(prev CoreStats) CoreStats {
	return CoreStats{
		Loads:           s.Loads - prev.Loads,
		Stores:          s.Stores - prev.Stores,
		PrivateAccesses: s.PrivateAccesses - prev.PrivateAccesses,
		SharedAccesses:  s.SharedAccesses - prev.SharedAccesses,
		MPBAccesses:     s.MPBAccesses - prev.MPBAccesses,
		MPBRemote:       s.MPBRemote - prev.MPBRemote,
		L1Hits:          s.L1Hits - prev.L1Hits,
		L1Misses:        s.L1Misses - prev.L1Misses,
		L2Hits:          s.L2Hits - prev.L2Hits,
		L2Misses:        s.L2Misses - prev.L2Misses,
		MemTime:         s.MemTime - prev.MemTime,
		CompTime:        s.CompTime - prev.CompTime,
	}
}

type memController struct {
	freeAt   Time
	busy     Time
	requests uint64
}

type mpbRange struct {
	start, end uint32
	owners     []int // chunked round-robin ownership
	chunk      uint32
}

// New builds a machine from cfg. Uncore latencies (mesh hops, MPB SRAM,
// memory controllers) are derived from the base CoreMHz clock once, here;
// frequency tiers (and later DVFS changes) scale only the core-domain
// latencies, exactly as SetDomainMHz does.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newMachine(cfg, takeStorage(&cfg)), nil
}

// newMachine builds a machine of cfg on st, empty storage of cfg's shape
// (fresh or released: the code path is the same).
func newMachine(cfg Config, st *storage) *Machine {
	period := cfg.CorePeriod()
	m := &Machine{
		cfg:          cfg,
		basePeriod:   period,
		hopTime:      Time(cfg.HopCycles) * period,
		l1Hit:        Time(cfg.L1HitCycles) * period,
		l2Hit:        Time(cfg.L2HitCycles) * period,
		mpbAccess:    Time(cfg.MPBAccessCycles) * period,
		mcLatency:    Time(cfg.MCLatencyCycles) * period,
		mcOccupy:     Time(cfg.MCOccupancyCycles) * period,
		dirtyEvict:   Time(cfg.DirtyEvictCycles) * period,
		coresPerTile: cfg.TileCores(),
		mpbStride:    cfg.MPBStride(),
		cores:        st.cores,
		mcs:          make([]memController, cfg.MemControllers),
		shared:       st.shared,
		tas:          make([]bool, cfg.Cores),
		store:        st,
	}
	st.cores, st.shared = nil, PageMem{}
	mm := meshMapOf(&cfg)
	m.mcPos, m.coreMC, m.coreMCHops = mm.mcPos, mm.coreMC, mm.coreMCHops
	// The storage is empty (takeStorage), but its counters and clocks
	// are whatever its last run left: every core starts from zero here.
	for i := range m.cores {
		cs := &m.cores[i]
		cs.stats = CoreStats{}
		cs.timer = CoreTimer{}
		corePeriod := period
		if len(cfg.Tiers) > 0 {
			corePeriod = Time(1e6 / uint64(cfg.TierMHz(i)))
		}
		cs.setPeriod(&m.cfg, corePeriod)
	}
	return m
}

// MustNew builds a machine or panics; for tests and examples.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cores returns the core count.
func (m *Machine) Cores() int { return len(m.cores) }

// CorePeriodOf returns core's current cycle duration (DVFS-aware).
func (m *Machine) CorePeriodOf(core int) Time { return m.cores[core].timer.Period }

// ComputeTime converts an instruction cycle count on core into time and
// records it.
func (m *Machine) ComputeTime(core int, cycles int) Time {
	return m.cores[core].timer.Cycles(cycles)
}

// ---------------------------------------------------------------------------
// Data movement
// ---------------------------------------------------------------------------

// Load reads len(buf) bytes at addr on behalf of core and returns the
// access latency starting from now. Load and Store are the movers of
// multi-word copies (memcpy, memset, RCCE put/get/send/recv) and the
// fall-through of the word path; a typed access of at most eight bytes
// goes through LoadWord/StoreWord.
func (m *Machine) Load(core int, addr uint32, buf []byte, now Time) Time {
	m.move(core, addr, buf, false, "load")
	m.cores[core].stats.Loads++
	return m.accessTime(core, addr, false, now)
}

// Store writes data at addr on behalf of core and returns the latency.
func (m *Machine) Store(core int, addr uint32, data []byte, now Time) Time {
	m.move(core, addr, data, true, "store")
	m.cores[core].stats.Stores++
	return m.accessTime(core, addr, true, now)
}

// LoadWord reads the little-endian word of size bytes (1, 2, 4 or 8) at
// addr on behalf of core, zero-extended, and returns it with the access
// latency starting from now. Another width within a page is counted and
// timed but moves no data: only a load of a type with no value
// representation has one, and the interpreter fails that load.
func (m *Machine) LoadWord(core int, addr uint32, size int, now Time) (uint64, Time) {
	return m.word(core, addr, size, false, 0, now)
}

// StoreWord writes the low size bytes of v at addr, little-endian, on
// behalf of core and returns the latency.
func (m *Machine) StoreWord(core int, addr uint32, size int, v uint64, now Time) Time {
	_, lat := m.word(core, addr, size, true, v, now)
	return lat
}

// word is the access path of every typed load and store the interpreter
// executes, so it decides each thing once: one core-state resolution,
// one address classification, the word read or written in place in its
// resident page or the MPB array, and one timing function — the same
// one accessTime hands a bulk access of that class. Whatever the
// straight line does not cover (a word straddling a page, an MPB not
// yet allocated, an address outside the map) takes the bulk path, which
// counts and times the access identically and records any fault.
func (m *Machine) word(core int, addr uint32, size int, write bool, v uint64, now Time) (uint64, Time) {
	cs := &m.cores[core]
	off := int(addr & pageMask)
	var b []byte
	var lat Time
	switch {
	case off+size > pageSize:
		return m.wordBulk(core, addr, size, write, v, now)
	case addr >= MPBBase:
		o := int(addr - MPBBase)
		if o+size > len(m.mpb) {
			return m.wordBulk(core, addr, size, write, v, now)
		}
		b = m.mpb[o:]
		lat = m.mpbTime(cs, core, addr, write)
	case addr >= SharedBase:
		b = m.shared.page(addr - SharedBase)[off:]
		lat = m.sharedTime(cs, core, addr, write, now)
	case addr-PrivateBase >= PrivateLimit-PrivateBase:
		return m.wordBulk(core, addr, size, write, v, now)
	default:
		b = cs.priv.page(addr)[off:]
		lat = m.privateTime(cs, core, addr, write, now)
	}
	cs.stats.MemTime += lat
	if write {
		cs.stats.Stores++
		switch size {
		case 1:
			b[0] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(b, uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(b, v)
		}
		return 0, lat
	}
	cs.stats.Loads++
	switch size {
	case 1:
		v = uint64(b[0])
	case 2:
		v = uint64(binary.LittleEndian.Uint16(b))
	case 4:
		v = uint64(binary.LittleEndian.Uint32(b))
	case 8:
		v = binary.LittleEndian.Uint64(b)
	}
	return v, lat
}

// wordBulk is word through Load/Store.
func (m *Machine) wordBulk(core int, addr uint32, size int, write bool, v uint64, now Time) (uint64, Time) {
	var buf [8]byte
	if write {
		binary.LittleEndian.PutUint64(buf[:], v)
		return 0, m.Store(core, addr, buf[:size], now)
	}
	lat := m.Load(core, addr, buf[:size], now)
	return binary.LittleEndian.Uint64(buf[:]), lat
}

// ReadBytes copies memory without charging time (used by the runtime for
// printf formatting and by tests).
func (m *Machine) ReadBytes(core int, addr uint32, buf []byte) {
	m.move(core, addr, buf, false, "read")
}

// WriteBytes stores memory without charging time (program loading).
func (m *Machine) WriteBytes(core int, addr uint32, data []byte) {
	m.move(core, addr, data, true, "write")
}

// move copies p into memory at addr (write) or memory at addr into p on
// behalf of core: the bulk path's one address-class switch, and with
// word's the only code that knows the memory map. A span that does not
// lie wholly inside one class of the map — below SharedBase outside
// [PrivateBase, PrivateLimit), across SharedLimit, or past the MPB's
// end — is the op's fault: it moves no data, and a read reads zeros.
func (m *Machine) move(core int, addr uint32, p []byte, write bool, op string) {
	mem := &m.cores[core].priv // first: a released machine panics here, whatever the class
	switch {
	case addr >= MPBBase:
		// mpbSpan's range test in line (mpbSpan is past the inlining
		// budget): an in-range access pays the compare and the copy.
		var b []byte // nil on a fault
		if off := int(addr - MPBBase); off+len(p) <= len(m.mpb) {
			b = m.mpb[off : off+len(p)]
		} else {
			b = m.mpbSpan(core, addr, len(p), op)
		}
		if write {
			copy(b, p)
		} else {
			clear(p[copy(p, b):])
		}
		return
	case addr >= SharedBase && len(p) <= int(SharedLimit-addr):
		mem, addr = &m.shared, addr-SharedBase
	case addr-PrivateBase >= PrivateLimit-PrivateBase || len(p) > int(PrivateLimit-addr):
		m.fail(core, op, len(p), addr, "unmapped")
		if !write {
			clear(p)
		}
		return
	}
	if write {
		mem.Write(addr, p)
	} else {
		mem.Read(addr, p)
	}
}

// mpbSpan returns the n bytes of the MPB at addr, growing the backing
// array to cover them, or nil — recording the fault — when they do not
// all lie inside the MPB. A program can form any address (a cast
// constant, an index run wild), so this is input checking, not an
// invariant.
func (m *Machine) mpbSpan(core int, addr uint32, n int, op string) []byte {
	off := int(addr - MPBBase)
	if total := m.cfg.MPBTotal(); off+n > total {
		m.fail(core, op, n, addr, fmt.Sprintf("outside the MPB (%d bytes)", total))
		return nil
	}
	if off+n > len(m.mpb) {
		m.growMPB(off + n)
	}
	return m.mpb[off : off+n]
}

// fail records core's op of n bytes at addr, which why says the memory
// map does not hold, as the run's fault unless an earlier one was.
func (m *Machine) fail(core int, op string, n int, addr uint32, why string) {
	if m.fault == nil {
		m.fault = fmt.Errorf("core %d: %s of %d bytes at %#x: %s", core, op, n, addr, why)
	}
}

// growMPB extends the MPB's backing array to hold at least its first n
// bytes. The RCCE allocator bumps up from MPBBase, so a run touches a
// prefix of the MPB, and the array holds that prefix: page-rounded, at
// least doubling, never past MPBTotal. It claims the parked array of a
// released machine first, and allocates only past that array's capacity
// (whose bytes Release left zero).
func (m *Machine) growMPB(n int) {
	size := min(max(2*len(m.mpb), (n+pageMask)&^pageMask), m.cfg.MPBTotal())
	if m.mpb == nil {
		m.mpb, m.store.mpb = m.store.mpb, nil
	}
	if size <= cap(m.mpb) {
		m.mpb = m.mpb[:size]
		return
	}
	grown := make([]byte, size)
	copy(grown, m.mpb)
	m.mpb = grown
}

// Fault returns the first access that fell outside the memory map (nil
// when none did; see move). A faulting access moves no data — a read
// reads zeros — and is otherwise counted and timed like any other access
// at its address; whoever steps the machine polls this at its scheduling
// points and fails the run.
func (m *Machine) Fault() error { return m.fault }

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

// accessTime computes and accounts the latency of one bulk access
// according to the address class (see the package comment for the
// model): the same three per-class functions the word path calls from
// its own classification.
func (m *Machine) accessTime(core int, addr uint32, write bool, now Time) (lat Time) {
	cs := &m.cores[core]
	switch {
	case addr >= MPBBase:
		lat = m.mpbTime(cs, core, addr, write)
	case addr >= SharedBase:
		lat = m.sharedTime(cs, core, addr, write, now)
	default:
		lat = m.privateTime(cs, core, addr, write, now)
	}
	cs.stats.MemTime += lat
	return lat
}

// privateTime is an access to the core's private, cacheable DRAM.
func (m *Machine) privateTime(cs *coreState, core int, addr uint32, write bool, now Time) Time {
	cs.stats.PrivateAccesses++
	return m.cachedTime(cs, core, addr, write, now)
}

// sharedTime is an access to off-chip shared DRAM. Uncacheable (the
// SCC default): every access crosses the mesh to the quadrant's
// controller and pays the full DRAM latency plus queueing.
func (m *Machine) sharedTime(cs *coreState, core int, addr uint32, write bool, now Time) Time {
	cs.stats.SharedAccesses++
	if m.cfg.SharedCacheable {
		return m.cachedTime(cs, core, addr, write, now)
	}
	return m.dramTime(core, now)
}

// cachedTime walks the private hierarchy: L1, then L2, then DRAM via the
// quadrant controller. Write misses allocate (write-allocate policy).
// Cache latencies are in the core's clock domain, so they scale with
// DVFS (the derived times are recomputed whenever a domain's frequency
// changes); the mesh and controllers run off their own clocks.
func (m *Machine) cachedTime(cs *coreState, core int, addr uint32, write bool, now Time) Time {
	hit, dirty := cs.l1.Access(addr, write)
	if hit {
		cs.stats.L1Hits++
		return cs.l1HitT
	}
	cs.stats.L1Misses++
	lat := cs.l1HitT
	if dirty {
		lat += cs.dirtyT
	}
	hit, dirty = cs.l2.Access(addr, write)
	if hit {
		cs.stats.L2Hits++
		return lat + cs.l2HitT
	}
	cs.stats.L2Misses++
	lat += cs.l2HitT
	if dirty {
		lat += cs.dirtyT
	}
	return lat + m.dramTime(core, now+lat)
}

// dramTime is one trip to the core's quadrant memory controller: mesh
// wire latency both ways, queueing behind earlier requests, and the DDR
// access itself.
func (m *Machine) dramTime(core int, now Time) Time {
	wire := m.meshRoundTrip(m.HopsToController(core))
	mc := &m.mcs[m.ControllerOf(core)]
	arrival := now + wire/2
	start := arrival
	if mc.freeAt > start {
		start = mc.freeAt
	}
	mc.freeAt = start + m.mcOccupy
	mc.busy += m.mcOccupy
	mc.requests++
	return wire + (start - arrival) + m.mcLatency
}

// mpbTime is an access to the on-chip SRAM. With MPBCacheable (the SCC's
// MPBT type) the line may hit in L1; a miss or uncached access pays the
// SRAM access at the owning tile plus mesh distance.
func (m *Machine) mpbTime(cs *coreState, core int, addr uint32, write bool) Time {
	cs.stats.MPBAccesses++
	owner := m.MPBOwner(addr)
	if owner != core {
		cs.stats.MPBRemote++
	}
	if m.cfg.MPBCacheable {
		hit, _ := cs.l1.Access(addr, write)
		if hit {
			cs.stats.L1Hits++
			return cs.l1HitT
		}
		cs.stats.L1Misses++
	}
	return m.mpbAccess + m.meshRoundTrip(m.Hops(core, owner))
}

// ---------------------------------------------------------------------------
// MPB ownership
// ---------------------------------------------------------------------------

// MapMPB registers a striped allocation: [start, start+size) is owned in
// chunk-sized pieces round-robin across owners. The RCCE runtime calls
// this when it block-distributes an on-chip array so that each rank's
// slice is local to it.
func (m *Machine) MapMPB(start uint32, size int, owners []int, chunk int) {
	if len(owners) == 0 || chunk <= 0 {
		return
	}
	m.mpbRanges = append(m.mpbRanges, mpbRange{
		start:  start,
		end:    start + uint32(size),
		owners: append([]int(nil), owners...),
		chunk:  uint32(chunk),
	})
	sort.Slice(m.mpbRanges, func(i, j int) bool { return m.mpbRanges[i].start < m.mpbRanges[j].start })
}

// MPBOwner returns the core whose MPB section holds addr.
func (m *Machine) MPBOwner(addr uint32) int {
	for i := range m.mpbRanges {
		r := &m.mpbRanges[i]
		if addr >= r.start && addr < r.end {
			idx := int((addr - r.start) / r.chunk)
			return r.owners[idx%len(r.owners)]
		}
	}
	off := int(addr - MPBBase)
	owner := off / m.mpbStride
	if owner >= len(m.cores) {
		owner = len(m.cores) - 1
	}
	return owner
}

// ---------------------------------------------------------------------------
// Test-and-set registers
// ---------------------------------------------------------------------------

// TestAndSet atomically reads-and-sets target's lock register on behalf
// of core, returning whether the lock was acquired (register was clear)
// and the access latency (a mesh round trip to the register's tile).
func (m *Machine) TestAndSet(core, target int, now Time) (acquired bool, lat Time) {
	lat = m.meshRoundTrip(m.Hops(core, target)) + m.basePeriod
	acquired = !m.tas[target]
	m.tas[target] = true
	return acquired, lat
}

// TASClear releases target's lock register; the latency is charged to
// the releasing core.
func (m *Machine) TASClear(core, target int, now Time) Time {
	m.tas[target] = false
	return m.meshRoundTrip(m.Hops(core, target)) + m.basePeriod
}

// TASValue reads the register without side effects (tests).
func (m *Machine) TASValue(target int) bool { return m.tas[target] }

// ---------------------------------------------------------------------------
// Cache maintenance & stats
// ---------------------------------------------------------------------------

// FlushL1 invalidates core's L1, returning the flush cost (the pthread
// baseline charges it on every context switch: dirty lines drain to L2).
func (m *Machine) FlushL1(core int) Time {
	dirty := m.cores[core].l1.Flush()
	return Time(dirty) * m.dirtyEvict
}

// StatsOf returns a copy of core's counters. Compute time lives in the
// core's timer (the hot-path accumulator) and is folded into the copy.
func (m *Machine) StatsOf(core int) CoreStats {
	st := m.cores[core].stats
	st.CompTime = m.cores[core].timer.Comp
	return st
}

// TotalStats sums the per-core counters.
func (m *Machine) TotalStats() CoreStats {
	var t CoreStats
	for i := range m.cores {
		c := &m.cores[i]
		t.Loads += c.stats.Loads
		t.Stores += c.stats.Stores
		t.PrivateAccesses += c.stats.PrivateAccesses
		t.SharedAccesses += c.stats.SharedAccesses
		t.MPBAccesses += c.stats.MPBAccesses
		t.MPBRemote += c.stats.MPBRemote
		t.L1Hits += c.stats.L1Hits
		t.L1Misses += c.stats.L1Misses
		t.L2Hits += c.stats.L2Hits
		t.L2Misses += c.stats.L2Misses
		t.MemTime += c.stats.MemTime
		t.CompTime += c.timer.Comp
	}
	return t
}

// MCBusy returns controller i's cumulative occupancy and request count.
func (m *Machine) MCBusy(i int) (Time, uint64) { return m.mcs[i].busy, m.mcs[i].requests }

// String summarises the machine for diagnostics.
func (m *Machine) String() string {
	return fmt.Sprintf("SCC<%d cores %dx%d mesh %d MCs core=%dMHz mesh=%dMHz ddr=%dMHz>",
		m.cfg.Cores, m.cfg.TilesX, m.cfg.TilesY, m.cfg.MemControllers,
		m.cfg.CoreMHz, m.cfg.MeshMHz, m.cfg.DDRMHz)
}
