package sccsim

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// forEachPreset runs a subtest per named machine preset, so geometry
// invariants are pinned on the scaled meshes, not just the SCC.
func forEachPreset(t *testing.T, f func(t *testing.T, m *Machine)) {
	t.Helper()
	for _, name := range PresetNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := New(MustPreset(name))
			if err != nil {
				t.Fatalf("New(%s): %v", name, err)
			}
			f(t, m)
		})
	}
}

// TestPresetConfigsValid: every named preset validates and carries the
// advertised geometry.
func TestPresetConfigsValid(t *testing.T) {
	for _, name := range PresetNames() {
		cfg := MustPreset(name)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if cfg.Cores > cfg.TilesX*cfg.TilesY*cfg.TileCores() {
			t.Errorf("%s: %d cores overflow the mesh", name, cfg.Cores)
		}
	}
	if cfg := MustPreset("mesh1024"); cfg.Cores != 1024 || cfg.MemControllers != 16 {
		t.Errorf("mesh1024 = %d cores / %d MCs, want 1024/16", cfg.Cores, cfg.MemControllers)
	}
	if _, err := PresetConfig("nope"); err == nil {
		t.Error("unknown preset accepted")
	}
	// The empty name is the SCC default, so "no machine named" call
	// sites resolve to the paper's platform.
	if cfg := MustPreset(""); cfg.Cores != 48 {
		t.Errorf("default preset = %d cores, want 48", cfg.Cores)
	}
}

// TestTierClocks: an asymmetric tier layout sets per-core base periods
// like SetDomainMHz would, without touching uncore latencies.
func TestTierClocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tiers = []Tier{{Cores: 8, CoreMHz: 800}, {Cores: 40, CoreMHz: 400}}
	m := MustNew(cfg)
	fast := m.ComputeTime(0, 100)
	slow := m.ComputeTime(8, 100)
	if slow != 2*fast {
		t.Errorf("tier-1 compute = %d ps, want 2x tier-0 %d ps", slow, fast)
	}
	// Uncore latency (uncached shared DRAM) stays on the base clock:
	// identical from a fast-tier and a symmetric machine's core 0.
	buf := make([]byte, 4)
	sym := testMachine(t)
	if a, b := m.Load(0, SharedBase, buf, 0), sym.Load(0, SharedBase, buf, 0); a != b {
		t.Errorf("tiered shared access = %d ps, symmetric = %d ps; uncore must not retier", a, b)
	}
	bad := DefaultConfig()
	bad.Tiers = []Tier{{Cores: 10, CoreMHz: 800}}
	if err := bad.Validate(); err == nil {
		t.Error("tiers covering 10 of 48 cores validated")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.Cores = 100 }, // > 2 per tile * 24 tiles
		func(c *Config) { c.CoreMHz = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.L1Ways = 0 },
		func(c *Config) { c.MemControllers = 0 },
		func(c *Config) { c.L1Bytes = 100 }, // not a line multiple
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestTable61(t *testing.T) {
	s := DefaultConfig().Table61(32)
	for _, want := range []string{"800 MHz", "1600 MHz", "1066 MHz", "32 cores"} {
		if !contains(s, want) {
			t.Errorf("Table61 missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestPrivateIsolation: private memory is per core; the same address on
// two cores must not alias.
func TestPrivateIsolation(t *testing.T) {
	m := testMachine(t)
	addr := PrivateBase + 128
	m.WriteBytes(0, addr, []byte{1, 2, 3, 4})
	m.WriteBytes(1, addr, []byte{9, 9, 9, 9})
	var buf [4]byte
	m.ReadBytes(0, addr, buf[:])
	if buf != [4]byte{1, 2, 3, 4} {
		t.Errorf("core 0 private = %v, want 1 2 3 4", buf)
	}
	m.ReadBytes(1, addr, buf[:])
	if buf != [4]byte{9, 9, 9, 9} {
		t.Errorf("core 1 private = %v, want 9 9 9 9", buf)
	}
}

// TestSharedVisibility: shared DRAM writes from one core are visible to
// every other core — the property the translated programs rely on.
func TestSharedVisibility(t *testing.T) {
	forEachPreset(t, func(t *testing.T, m *Machine) {
		addr := SharedBase + 4096
		var word [4]byte
		binary.LittleEndian.PutUint32(word[:], 0xDEADBEEF)
		m.Store(7, addr, word[:], 0)
		var got [4]byte
		m.Load(m.cfg.Cores/2, addr, got[:], 0)
		if binary.LittleEndian.Uint32(got[:]) != 0xDEADBEEF {
			t.Errorf("shared read = %x, want deadbeef", got)
		}
	})
}

// TestMPBVisibility: the MPB is globally visible on-chip SRAM, whatever
// the per-core stride.
func TestMPBVisibility(t *testing.T) {
	forEachPreset(t, func(t *testing.T, m *Machine) {
		addr := MPBBase + uint32(3*m.mpbStride) + 16
		m.Store(0, addr, []byte{42}, 0)
		var b [1]byte
		m.Load(m.cfg.Cores-1, addr, b[:], 0)
		if b[0] != 42 {
			t.Errorf("MPB read = %d, want 42", b[0])
		}
	})
}

// TestCachedFasterThanUncached: repeated private accesses (L1-hot) must
// be much cheaper than uncacheable shared accesses — the central premise
// of the HSM architecture.
func TestCachedFasterThanUncached(t *testing.T) {
	m := testMachine(t)
	buf := make([]byte, 4)
	// Warm the line, then measure a hit.
	m.Load(0, PrivateBase, buf, 0)
	hit := m.Load(0, PrivateBase, buf, 0)
	shared := m.Load(0, SharedBase, buf, 0)
	if hit*10 > shared {
		t.Errorf("L1 hit %d ps vs shared %d ps: want >=10x gap", hit, shared)
	}
}

// TestMPBFasterThanSharedDRAM: the reason Stage 4 exists.
func TestMPBFasterThanSharedDRAM(t *testing.T) {
	m := testMachine(t)
	buf := make([]byte, 4)
	mpb := m.Load(0, MPBBase, buf, 0) // core 0's own section, cold
	shared := m.Load(0, SharedBase, buf, 0)
	if mpb >= shared {
		t.Errorf("MPB %d ps !< shared %d ps", mpb, shared)
	}
	// And a warm (L1-cached) MPB access is cheaper still.
	warm := m.Load(0, MPBBase, buf, 0)
	if warm >= mpb {
		t.Errorf("warm MPB %d ps !< cold MPB %d ps", warm, mpb)
	}
}

// TestRemoteMPBSlower: distance matters on the mesh, at every scale.
func TestRemoteMPBSlower(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			cfg := MustPreset(name)
			cfg.MPBCacheable = false // isolate the wire latency from caching
			m := MustNew(cfg)
			buf := make([]byte, 4)
			last := cfg.Cores - 1
			local := m.Load(0, MPBBase, buf, 0) // owner = core 0
			far := MPBBase + uint32(last*m.mpbStride)
			remote := m.Load(0, far, buf, 0) // owner = last core, opposite corner
			if remote <= local {
				t.Errorf("remote MPB %d ps !> local %d ps", remote, local)
			}
			wantGap := m.meshRoundTrip(m.Hops(0, last))
			if remote-local != wantGap {
				t.Errorf("remote-local gap = %d ps, want mesh round trip %d ps", remote-local, wantGap)
			}
		})
	}
}

// TestMCQueueing: back-to-back uncached shared accesses at one controller
// queue behind each other.
func TestMCQueueing(t *testing.T) {
	m := testMachine(t)
	buf := make([]byte, 4)
	first := m.Load(0, SharedBase, buf, 0)
	second := m.Load(0, SharedBase+64, buf, 0) // same instant, same MC
	if second <= first {
		t.Errorf("queued access %d ps !> unqueued %d ps", second, first)
	}
	if second-first != m.mcOccupy {
		t.Errorf("queue delay = %d ps, want one occupancy slot %d ps", second-first, m.mcOccupy)
	}
}

// TestQuadrantControllers: nearest-corner assignment splits the full chip
// into four equal quadrants of 12 cores. (The paper's 32-core runs see
// "at least 8 cores in contention per memory controller": ranks 0-31 fill
// quadrants unevenly, up to 12 on the row-0/1 controllers.)
func TestQuadrantControllers(t *testing.T) {
	m := testMachine(t)
	counts := make(map[int]int)
	for c := 0; c < 48; c++ {
		counts[m.ControllerOf(c)]++
	}
	if len(counts) != 4 {
		t.Fatalf("48 cores use %d controllers, want 4", len(counts))
	}
	for mc, n := range counts {
		if n != 12 {
			t.Errorf("controller %d serves %d cores, want 12", mc, n)
		}
	}
	max32 := 0
	for c := 0; c < 32; c++ {
		if m.ControllerOf(c) == 0 {
			max32++
		}
	}
	if max32 < 8 {
		t.Errorf("busiest controller serves %d of ranks 0-31, want >= 8", max32)
	}
}

// TestControllerAssignmentNearest: on every preset, each core reaches
// DRAM through a genuinely nearest controller, and no controller is
// stranded unused — the property the corner rule generalized to.
func TestControllerAssignmentNearest(t *testing.T) {
	forEachPreset(t, func(t *testing.T, m *Machine) {
		served := make(map[int]int)
		for c := 0; c < m.cfg.Cores; c++ {
			mc := m.ControllerOf(c)
			if mc < 0 || mc >= m.cfg.MemControllers {
				t.Fatalf("core %d assigned controller %d of %d", c, mc, m.cfg.MemControllers)
			}
			served[mc]++
			cx, cy := m.CoreXY(c)
			best := 1 << 30
			for i := range m.mcPos {
				if d := abs(cx-m.mcPos[i].x) + abs(cy-m.mcPos[i].y); d < best {
					best = d
				}
			}
			if got := m.HopsToController(c); got != best {
				t.Errorf("core %d: %d hops to its controller, nearest is %d", c, got, best)
			}
		}
		if len(served) != m.cfg.MemControllers {
			t.Errorf("%d of %d controllers serve cores", len(served), m.cfg.MemControllers)
		}
	})
}

// TestHopsSymmetricAndTriangle: property-check the mesh metric on every
// preset geometry.
func TestHopsSymmetricAndTriangle(t *testing.T) {
	forEachPreset(t, func(t *testing.T, m *Machine) {
		n := m.cfg.Cores
		f := func(a, b, c uint16) bool {
			x, y, z := int(a)%n, int(b)%n, int(c)%n
			if m.Hops(x, y) != m.Hops(y, x) {
				return false
			}
			if m.Hops(x, x) != 0 {
				return false
			}
			return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
}

// TestTileLayout: TileCores cores per tile, coordinates within the mesh.
func TestTileLayout(t *testing.T) {
	forEachPreset(t, func(t *testing.T, m *Machine) {
		per := m.cfg.TileCores()
		if m.TileOf(0) != m.TileOf(per-1) {
			t.Errorf("cores 0 and %d must share a tile", per-1)
		}
		if m.TileOf(per-1) == m.TileOf(per) {
			t.Errorf("cores %d and %d must not share a tile", per-1, per)
		}
		for c := 0; c < m.cfg.Cores; c++ {
			x, y := m.CoreXY(c)
			if x < 0 || x >= m.cfg.TilesX || y < 0 || y >= m.cfg.TilesY {
				t.Errorf("core %d at (%d,%d) outside %dx%d mesh",
					c, x, y, m.cfg.TilesX, m.cfg.TilesY)
			}
		}
	})
}

// TestTAS: the per-core test-and-set registers implement try-lock.
func TestTAS(t *testing.T) {
	m := testMachine(t)
	got, _ := m.TestAndSet(1, 5, 0)
	if !got {
		t.Fatal("first TAS should acquire")
	}
	got, _ = m.TestAndSet(2, 5, 0)
	if got {
		t.Fatal("second TAS should fail while held")
	}
	m.TASClear(1, 5, 0)
	got, _ = m.TestAndSet(2, 5, 0)
	if !got {
		t.Fatal("TAS after clear should acquire")
	}
	if !m.TASValue(5) {
		t.Fatal("register should read set")
	}
}

// TestTASLatencyDistance: locking a far register costs more than a near
// one.
func TestTASLatencyDistance(t *testing.T) {
	forEachPreset(t, func(t *testing.T, m *Machine) {
		_, near := m.TestAndSet(0, 0, 0)
		_, far := m.TestAndSet(0, m.cfg.Cores-1, 0)
		if far <= near {
			t.Errorf("far TAS %d ps !> near %d ps", far, near)
		}
	})
}

// TestMPBStripedOwnership: MapMPB distributes chunk ownership round-robin.
func TestMPBStripedOwnership(t *testing.T) {
	m := testMachine(t)
	owners := []int{0, 1, 2, 3}
	m.MapMPB(MPBBase, 4*64, owners, 64)
	for i, want := range owners {
		addr := MPBBase + uint32(i*64)
		if got := m.MPBOwner(addr); got != want {
			t.Errorf("chunk %d owner = %d, want %d", i, got, want)
		}
	}
	// Outside the range: section-default ownership (per-core stride).
	if got := m.MPBOwner(MPBBase + uint32(10*m.mpbStride) + 4*64 + 1); got != 10 {
		t.Errorf("default owner = %d, want 10", got)
	}
}

// TestFlushL1CostsDirtyWritebacks: flushing after stores costs more than
// flushing a clean cache.
func TestFlushL1CostsDirtyWritebacks(t *testing.T) {
	m := testMachine(t)
	if m.FlushL1(0) != 0 {
		t.Fatal("flushing an empty L1 should be free")
	}
	buf := []byte{1, 2, 3, 4}
	for i := 0; i < 16; i++ {
		m.Store(0, PrivateBase+uint32(i*32), buf, 0)
	}
	if m.FlushL1(0) == 0 {
		t.Fatal("flushing 16 dirty lines should cost write-backs")
	}
}

// TestComputeTimeDVFS: halving the clock doubles compute time.
func TestComputeTimeDVFS(t *testing.T) {
	m := testMachine(t)
	base := m.ComputeTime(0, 100)
	if err := m.SetDomainMHz(0, 400); err != nil {
		t.Fatalf("SetDomainMHz: %v", err)
	}
	slow := m.ComputeTime(0, 100)
	if slow != 2*base {
		t.Errorf("at 400 MHz compute = %d ps, want %d", slow, 2*base)
	}
	// Cores outside the domain are unaffected.
	other := m.ComputeTime(VoltageDomainCores, 100)
	if other != base {
		t.Errorf("other-domain compute = %d ps, want %d", other, base)
	}
}

func TestSetDomainMHzBounds(t *testing.T) {
	m := testMachine(t)
	if err := m.SetDomainMHz(0, 50); err == nil {
		t.Error("50 MHz should be rejected")
	}
	if err := m.SetDomainMHz(0, 2000); err == nil {
		t.Error("2000 MHz should be rejected")
	}
	if err := m.SetDomainMHz(99, 800); err == nil {
		t.Error("bogus domain should be rejected")
	}
}

// TestPowerFit: the power model reproduces the chip's published envelope
// (25 W at 125 MHz, 125 W at 1 GHz) within 2%.
func TestPowerFit(t *testing.T) {
	if p := PowerAt(125); p < 24.5 || p > 25.5 {
		t.Errorf("P(125 MHz) = %.1f W, want ~25", p)
	}
	if p := PowerAt(1000); p < 122 || p > 128 {
		t.Errorf("P(1 GHz) = %.1f W, want ~125", p)
	}
	if PowerAt(800) <= PowerAt(400) {
		t.Error("power must grow with frequency")
	}
}

// TestPowerEstimateTracksDomains: lowering one domain lowers chip power.
func TestPowerEstimateTracksDomains(t *testing.T) {
	m := testMachine(t)
	before := m.PowerEstimate()
	if err := m.SetDomainMHz(0, MinMHz); err != nil {
		t.Fatal(err)
	}
	after := m.PowerEstimate()
	if after >= before {
		t.Errorf("power after downclock %.1f W !< before %.1f W", after, before)
	}
}

// TestSharedCacheableAblation: with the hypothetical coherent
// configuration, repeated shared accesses become cache hits.
func TestSharedCacheableAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SharedCacheable = true
	m := MustNew(cfg)
	buf := make([]byte, 4)
	m.Load(0, SharedBase, buf, 0)
	warm := m.Load(0, SharedBase, buf, 0)
	if warm != m.l1Hit {
		t.Errorf("warm cacheable-shared access = %d ps, want L1 hit %d ps", warm, m.l1Hit)
	}
}

// TestStatsAccumulate: counters track the traffic mix.
func TestStatsAccumulate(t *testing.T) {
	m := testMachine(t)
	buf := make([]byte, 4)
	m.Load(3, PrivateBase, buf, 0)
	m.Store(3, SharedBase, buf, 0)
	m.Load(3, MPBBase, buf, 0)
	s := m.StatsOf(3)
	if s.Loads != 2 || s.Stores != 1 {
		t.Errorf("loads/stores = %d/%d, want 2/1", s.Loads, s.Stores)
	}
	if s.PrivateAccesses != 1 || s.SharedAccesses != 1 || s.MPBAccesses != 1 {
		t.Errorf("mix = %d/%d/%d, want 1/1/1", s.PrivateAccesses, s.SharedAccesses, s.MPBAccesses)
	}
	total := m.TotalStats()
	if total.Loads != 2 {
		t.Errorf("total loads = %d, want 2", total.Loads)
	}
}

// TestPageMemRoundTrip: property test — writes then reads return the same
// bytes at arbitrary addresses and lengths, including page boundaries.
func TestPageMemRoundTrip(t *testing.T) {
	pm := new(PageMem)
	f := func(addr uint32, data []byte) bool {
		if len(data) > 64*1024 {
			data = data[:64*1024]
		}
		pm.Write(addr, data)
		got := make([]byte, len(data))
		pm.Read(addr, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// allocatedBytes reports the heap bytes f(i) allocates, as the least of
// three calls (i = 0, 1, 2) so that a stray allocation by the runtime or
// the test framework during one of them does not count.
func allocatedBytes(f func(i int)) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f(i)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// allocatedOnce reports the heap bytes one call of f allocates.
func allocatedOnce(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMachineFootprint pins the first-touch rule: a machine costs host
// memory for what a run touches, not for what it models. Building one
// is a fixed number of allocations whatever the core count and well
// under 1 MiB at 1024 cores; a core's first private access pays for one
// block of tags per cache level, one path through the page table and
// its data page; the MPB exists only once something is stored in it,
// and then only the prefix up to the page holding the highest byte
// touched. A machine built on released storage pays for none of it.
func TestMachineFootprint(t *testing.T) {
	wide := MustPreset("mesh1024")
	narrow := wide
	narrow.Cores = 16 // same mesh and controllers, 1/64 of the cores
	// Building from nothing: storage a released machine left in the pool
	// would make the first call cheaper than the rest.
	wideObjs := testing.AllocsPerRun(5, func() { neverUsed(wide) })
	narrowObjs := testing.AllocsPerRun(5, func() { neverUsed(narrow) })
	if wideObjs != narrowObjs {
		t.Errorf("New allocates %v objects at %d cores, %v at %d: must not depend on the core count",
			wideObjs, wide.Cores, narrowObjs, narrow.Cores)
	}
	var m *Machine
	if b := allocatedBytes(func(int) { m = neverUsed(wide) }); b > 1<<20 {
		t.Errorf("New(mesh1024) allocates %d bytes, want <= 1 MiB", b)
	}

	var buf [4]byte
	firstLoad := allocatedBytes(func(i int) { m.Load(1000+i, PrivateBase, buf[:], 0) })
	if firstLoad > 12<<10 {
		t.Errorf("first private load of an untouched core allocates %d bytes, want <= 12 KiB", firstLoad)
	}
	if again := allocatedBytes(func(i int) { m.Load(1000+i, PrivateBase+4, buf[:], 0) }); again != 0 {
		t.Errorf("second load of the same line allocates %d bytes, want 0", again)
	}

	// What the Pthread baseline does: private and shared traffic, cache
	// flushes, lock registers — never the MPB.
	m.Store(0, PrivateLimit-8, buf[:], 0)
	m.Store(0, SharedBase+64, buf[:], 0)
	m.Load(3, SharedBase+64, buf[:], 0)
	m.FlushL1(0)
	m.TestAndSet(0, 1, 0)
	m.TotalStats()
	if m.mpb != nil {
		t.Error("a run that never touches the MPB must not allocate it")
	}
	m.Store(5, MPBBase+uint32(5*wide.MPBStride()), buf[:], 0)
	if want := (5*wide.MPBStride() + len(buf) + pageSize - 1) &^ (pageSize - 1); len(m.mpb) != want {
		t.Errorf("after a store into slice 5 the MPB backing array holds %d bytes, want the %d-byte page-rounded prefix", len(m.mpb), want)
	}

	// The same run again, on the storage a released machine of the
	// shape left: New builds no core slab, and the run's first touches
	// take spare pages and the page tables, cache blocks and MPB array
	// already there. The pool may drop what it is given (the race
	// detector makes it drop some on purpose), so a miss starts over.
	touch := func(m *Machine) {
		for c := 1000; c < 1003; c++ {
			m.Load(c, PrivateBase, buf[:], 0)
		}
		m.Store(0, PrivateLimit-8, buf[:], 0)
		m.Store(0, SharedBase+64, buf[:], 0)
		m.Load(3, SharedBase+64, buf[:], 0)
		m.FlushL1(0)
		m.Store(5, MPBBase+uint32(5*wide.MPBStride()), buf[:], 0)
	}
	newBytes, touchBytes := ^uint64(0), ^uint64(0)
	for tries, reused := 0, 0; reused < 3; tries++ {
		if tries == 40 {
			t.Fatalf("%d of %d New calls after a Release reused the released storage", reused, tries)
		}
		prev := MustNew(wide)
		touch(prev)
		st := prev.store
		prev.Release()
		var again *Machine
		b := allocatedOnce(func() { again = MustNew(wide) })
		if again.store == st {
			reused++
			newBytes = min(newBytes, b)
			touchBytes = min(touchBytes, allocatedOnce(func() { touch(again) }))
		}
		again.Release()
	}
	if newBytes > 32<<10 {
		t.Errorf("New(mesh1024) on released storage allocates %d bytes, want <= 32 KiB", newBytes)
	}
	if touchBytes != 0 {
		t.Errorf("replaying the run on released storage allocates %d bytes, want 0", touchBytes)
	}
}
