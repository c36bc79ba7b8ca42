// Package sccsim models the Intel Single-chip Cloud Computer: 48 P54C
// Pentium-class cores on 24 tiles in a 6x4 mesh, private non-coherent
// L1/L2 caches, a 384 KB on-chip Message Passing Buffer (8 KB per core),
// four DDR3 memory controllers at the mesh corners, one test-and-set
// register per core, and voltage/frequency domains (thesis §5.1,
// Howard et al. [13], Mattson et al. [19]).
//
// The model is a deterministic virtual-time simulator. All timing is kept
// in picoseconds so that per-domain frequency scaling composes cleanly;
// the interpreter charges compute cycles and routes every memory access
// through Machine, which decides the latency from the address class:
//
//	private DRAM   cacheable in L1 and L2 (write-back, write-allocate)
//	shared DRAM    uncacheable (SCC shared pages bypass the caches)
//	MPB            cacheable in L1 only (the SCC's MPBT line type)
//
// Contention is modelled at the memory controllers: each is a virtual-
// time-ordered server; a request arriving while the controller is busy
// queues behind it. Mesh distance adds per-hop wire latency both ways.
package sccsim

import "fmt"

// Time is a point or duration in simulated time, in picoseconds.
type Time = uint64

// PsPerSecond converts seconds to Time.
const PsPerSecond = 1e12

// Address classes of the simulated 32-bit physical address space. The
// layout mirrors the SCC lookup-table configuration used by RCCE: a
// private range per core, a shared uncacheable DRAM window, and the
// memory-mapped MPB. An access to anything else is a fault (Machine.Fault).
const (
	// PrivateBase..PrivateLimit is the per-core private cacheable range.
	// Each core has its own backing store for this window (the LUT maps
	// the same core addresses to disjoint DRAM).
	PrivateBase  uint32 = 0x0000_1000
	PrivateLimit uint32 = 0x4000_0000

	// SharedBase..SharedLimit is off-chip shared DRAM, uncacheable,
	// visible to all cores at the same addresses.
	SharedBase  uint32 = 0x8000_0000
	SharedLimit uint32 = 0xC000_0000

	// MPBBase is the first byte of the on-chip Message Passing Buffer;
	// core c's 8 KB section starts at MPBBase + c*MPBPerCore.
	MPBBase uint32 = 0xC000_0000
)

// MPBPerCore is each core's slice of the on-chip SRAM on the real SCC
// (8 KB, thesis §5.1). It is the default for Config.MPBPerCoreBytes.
const MPBPerCore = 8 * 1024

// Tier is a contiguous run of cores clocked at its own base frequency.
// Tiers cover the core index space in order: the first tier holds cores
// [0, Cores), the second the next run, and so on. They model asymmetric
// machines (a few fast cores in front of a wide slow mesh) without
// touching the DVFS machinery — tier clocks set each core's initial
// period exactly as SetDomainMHz would, and uncore latencies stay on the
// config's base CoreMHz clock.
type Tier struct {
	Cores   int
	CoreMHz int
}

// Config holds every architectural and timing parameter of the model.
// DefaultConfig returns the paper's experimental platform (Table 6.1).
type Config struct {
	// Geometry.
	Cores  int // total cores (48 on the SCC)
	TilesX int // mesh columns (6)
	TilesY int // mesh rows (4)
	// CoresPerTile is the number of cores sharing a tile (and therefore a
	// mesh router). Zero means the SCC's dual-core tiles.
	CoresPerTile int
	// MPBPerCoreBytes is each core's slice of the on-chip SRAM. Zero
	// means the SCC's 8 KB (MPBPerCore); scaled meshes shrink it so the
	// total MPB stays within on-chip reason at 256-1024 cores.
	MPBPerCoreBytes int
	// Tiers optionally splits the cores into frequency tiers (asymmetric
	// machines). Empty means every core runs at CoreMHz. When present,
	// tier core counts must sum to Cores.
	Tiers []Tier

	// Clocks, in MHz (Table 6.1: 800/1600/1066).
	CoreMHz int
	MeshMHz int
	DDRMHz  int

	// Private cache hierarchy (per core; P54C-class L1 + SCC tile L2).
	L1Bytes   int
	L1Ways    int
	L2Bytes   int
	L2Ways    int
	LineBytes int

	// Latencies, in core cycles at CoreMHz. Conversions to Time happen
	// once at machine construction so DVFS does not retroactively change
	// uncore latencies.
	L1HitCycles       int // load-to-use on an L1 hit
	L2HitCycles       int // L1 miss, L2 hit
	MPBAccessCycles   int // MPB SRAM access once at the owning tile
	HopCycles         int // mesh latency per hop, one way
	MCLatencyCycles   int // DRAM access latency at the controller (bank+DDR)
	MCOccupancyCycles int // controller occupancy per request (pipelined DDR)
	DirtyEvictCycles  int // write-back of an evicted dirty line

	// Memory controllers.
	MemControllers int // 4 on the SCC, at the mesh corners

	// MPBCacheable selects the SCC's MPBT behaviour: MPB lines are
	// cacheable in L1 (not L2). Disabling it is the ablation case.
	MPBCacheable bool
	// SharedCacheable lets shared DRAM be cached like private memory —
	// a hypothetical coherent machine, used only for the ablation bench
	// (the real SCC cannot do this safely).
	SharedCacheable bool
}

// DefaultConfig returns the experimental platform of thesis Table 6.1 with
// SCC-documented latencies.
func DefaultConfig() Config {
	return Config{
		Cores:  48,
		TilesX: 6,
		TilesY: 4,

		CoreMHz: 800,
		MeshMHz: 1600,
		DDRMHz:  1066,

		L1Bytes:   8 * 1024,
		L1Ways:    2,
		L2Bytes:   256 * 1024,
		L2Ways:    4,
		LineBytes: 32,

		L1HitCycles:       1,
		L2HitCycles:       18,
		MPBAccessCycles:   15,
		HopCycles:         2,
		MCLatencyCycles:   46,
		MCOccupancyCycles: 8,
		DirtyEvictCycles:  6,

		MemControllers: 4,
		MPBCacheable:   true,
	}
}

// Validate reports configuration inconsistencies.
func (c Config) Validate() error {
	cpt := c.TileCores()
	if c.CoresPerTile < 0 {
		return fmt.Errorf("sccsim: negative cores per tile")
	}
	if c.TilesX <= 0 || c.TilesY <= 0 {
		return fmt.Errorf("sccsim: mesh dimensions must be positive")
	}
	if c.Cores <= 0 || c.Cores > c.TilesX*c.TilesY*cpt {
		return fmt.Errorf("sccsim: %d cores do not fit on a %dx%d mesh of %d-core tiles",
			c.Cores, c.TilesX, c.TilesY, cpt)
	}
	if c.CoreMHz <= 0 || c.MeshMHz <= 0 || c.DDRMHz <= 0 {
		return fmt.Errorf("sccsim: clocks must be positive")
	}
	if c.LineBytes < 2 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("sccsim: line size must be a power of two >= 2")
	}
	if c.L1Bytes%c.LineBytes != 0 || c.L2Bytes%c.LineBytes != 0 {
		return fmt.Errorf("sccsim: cache sizes must be multiples of the line size")
	}
	if c.L1Ways <= 0 || c.L2Ways <= 0 {
		return fmt.Errorf("sccsim: cache associativity must be positive")
	}
	if c.MemControllers <= 0 {
		return fmt.Errorf("sccsim: need at least one memory controller")
	}
	if c.MPBPerCoreBytes < 0 {
		return fmt.Errorf("sccsim: negative per-core MPB size")
	}
	if len(c.Tiers) > 0 {
		total := 0
		for i, t := range c.Tiers {
			if t.Cores <= 0 {
				return fmt.Errorf("sccsim: tier %d has %d cores", i, t.Cores)
			}
			if t.CoreMHz <= 0 {
				return fmt.Errorf("sccsim: tier %d clock must be positive", i)
			}
			total += t.Cores
		}
		if total != c.Cores {
			return fmt.Errorf("sccsim: tiers cover %d cores, machine has %d", total, c.Cores)
		}
	}
	return nil
}

// CorePeriod returns the duration of one core cycle at the base frequency.
func (c Config) CorePeriod() Time { return Time(1e6 / uint64(c.CoreMHz)) }

// TileCores returns the effective cores-per-tile count (default 2, the
// SCC's dual-core tiles).
func (c Config) TileCores() int {
	if c.CoresPerTile <= 0 {
		return 2
	}
	return c.CoresPerTile
}

// MPBStride returns the effective per-core MPB slice (default 8 KB).
func (c Config) MPBStride() int {
	if c.MPBPerCoreBytes <= 0 {
		return MPBPerCore
	}
	return c.MPBPerCoreBytes
}

// TierMHz returns the base frequency of a core under the tier layout
// (CoreMHz when no tiers are configured).
func (c Config) TierMHz(core int) int {
	for _, t := range c.Tiers {
		if core < t.Cores {
			return t.CoreMHz
		}
		core -= t.Cores
	}
	return c.CoreMHz
}

// MPBTotal returns the size of the whole Message Passing Buffer.
func (c Config) MPBTotal() int { return c.Cores * c.MPBStride() }

// PresetNames lists the named machine configurations, smallest first.
func PresetNames() []string { return []string{"scc48", "mesh256", "mesh1024"} }

// PresetConfig resolves a named machine configuration. "scc48" is the
// paper's 48-core SCC (DefaultConfig); "mesh256" and "mesh1024" scale
// the same core, cache and latency parameters onto larger square meshes
// with quad-core tiles, more perimeter memory controllers, and per-core
// MPB slices shrunk so the total on-chip SRAM grows sublinearly (the
// MemPool/TeraPool regime of 256-1024 cores sharing a mesh). The empty
// name resolves to scc48 so call sites can treat "no machine named" as
// the default platform.
func PresetConfig(name string) (Config, error) {
	switch name {
	case "", "scc48":
		return DefaultConfig(), nil
	case "mesh256":
		cfg := DefaultConfig()
		cfg.Cores = 256
		cfg.TilesX, cfg.TilesY = 8, 8
		cfg.CoresPerTile = 4
		cfg.MemControllers = 8
		cfg.MPBPerCoreBytes = 4 * 1024
		return cfg, nil
	case "mesh1024":
		cfg := DefaultConfig()
		cfg.Cores = 1024
		cfg.TilesX, cfg.TilesY = 16, 16
		cfg.CoresPerTile = 4
		cfg.MemControllers = 16
		cfg.MPBPerCoreBytes = 2 * 1024
		return cfg, nil
	}
	return Config{}, fmt.Errorf("sccsim: unknown machine preset %q (have %v)", name, PresetNames())
}

// MustPreset resolves a preset or panics; for tests and examples.
func MustPreset(name string) Config {
	cfg, err := PresetConfig(name)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Table61 renders the SCC configuration table (thesis Table 6.1).
func (c Config) Table61(units int) string {
	return fmt.Sprintf(""+
		"Core Frequency         %d MHz\n"+
		"Communication Network  %d MHz\n"+
		"Off-chip Memory        %d MHz\n"+
		"Execution Units        %d cores\n",
		c.CoreMHz, c.MeshMHz, c.DDRMHz, units)
}
