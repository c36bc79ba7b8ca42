// Package profile is the access-profiling subsystem behind the
// profile-guided data placement policy: it measures, per shared
// variable, how often each core of a translated run actually touches
// the variable's backing store, and turns those measurements into a
// placement of the shared set across the MPB budget (optimize.go).
//
// The flow closes the loop from measured behaviour back into the
// compiler (JArena, arXiv:1902.07590, applies the same structure to
// partitioned NUMA memories; the TLP survey arXiv:1603.09274 frames
// access-frequency profiling as the standard input to such decisions):
//
//  1. Translate the workload with every shared variable off-chip (the
//     uniform reference placement) and run it once with a Collector
//     attached. The interpreter reports every timed data access; the
//     RCCE runtime reports each symmetric allocation, which labels the
//     address ranges with the source variable they back.
//  2. Snapshot the counters into a deterministic, JSON-serializable
//     Report: reads, writes, per-core frequency and the sharer set per
//     variable, plus the simulator's MPB occupancy statistics.
//  3. Optimize the placement for a concrete on-chip budget and feed the
//     resulting map back through Stage 4 as the `profiled` policy.
//
// The Collector is attached per simulation session and the interpreter
// serialises context execution, so no synchronisation is needed; a nil
// profiler costs one pointer check per access (see interp.MemProfiler).
package profile

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Spec names a program's shared allocations in runtime allocation order,
// one list per region: the translator emits one RCCE_shmalloc or
// RCCE_mpbmalloc call per shared variable at the top of RCCE_APP
// (translate.Unit.Allocs records the emission order), and the RCCE
// allocator performs them in program order, so the i-th allocation a
// region observes backs the i-th name of that region's list.
type Spec struct {
	OffChip []string
	OnChip  []string
}

// Count is one read/write counter pair.
type Count struct {
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
}

// trackedRange is one labelled address interval [lo, hi).
type trackedRange struct {
	name   string
	lo, hi uint32
}

// Collector accumulates per-variable access counters during one
// simulation session. It implements both hooks of a profiling run:
// interp.MemProfiler (NoteAccess, the per-access hot path) and
// rcce.AllocObserver (NoteAlloc, which labels the ranges).
//
// A Collector belongs to exactly one session: the interpreter's
// scheduler runs one context at a time, so the counters need no locks,
// and sharing a Collector between concurrent Sims would race.
type Collector struct {
	spec   Spec
	ranges []trackedRange // sorted by lo, non-overlapping
	lo, hi uint32         // bounds for the cheap out-of-range reject
	// totals[i] and perCore[i] count range i; perCore[i] grows to the
	// highest core that touched the range.
	totals  []Count
	perCore [][]Count
}

// NewCollector returns a Collector that labels allocations with spec.
func NewCollector(spec Spec) *Collector {
	return &Collector{spec: spec}
}

// AddRange registers a labelled address range directly (profiling a
// baseline Pthread run, where shared globals have static addresses).
func (c *Collector) AddRange(name string, lo uint32, size int) {
	if size <= 0 {
		return
	}
	c.insert(trackedRange{name: name, lo: lo, hi: lo + uint32(size)})
}

// NoteAlloc records one symmetric RCCE allocation: allocation seq of the
// given region landed at [addr, addr+size). The label comes from the
// Spec; an allocation past the spec'd list (a program allocating outside
// the translator's plan) gets a positional name rather than being lost.
func (c *Collector) NoteAlloc(onChip bool, seq int, addr uint32, size int) {
	names, region := c.spec.OffChip, "shm"
	if onChip {
		names, region = c.spec.OnChip, "mpb"
	}
	name := fmt.Sprintf("%s#%d", region, seq)
	if seq >= 0 && seq < len(names) {
		name = names[seq]
	}
	c.AddRange(name, addr, size)
}

// insert keeps ranges sorted by lo (allocations arrive in address order
// per region, so this is effectively an append).
func (c *Collector) insert(r trackedRange) {
	i := sort.Search(len(c.ranges), func(i int) bool { return c.ranges[i].lo > r.lo })
	c.ranges = append(c.ranges, trackedRange{})
	copy(c.ranges[i+1:], c.ranges[i:])
	c.ranges[i] = r
	c.totals = append(c.totals, Count{})
	copy(c.totals[i+1:], c.totals[i:])
	c.totals[i] = Count{}
	c.perCore = append(c.perCore, nil)
	copy(c.perCore[i+1:], c.perCore[i:])
	c.perCore[i] = nil
	if len(c.ranges) == 1 || r.lo < c.lo {
		c.lo = r.lo
	}
	if r.hi > c.hi {
		c.hi = r.hi
	}
}

// NoteAccess implements interp.MemProfiler: count one timed data access
// by core at addr. Accesses outside every tracked range (private stack,
// heap, literals) are rejected with two compares before any search.
func (c *Collector) NoteAccess(core int, addr uint32, write bool) {
	if addr < c.lo || addr >= c.hi {
		return
	}
	// Find the last range with lo <= addr.
	i := sort.Search(len(c.ranges), func(i int) bool { return c.ranges[i].lo > addr }) - 1
	if i < 0 || addr >= c.ranges[i].hi {
		return
	}
	if write {
		c.totals[i].Writes++
	} else {
		c.totals[i].Reads++
	}
	pc := c.perCore[i]
	for len(pc) <= core {
		pc = append(pc, Count{})
	}
	if write {
		pc[core].Writes++
	} else {
		pc[core].Reads++
	}
	c.perCore[i] = pc
}

// CoreCount is one core's contribution to a variable's traffic.
type CoreCount struct {
	Core int `json:"core"`
	Count
}

// VarStats is the measured profile of one shared variable.
type VarStats struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
	Count
	// PerCore lists the cores that touched the variable (ascending),
	// with their read/write counts — the per-core frequency vector.
	PerCore []CoreCount `json:"per_core,omitempty"`
	// Sharers is the sharer set: the cores with any access, ascending.
	Sharers []int `json:"sharers,omitempty"`
}

// Accesses is the variable's total traffic.
func (v *VarStats) Accesses() uint64 { return v.Reads + v.Writes }

// Snapshot distills the counters into per-variable statistics, sorted
// by name (ranges backing the same name — impossible for translator
// output, but allowed via AddRange — are merged).
func (c *Collector) Snapshot() []VarStats {
	byName := make(map[string]*VarStats)
	var order []string
	for i, r := range c.ranges {
		v := byName[r.name]
		if v == nil {
			v = &VarStats{Name: r.name}
			byName[r.name] = v
			order = append(order, r.name)
		}
		v.Bytes += int(r.hi - r.lo)
		v.Reads += c.totals[i].Reads
		v.Writes += c.totals[i].Writes
		for core, cnt := range c.perCore[i] {
			if cnt == (Count{}) {
				continue
			}
			found := false
			for j := range v.PerCore {
				if v.PerCore[j].Core == core {
					v.PerCore[j].Reads += cnt.Reads
					v.PerCore[j].Writes += cnt.Writes
					found = true
					break
				}
			}
			if !found {
				v.PerCore = append(v.PerCore, CoreCount{Core: core, Count: cnt})
			}
		}
	}
	sort.Strings(order)
	out := make([]VarStats, 0, len(order))
	for _, name := range order {
		v := byName[name]
		sort.Slice(v.PerCore, func(i, j int) bool { return v.PerCore[i].Core < v.PerCore[j].Core })
		for _, pc := range v.PerCore {
			v.Sharers = append(v.Sharers, pc.Core)
		}
		out = append(out, *v)
	}
	return out
}

// MPBStats surfaces the simulator's on-chip buffer statistics alongside
// the per-variable counters: the budget the optimizer can spend, what
// the profiled run's allocator actually occupied, and the machine's
// MPB/shared-DRAM access counts for the run.
type MPBStats struct {
	CapacityBytes int `json:"capacity_bytes"`
	PerCoreBytes  int `json:"per_core_bytes"`
	// UsedBytes is the profiled run's MPB allocator high-water mark
	// (zero under the off-chip reference placement).
	UsedBytes int `json:"used_bytes"`
	// Accesses/Remote are the machine's MPB access counters (Remote =
	// accesses that crossed the mesh to another tile's section).
	Accesses uint64 `json:"accesses"`
	Remote   uint64 `json:"remote"`
	// SharedAccesses counts off-chip shared-DRAM accesses.
	SharedAccesses uint64 `json:"shared_accesses"`
}

// Report is one workload's access profile: the deterministic,
// serializable output of a profiling run. Two runs of the same workload
// at the same configuration produce byte-identical JSON, from a
// compiled Program and from its tree-walk reference alike.
type Report struct {
	Workload string     `json:"workload"`
	Cores    int        `json:"cores"`
	Scale    float64    `json:"scale"`
	Vars     []VarStats `json:"vars"`
	MPB      MPBStats   `json:"mpb"`
}

// TotalBytes is the shared set's footprint.
func (r *Report) TotalBytes() int {
	n := 0
	for i := range r.Vars {
		n += r.Vars[i].Bytes
	}
	return n
}

// JSON renders the report with a stable layout (indent + trailing
// newline) so profiles diff cleanly and byte-compare.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Table renders the profile as a text table for hsmprof.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile %s cores=%d scale=%g\n", r.Workload, r.Cores, r.Scale)
	fmt.Fprintf(&sb, "%-12s %8s %10s %10s %12s  %s\n", "Var", "Bytes", "Reads", "Writes", "Acc/Byte", "Sharers")
	for i := range r.Vars {
		v := &r.Vars[i]
		density := 0.0
		if v.Bytes > 0 {
			density = float64(v.Accesses()) / float64(v.Bytes)
		}
		fmt.Fprintf(&sb, "%-12s %8d %10d %10d %12.2f  %s\n",
			v.Name, v.Bytes, v.Reads, v.Writes, density, intList(v.Sharers))
	}
	fmt.Fprintf(&sb, "MPB: capacity %d B (%d B/core), used %d B, accesses %d (%d remote), shared-DRAM accesses %d\n",
		r.MPB.CapacityBytes, r.MPB.PerCoreBytes, r.MPB.UsedBytes, r.MPB.Accesses, r.MPB.Remote, r.MPB.SharedAccesses)
	return sb.String()
}

func intList(xs []int) string {
	if len(xs) == 0 {
		return "-"
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ",")
}
