// Package partition implements Stage 4 of the paper's framework: data
// partitioning between on-chip and off-chip shared memory (thesis §4.4,
// Algorithm 3).
//
// Given the shared-variable set from Stages 1-3 and the capacity of the
// on-chip shared SRAM (the SCC's Message Passing Buffer), the partitioner
// decides per variable whether its explicit shared allocation goes to the
// MPB or to off-chip shared DRAM:
//
//   - If the total shared footprint fits on-chip, everything goes on-chip.
//   - Otherwise variables are sorted by mem_size ascending and placed
//     on-chip greedily while they fit; the rest go off-chip.
//
// An alternative frequency-density policy (reads+writes per byte) is
// provided for the ablation study called out in DESIGN.md.
package partition

import (
	"fmt"
	"sort"
	"strings"

	"hsmcc/internal/analysis/scope"
)

// Placement says where a shared variable's backing store lives.
type Placement int

// Placements.
const (
	OffChip Placement = iota // shared off-chip DRAM (uncacheable)
	OnChip                   // on-chip MPB SRAM
)

// String renders the placement.
func (p Placement) String() string {
	if p == OnChip {
		return "on-chip"
	}
	return "off-chip"
}

// Policy selects the partitioning heuristic.
type Policy int

// Policies.
const (
	// PolicySizeAscending is the paper's Algorithm 3: sort by mem_size
	// ascending, place greedily on-chip.
	PolicySizeAscending Policy = iota
	// PolicyFrequencyDensity places by (reads+writes)/byte descending —
	// the ablation alternative.
	PolicyFrequencyDensity
	// PolicyOffChipOnly forces everything off-chip (the Fig 6.1
	// configuration, before MPB optimisation).
	PolicyOffChipOnly
	// PolicyProfiled places by an explicit per-variable map produced by
	// the access-profiling subsystem (internal/profile): the placement
	// is decided from measured counters, not static estimates, and is
	// applied through Decide.
	PolicyProfiled
)

// String names the policy the way the CLI flags spell it.
func (p Policy) String() string {
	switch p {
	case PolicySizeAscending:
		return "size"
	case PolicyFrequencyDensity:
		return "freq"
	case PolicyOffChipOnly:
		return "offchip"
	case PolicyProfiled:
		return "profiled"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Assignment is the placement decision for one shared variable.
type Assignment struct {
	Var       *scope.VarInfo
	Placement Placement
	// Offset is the byte offset within the chosen region, assigned
	// contiguously per region in decision order.
	Offset int
}

// Result is the partitioning outcome.
type Result struct {
	Assignments []Assignment
	// OnChipBytes and OffChipBytes are the totals placed in each region.
	OnChipBytes  int
	OffChipBytes int
	// Capacity echoes the MPB capacity used.
	Capacity int
	// ByVar indexes assignments.
	ByVar map[*scope.VarInfo]*Assignment
}

// Placement returns the placement for v (OffChip if v was not shared).
func (r *Result) Placement(v *scope.VarInfo) Placement {
	if a, ok := r.ByVar[v]; ok {
		return a.Placement
	}
	return OffChip
}

// Decide is Stage 4, the one decision Stage 5 applies: it places the
// shared variables for policy within capacity bytes of on-chip memory.
// The off-chip policy ignores the capacity and reports 0. The profiled
// policy applies onChip, the measured placement map (variable name ->
// on-chip), in declaration order: a mapped variable that no longer fits
// falls back to off-chip (the optimizer never chooses such a set, but a
// stale or hand-written map must degrade instead of overflowing the
// MPB), and unmapped variables go off-chip. The static policies ignore
// onChip.
func Decide(shared []*scope.VarInfo, policy Policy, capacity int, onChip map[string]bool) (*Result, error) {
	switch policy {
	case PolicyOffChipOnly:
		return Partition(shared, 0, policy), nil
	case PolicyProfiled:
		if onChip == nil {
			return nil, fmt.Errorf("the profiled policy needs an explicit placement map (run the profiler first)")
		}
		r := newResult(capacity, len(shared))
		for _, v := range shared {
			r.place(v, onChip[v.Name])
		}
		return r, nil
	}
	return Partition(shared, capacity, policy), nil
}

// Partition runs Algorithm 3 (or the selected policy) over the shared
// variables with the given on-chip capacity in bytes.
func Partition(shared []*scope.VarInfo, capacity int, policy Policy) *Result {
	r := newResult(capacity, len(shared))
	total := 0
	for _, v := range shared {
		total += v.MemSize
	}
	// When everything fits, everything goes on-chip in declaration order
	// (Algorithm 3 lines 4-12); otherwise the policy orders the greedy.
	ordered := shared
	if total > capacity {
		switch policy {
		case PolicySizeAscending:
			// Algorithm 3 line 14: sort by size ascending.
			ordered = scope.SortedByMemSize(shared)
		case PolicyFrequencyDensity:
			ordered = append([]*scope.VarInfo(nil), shared...)
			sort.SliceStable(ordered, func(i, j int) bool {
				di := density(ordered[i])
				dj := density(ordered[j])
				if di != dj {
					return di > dj
				}
				return ordered[i].Name < ordered[j].Name
			})
		}
	}
	for _, v := range ordered {
		r.place(v, policy != PolicyOffChipOnly)
	}
	return r
}

func newResult(capacity, n int) *Result {
	return &Result{
		Capacity:    capacity,
		Assignments: make([]Assignment, 0, n),
		ByVar:       make(map[*scope.VarInfo]*Assignment, n),
	}
}

// place puts v on-chip if want and it still fits the capacity, off-chip
// otherwise, at the next free offset of its region.
func (r *Result) place(v *scope.VarInfo, want bool) {
	a := Assignment{Var: v, Placement: OffChip, Offset: r.OffChipBytes}
	if want && v.MemSize <= r.Capacity-r.OnChipBytes {
		a.Placement, a.Offset = OnChip, r.OnChipBytes
		r.OnChipBytes += v.MemSize
	} else {
		r.OffChipBytes += v.MemSize
	}
	r.Assignments = append(r.Assignments, a)
	r.ByVar[v] = &r.Assignments[len(r.Assignments)-1]
}

func density(v *scope.VarInfo) float64 {
	if v.MemSize == 0 {
		return 0
	}
	return float64(v.Reads+v.Writes) / float64(v.MemSize)
}

// Dump renders the partitioning decision for diagnostics and tests.
func (r *Result) Dump() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "on-chip capacity: %d bytes, used %d; off-chip used %d\n",
		r.Capacity, r.OnChipBytes, r.OffChipBytes)
	for _, a := range r.Assignments {
		fmt.Fprintf(&sb, "%-12s %6d B -> %s (offset %d)\n",
			a.Var.Name, a.Var.MemSize, a.Placement, a.Offset)
	}
	return sb.String()
}
