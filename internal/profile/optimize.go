package profile

// The placement optimizer: given a measured access profile and a
// concrete on-chip budget, decide which shared variables' backing
// stores go to the MPB. Every MPB access saves roughly the same latency
// over uncacheable off-chip DRAM, so the objective is to maximise the
// total number of accesses covered by the chosen set subject to the
// byte budget — a 0/1 knapsack with sizes as weights and measured
// access counts as values. Small instances (every real workload in the
// corpus) are solved exactly; larger ones fall back to the classic
// access-density greedy, and when both run the better packing wins.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Exact-solver limits: beyond either bound the optimizer is greedy-only.
// maxKnapsackItems keeps the per-budget chosen-set bitmask in a uint64;
// maxKnapsackBudget bounds the DP table (one uint64 value plus one
// uint64 mask per byte of budget).
const (
	maxKnapsackItems  = 48
	maxKnapsackBudget = 1 << 20
)

// Choice is the placement decision for one shared variable.
type Choice struct {
	Name     string `json:"name"`
	Bytes    int    `json:"bytes"`
	Accesses uint64 `json:"accesses"`
	OnChip   bool   `json:"onchip"`
}

// Placement is the optimizer's output: a concrete placement map over
// the profiled shared set for one budget. Choices are sorted by name,
// so the JSON form, the digest and the downstream Stage 4 decision are
// all deterministic in the profile.
type Placement struct {
	Budget int `json:"budget"`
	// Method records how the on-chip set was chosen: "all-onchip" (the
	// set fits), "knapsack" (exact) or "greedy" (density order).
	Method string `json:"method"`
	// OnChipBytes/OnChipAccesses summarise the chosen set.
	OnChipBytes    int      `json:"onchip_bytes"`
	OnChipAccesses uint64   `json:"onchip_accesses"`
	Choices        []Choice `json:"choices"`
	// digest is Digest, computed by Optimize once the choices are final.
	digest string
}

// OnChip returns the placement as the map Stage 4 consumes.
func (p *Placement) OnChip() map[string]bool {
	m := make(map[string]bool, len(p.Choices))
	for _, c := range p.Choices {
		if c.OnChip {
			m[c.Name] = true
		}
	}
	return m
}

// Digest is a stable fingerprint of the placement map alone (names and
// their on/off decisions). Cache keys include it so two profiled
// translations at the same (cores, policy-name, budget) tuple but with
// different measured placements can never collide — and a profiled cell
// can never collide with a static-policy cell, whose digest is empty.
// Optimize computes it once, when it builds the placement; a placement
// built by hand computes it on every call.
func (p *Placement) Digest() string {
	if p.digest != "" {
		return p.digest
	}
	return p.computeDigest()
}

func (p *Placement) computeDigest() string {
	h := fnv.New64a()
	for _, c := range p.Choices {
		region := "off"
		if c.OnChip {
			region = "on"
		}
		fmt.Fprintf(h, "%s=%s;", c.Name, region)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// String renders the decision for diagnostics.
func (p *Placement) String() string {
	var on, off []string
	for _, c := range p.Choices {
		if c.OnChip {
			on = append(on, c.Name)
		} else {
			off = append(off, c.Name)
		}
	}
	if len(on) == 0 {
		on = append(on, "-")
	}
	if len(off) == 0 {
		off = append(off, "-")
	}
	return fmt.Sprintf("placement[%s] budget=%d onchip=%d B/%d acc: on-chip %s; off-chip %s (digest %s)",
		p.Method, p.Budget, p.OnChipBytes, p.OnChipAccesses,
		strings.Join(on, ","), strings.Join(off, ","), p.Digest())
}

// item is one optimizer candidate in deterministic (name) order.
type item struct {
	name     string
	bytes    int
	accesses uint64
}

// Optimize chooses the on-chip set for the given effective budget in
// bytes (the caller resolves "0 = full MPB" before calling: a zero or
// negative budget here means no on-chip capacity and degenerates to
// all-off-chip). The chosen set never exceeds the budget; at a budget
// that fits the whole shared set it degenerates to all-on-chip, which
// equals the frequency-greedy order's packing.
func Optimize(rep *Report, budget int) *Placement {
	items := make([]item, 0, len(rep.Vars))
	for i := range rep.Vars {
		v := &rep.Vars[i]
		items = append(items, item{name: v.Name, bytes: v.Bytes, accesses: v.Accesses()})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].name < items[j].name })

	pl := &Placement{Budget: budget}
	onchip := map[string]bool{}
	total := 0
	for _, it := range items {
		total += it.bytes
	}
	switch {
	case budget <= 0:
		pl.Method = "all-offchip"
	case total <= budget:
		pl.Method = "all-onchip"
		for _, it := range items {
			onchip[it.name] = true
		}
	default:
		greedySet, greedyVal := greedyPack(items, budget)
		onchip, pl.Method = greedySet, "greedy"
		if len(items) <= maxKnapsackItems && budget <= maxKnapsackBudget {
			if exactSet, exactVal := knapsack(items, budget); exactVal > greedyVal {
				onchip, pl.Method = exactSet, "knapsack"
			} else if exactVal == greedyVal {
				// Equal value: prefer the exact solution only when it
				// spends fewer bytes; otherwise keep greedy (stable).
				if bytesOf(items, exactSet) < bytesOf(items, greedySet) {
					onchip, pl.Method = exactSet, "knapsack"
				}
			}
		}
	}

	for _, it := range items {
		on := onchip[it.name] && it.bytes > 0
		pl.Choices = append(pl.Choices, Choice{Name: it.name, Bytes: it.bytes, Accesses: it.accesses, OnChip: on})
		if on {
			pl.OnChipBytes += it.bytes
			pl.OnChipAccesses += it.accesses
		}
	}
	pl.digest = pl.computeDigest()
	return pl
}

func bytesOf(items []item, set map[string]bool) int {
	n := 0
	for _, it := range items {
		if set[it.name] {
			n += it.bytes
		}
	}
	return n
}

// greedyPack places variables in access-density order (accesses per
// byte, descending; ties by name) while they fit — the profile-driven
// analogue of Stage 4's frequency-density policy, with measured counts
// in place of static ones.
func greedyPack(items []item, budget int) (map[string]bool, uint64) {
	order := append([]item(nil), items...)
	sort.SliceStable(order, func(i, j int) bool {
		// Cross-multiplied density compare avoids float rounding:
		// a_i/b_i > a_j/b_j  <=>  a_i*b_j > a_j*b_i (sizes positive).
		bi, bj := uint64(order[i].bytes), uint64(order[j].bytes)
		if bi == 0 || bj == 0 {
			return bi != 0 // zero-sized entries sort last
		}
		di := order[i].accesses * bj
		dj := order[j].accesses * bi
		if di != dj {
			return di > dj
		}
		return order[i].name < order[j].name
	})
	set := map[string]bool{}
	remaining := budget
	var value uint64
	for _, it := range order {
		if it.bytes > 0 && it.bytes <= remaining {
			set[it.name] = true
			remaining -= it.bytes
			value += it.accesses
		}
	}
	return set, value
}

// knapsack solves the 0/1 packing exactly: dp[b] is the best access
// count achievable within b bytes, mask[b] the chosen item set (one bit
// per item in name order). Strict improvement keeps the lowest-indexed
// packing on ties, so the result is deterministic.
func knapsack(items []item, budget int) (map[string]bool, uint64) {
	dp := make([]uint64, budget+1)
	mask := make([]uint64, budget+1)
	for i, it := range items {
		if it.bytes <= 0 || it.bytes > budget {
			continue
		}
		bit := uint64(1) << uint(i)
		for b := budget; b >= it.bytes; b-- {
			if v := dp[b-it.bytes] + it.accesses; v > dp[b] {
				dp[b] = v
				mask[b] = mask[b-it.bytes] | bit
			}
		}
	}
	set := map[string]bool{}
	for i := range items {
		if mask[budget]&(uint64(1)<<uint(i)) != 0 {
			set[items[i].name] = true
		}
	}
	return set, dp[budget]
}
