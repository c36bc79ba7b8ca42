package bench

import (
	"fmt"
	"sort"
	"strings"

	"hsmcc/internal/synth"
)

// SynthWorkload lifts a synthetic parameter vector into a bench
// workload. The workload key is the vector's canonical synth: encoding
// — the full spec digest — so every cache the harness keys by workload
// (baseline runs, translations, profiles, placements, grid cells)
// distinguishes synthetic cells from corpus workloads and from each
// other by construction: two vectors differing in any field have
// different keys, and no corpus key starts with "synth:".
//
// The harness scale factor maps onto the per-round operation budget
// (synth.Params.Scaled), leaving the sharing/footprint shape — the axis
// under study — invariant.
func SynthWorkload(p synth.Params) Workload {
	return Workload{
		Key:   p.Key(),
		Name:  p.Name(),
		Class: "synthetic",
		Source: func(threads int, scale float64) string {
			return p.Scaled(scale).Source(threads)
		},
	}
}

// SynthPlaneOptions parameterise the default sharing×footprint sweep
// plane: the fixed mix every plane cell shares, and the two swept axes.
type SynthPlaneOptions struct {
	Seed       int64
	Sharings   []int // degree-of-sharing axis
	Footprints []int // shared addresses per sharing group
}

// DefaultSynthPlane is the committed BENCH_synth.json plane: sharing
// degrees from private-ish (1) to widely shared (8), shared footprints
// from MPB-trivial to budget-straining.
func DefaultSynthPlane() SynthPlaneOptions {
	return SynthPlaneOptions{
		Seed:       1,
		Sharings:   []int{1, 2, 4, 8},
		Footprints: []int{64, 256, 1024},
	}
}

// SynthPlane enumerates the plane's parameter vectors: a fixed
// memory-heavy mix (75% memory ops, 60% loads, 60% shared) crossed over
// the sharing and footprint axes. Two compute rounds make the parity
// write buffers live in both directions, so profiled placement sees
// genuine read-write shared traffic.
func SynthPlane(opt SynthPlaneOptions) []synth.Params {
	var out []synth.Params
	for _, sh := range opt.Sharings {
		for _, fp := range opt.Footprints {
			out = append(out, synth.Params{
				Seed:         opt.Seed,
				Ops:          768,
				MemFrac:      0.75,
				LoadFrac:     0.6,
				SharedFrac:   0.6,
				Sharing:      sh,
				SharedAddrs:  fp,
				PrivateAddrs: 32,
				Rounds:       2,
			})
		}
	}
	return out
}

// SynthWin is one point of the profiled-vs-static win map: at a
// (sharing, footprint, cores, budget) cell, how the profile-guided
// placement's makespan compares against the best static policy's.
type SynthWin struct {
	Workload     string `json:"workload"`
	Sharing      int    `json:"sharing"`
	Footprint    int    `json:"footprint"`
	Cores        int    `json:"cores"`
	MPBBudget    int    `json:"mpb_budget"`
	ProfiledPs   uint64 `json:"profiled_ps"`
	BestStatic   string `json:"best_static"`
	BestStaticPs uint64 `json:"best_static_ps"`
	// Delta is best_static_ps / profiled_ps: > 1 where profiling wins,
	// < 1 where a static heuristic was already optimal.
	Delta float64 `json:"delta"`
}

// SynthWinMap derives the win map from a grid report: for every
// synthetic (workload, cores, budget) point that has a profiled cell
// and at least one error-free static cell, one SynthWin comparing the
// profiled makespan to the fastest static policy's. Points are sorted
// (sharing, footprint, cores, budget) so the JSON diffs cleanly.
func SynthWinMap(rep *Report) []SynthWin {
	type point struct {
		workload      string
		cores, budget int
	}
	profiled := make(map[point]uint64)
	static := make(map[point]CellResult)
	for _, res := range rep.Results {
		if !synth.IsKey(res.Workload) || res.Error != "" {
			continue
		}
		pt := point{res.Workload, res.Cores, res.MPBBudget}
		if res.Policy == "profiled" {
			profiled[pt] = res.RCCEPs
			continue
		}
		if best, ok := static[pt]; !ok || res.RCCEPs < best.RCCEPs {
			static[pt] = res
		}
	}
	var wins []SynthWin
	for pt, prof := range profiled {
		best, ok := static[pt]
		if !ok || prof == 0 {
			continue
		}
		p, err := synth.ParseKey(pt.workload)
		if err != nil {
			continue
		}
		wins = append(wins, SynthWin{
			Workload:     pt.workload,
			Sharing:      p.Sharing,
			Footprint:    p.SharedAddrs,
			Cores:        pt.cores,
			MPBBudget:    pt.budget,
			ProfiledPs:   prof,
			BestStatic:   best.Policy,
			BestStaticPs: best.RCCEPs,
			Delta:        float64(best.RCCEPs) / float64(prof),
		})
	}
	sort.Slice(wins, func(i, j int) bool {
		a, b := wins[i], wins[j]
		if a.Sharing != b.Sharing {
			return a.Sharing < b.Sharing
		}
		if a.Footprint != b.Footprint {
			return a.Footprint < b.Footprint
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		return a.MPBBudget < b.MPBBudget
	})
	return wins
}

// FormatSynthWinMap renders the win map as the text table hsmbench
// prints alongside the JSON artifact.
func FormatSynthWinMap(wins []SynthWin) string {
	if len(wins) == 0 {
		return "no synthetic profiled-vs-static cells in report\n"
	}
	var sb strings.Builder
	sb.WriteString("Profiled-vs-static win map (delta > 1: profiled placement wins)\n")
	fmt.Fprintf(&sb, "%7s %9s %5s %9s %12s %12s %-8s %7s\n",
		"sharing", "footprint", "cores", "budget", "profiled_ps", "static_ps", "static", "delta")
	for _, w := range wins {
		fmt.Fprintf(&sb, "%7d %9d %5d %9d %12d %12d %-8s %7.3f\n",
			w.Sharing, w.Footprint, w.Cores, w.MPBBudget,
			w.ProfiledPs, w.BestStaticPs, w.BestStatic, w.Delta)
	}
	return sb.String()
}
