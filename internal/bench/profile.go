package bench

// The profile-then-run harness side of the profile-guided placement
// policy (internal/profile): ProfileWorkload measures a workload's
// shared-variable access pattern once per configuration, PlacementFor
// turns the measurements into a concrete placement for a budget, and
// TranslateWorkload (harness.go) consumes the placement as the Stage 4
// `profiled` policy. The profiling pass is memoized through the shared
// bench.Cache, so a grid sweep profiles each (workload, cores) point
// exactly once no matter how many budgets and cells fan out from it.

import (
	"fmt"

	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
	"hsmcc/internal/rcce"
)

// ProfileWorkload runs the access-profiling pass for w at cfg's thread
// count and scale: translate with every shared variable off-chip (the
// uniform reference placement), execute the translated RCCE program
// once with a profile.Collector attached, and distill the counters into
// a deterministic profile.Report, memoized via cfg.Cache per (workload,
// threads, scale, machine+runtime options).
//
// The profiling run deliberately bypasses cfg.TransformRCCE: the
// fault-injection seam targets the translation under test, while the
// profile must measure the real program.
func ProfileWorkload(w Workload, cfg Config) (*profile.Report, error) {
	if cfg.Cache != nil {
		return cfg.Cache.profileReport(w, cfg)
	}
	return profileUncached(w, cfg)
}

// profileUncached is the compute half of ProfileWorkload.
func profileUncached(w Workload, cfg Config) (*profile.Report, error) {
	if err := cfg.fault("profile"); err != nil {
		return nil, fmt.Errorf("%s profile: %w", w.Key, err)
	}
	defer cfg.span("profile")()
	tr, err := cfg.Cache.translate(w, cfg.Threads, cfg.Scale, partition.PolicyOffChipOnly, 0, nil, cfg.machineFingerprint(), cfg.Fault, cfg.Span)
	if err != nil {
		return nil, fmt.Errorf("%s profile translate: %w", w.Key, err)
	}
	pr, err := cfg.Cache.program(w.Key+"_rcce.c", tr.source, cfg.Fault, cfg.Span)
	if err != nil {
		return nil, fmt.Errorf("%s profile reparse: %w", w.Key, err)
	}
	return profileProgram(w, cfg, tr, pr)
}

// profileProgram executes pr — the compiled form of the off-chip
// translation tr — with a collector attached and distills the report.
func profileProgram(w Workload, cfg Config, tr *translation, pr *interp.Program) (*profile.Report, error) {
	col := profile.NewCollector(profile.Spec{OffChip: tr.offChipAllocs, OnChip: tr.onChipAllocs})
	m := cfg.Machine()
	ropts := cfg.rcceOptions()
	ropts.Profiler = col
	ropts.AllocObserver = col
	// The profiling pass is memoized: its simulation must not leak
	// events into a per-request trace recorder, or warm and cold runs
	// would trace differently.
	ropts.Trace = nil
	res, err := rcce.Run(pr, m, ropts)
	if err != nil {
		return nil, fmt.Errorf("%s profile run: %w", w.Key, err)
	}
	mcfg := m.Config()
	return &profile.Report{
		Workload: w.Key,
		Cores:    cfg.Threads,
		Scale:    cfg.Scale,
		Vars:     col.Snapshot(),
		MPB: profile.MPBStats{
			CapacityBytes:  mcfg.MPBTotal(),
			PerCoreBytes:   mcfg.MPBStride(),
			UsedBytes:      res.OnChipBytes,
			Accesses:       res.Stats.MPBAccesses,
			Remote:         res.Stats.MPBRemote,
			SharedAccesses: res.Stats.SharedAccesses,
		},
	}, nil
}

// PlacementFor profiles w and optimizes the placement of its shared set
// for the given effective on-chip budget in bytes (callers resolve
// "0 = full MPB" first; TranslateWorkload does). Both halves are
// memoized via cfg.Cache, so a grid cell's digest lookup and its
// translation share one profiling run and one optimizer solve.
func PlacementFor(w Workload, cfg Config, budget int) (*profile.Placement, error) {
	return cfg.Cache.placementFor(w, cfg, budget)
}
