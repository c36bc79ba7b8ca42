package bench

// The profile-then-run harness side of the profile-guided placement
// policy (internal/profile): ProfileWorkload measures a workload's
// shared-variable access pattern once per configuration, PlacementFor
// turns the measurements into a concrete placement for a budget, and
// TranslateWorkload (harness.go) consumes the placement as the Stage 4
// `profiled` policy. The profiling pass is memoized through the shared
// bench.Cache, so a grid sweep profiles each (workload, cores) point
// exactly once no matter how many budgets and cells fan out from it,
// and in a sweep that one pass is the point's off-chip run.

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
// threads, scale, machine, RCCE runtime parameters and UE map). A grid
// sweep fills the same entry from its own off-chip run instead
// (gridRunner.simulate), so a single cell is what pays for this pass.
func ProfileWorkload(w Workload, cfg Config) (*profile.Report, error) {
	// The profiling pass is memoized: its simulation must not leak events
	// into a per-request trace recorder, or warm and cold runs would
	// trace differently.
	cfg.Hooks.TraceRCCE = nil
	rep, _, err := cfg.profile(w, nil)
	return rep, err
}

// profile returns w's profile at cfg, running the pass when the cache
// lacks it, and then also the pass's run. tr, when non-nil, is w's
// off-chip translation at cfg, which the caller holds already.
func (cfg Config) profile(w Workload, tr *translation) (*profile.Report, *rcce.Result, error) {
	var run *rcce.Result
	rep, err := memo(cfg.Cache, key{stage: stageProfile, spec: cfg.spec(w.Key).rcceRun()}, func() (*profile.Report, error) {
		return runStage(cfg.Hooks, stageProfile, w.Key, func() (*profile.Report, error) {
			if tr == nil {
				var err error
				if tr, err = cfg.translation(w, partition.PolicyOffChipOnly, 0, nil); err != nil {
					return nil, fmt.Errorf("%s profile translate: %w", w.Key, err)
				}
			}
			rep, res, err := profileProgram(w, cfg, tr, tr.program)
			if err != nil {
				return nil, fmt.Errorf("%s profile run: %w", w.Key, err)
			}
			run = res
			return rep, nil
		})
	})
	return rep, run, err
}

// profileProgram executes pr — a compiled form of the off-chip
// translation tr — with a collector attached and distills the report.
// It returns the run beside it: the collector only observes, so the run
// is the one pr makes unobserved (TestProfilingObservesOnly). The error
// is the run's own.
func profileProgram(w Workload, cfg Config, tr *translation, pr *interp.Program) (*profile.Report, *rcce.Result, error) {
	col := profile.NewCollector(profile.Spec{OffChip: tr.offChipAllocs, OnChip: tr.onChipAllocs})
	m := cfg.Machine()
	defer m.Release()
	ropts := cfg.rcceOptions()
	ropts.Profiler = col
	ropts.AllocObserver = col
	res, err := rcce.Run(pr, m, ropts)
	if err != nil {
		return nil, nil, err
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
	}, res, nil
}

// PlacementFor profiles w and optimizes the placement of its shared set
// for the given effective on-chip budget in bytes (callers resolve
// "0 = full MPB" first, with EffectiveBudget). Both halves are
// memoized via cfg.Cache, so a grid cell's digest lookup and its
// translation share one profiling run and one optimizer solve.
func PlacementFor(w Workload, cfg Config, budget int) (*profile.Placement, error) {
	k := key{stage: stagePlacement, spec: cfg.spec(w.Key).rcceRun(), capacity: budget}
	return memo(cfg.Cache, k, func() (*profile.Placement, error) {
		rep, err := ProfileWorkload(w, cfg)
		if err != nil {
			return nil, err
		}
		return profile.Optimize(rep, budget), nil
	})
}
