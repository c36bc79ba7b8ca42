package main

// grid_sweep: "C source in -> grid JSON out". One op is bench.RunGrid on
// a 12-cell mini-grid with a fresh benchmark-owned bench.Cache, followed
// by Report.JSON.

import (
	"crypto/sha256"
	"fmt"
	"time"

	"hsmcc/internal/bench"
	"hsmcc/internal/profile"
	"hsmcc/internal/sccsim"
)

var (
	gridPolicies = []string{"offchip", "size", "freq", "profiled"}
	gridBudgets  = []int{2048, 65536, 0}
)

type gridInst struct {
	ops   []gridOp
	procs int
}

func setupGridSweep(seed int64, opt options) (instance, error) {
	g := &gridInst{ops: drawGridSweep(seed, opt.quick), procs: opt.procs}
	if err := warmUp(g, func(i int) string { return g.ops[i].Key }); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *gridInst) size() int    { return len(g.ops) }
func (g *gridInst) workers() int { return 1 } // RunGrid itself fans out to procs workers
func (g *gridInst) close()       {}

func (g *gridInst) grid(i int) bench.Grid {
	op := g.ops[i]
	return bench.Grid{
		Name:       "mini",
		Workloads:  []string{op.Key},
		Cores:      []int{op.Cores},
		Policies:   gridPolicies,
		MPBBudgets: gridBudgets,
		Scale:      op.Scale,
	}
}

func (g *gridInst) run(_, i int) outcome {
	rep, err := bench.RunGrid(g.grid(i), bench.RunOptions{Parallel: g.procs, Cache: bench.NewCache()})
	if err != nil {
		return outcome{fail: err.Error()}
	}
	doc, err := rep.JSON()
	if err != nil {
		return outcome{fail: err.Error()}
	}
	return gridOutcome(rep, doc)
}

// gridOutcome digests the report document, which carries every cell's
// makespans, counters and match flag, and checks each cell.
func gridOutcome(rep *bench.Report, doc []byte) outcome {
	out := outcome{digest: sha256.Sum256(doc)}
	for _, c := range rep.Results {
		switch {
		case c.Error != "":
			out.fail = fmt.Sprintf("cell %d: %s", c.Index, c.Error)
		case !c.Match:
			out.fail = fmt.Sprintf("cell %d: RCCE output differs from the Pthread baseline", c.Index)
		default:
			out.speedups = append(out.speedups, c.Speedup)
		}
	}
	return out
}

func (g *gridInst) traced(tr *tracer, led ledger) tracedResult {
	var res tracedResult
	k := tr.track(0)
	outs := make([]outcome, len(g.ops))
	var serial time.Duration
	for i := range g.ops {
		k.op = i
		grid := g.grid(i)

		t0 := time.Now()
		plain := g.run(0, i)
		res.plain += time.Since(t0)

		cache := bench.NewCache()
		endOp := k.begin("bench.grid_op")
		end := k.begin("bench.RunGrid")
		rep, err := bench.RunGrid(grid, bench.RunOptions{Parallel: g.procs, Cache: cache})
		end()
		var doc []byte
		if err == nil {
			end = k.begin("bench.Report.JSON")
			doc, err = rep.JSON()
			end()
		}
		endOp()
		res.attempted++
		if err != nil {
			res.fail(i, err.Error())
			continue
		}
		outs[i] = gridOutcome(rep, doc)
		switch {
		case outs[i].fail != "":
			res.fail(i, outs[i].fail)
		case outs[i].digest != plain.digest:
			res.fail(i, "traced report differs from the untraced one")
		}
		addCacheStats(led, cache.Stats())
		led.add("bench.grid.cells", float64(len(rep.Results)))
		for _, c := range rep.Results {
			if c.Cached {
				led.add("bench.grid.cached_cells", 1)
			}
		}
		led.add("bench.report.json_bytes", float64(len(doc)))

		// The same grid on one worker: what the pool buys.
		end = k.begin("bench.RunGrid.serial")
		t0 = time.Now()
		_, err = bench.RunGrid(grid, bench.RunOptions{Parallel: 1, Cache: bench.NewCache()})
		serial += time.Since(t0)
		end()
		if err != nil {
			res.fail(i, "serial grid: "+err.Error())
		}
		if err := g.profileOp(k, i, led); err != nil {
			res.fail(i, "profile: "+err.Error())
		}
	}
	res.digest = digestOf(outs)

	self, err := selfByName(tr.spans)
	if err != nil {
		res.fail(-1, err.Error())
		return res
	}
	res.traced = tr.total("bench.grid_op")
	led["bench.grid.run_ms"] = self["bench.RunGrid"]
	led["bench.grid.cells_per_s"] = ratio(led["bench.grid.cells"], self["bench.RunGrid"]/1000)
	led["bench.grid.parallel_speedup"] = ratio(ms(serial), self["bench.RunGrid"])
	led["bench.report.json_ms"] = self["bench.Report.JSON"]
	led["profile.run_ms"] = self["profile.run"]
	led["profile.optimize_ms"] = self["profile.optimize"]
	return res
}

// profileOp times the two halves of profile-guided placement on their
// own — the profiling pass a grid's profiled cells share, and one
// optimizer solve per budget — since RunGrid hides both inside its cells.
func (g *gridInst) profileOp(k *track, i int, led ledger) error {
	op := g.ops[i]
	w, ok := bench.ByKey(op.Key)
	if !ok {
		return fmt.Errorf("unknown workload key %q", op.Key)
	}
	cfg := bench.DefaultConfig().PrecomputeMachineEnv()
	cfg.Threads = op.Cores
	cfg.Scale = op.Scale
	cfg.Cache = bench.NewCache()
	end := k.begin("profile.run")
	rep, err := bench.ProfileWorkload(w, cfg)
	end()
	if err != nil {
		return err
	}
	led.add("profile.vars", float64(len(rep.Vars)))
	full := sccsim.DefaultConfig().MPBTotal()
	end = k.begin("profile.optimize")
	for _, b := range gridBudgets {
		if b == 0 {
			b = full
		}
		profile.Optimize(rep, b)
	}
	end()
	return nil
}
