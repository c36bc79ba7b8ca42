package main

// The four single-worker workloads — sim_private, sim_shared, sim_wide
// and compile_many — share one op: bench.RunBothBackends with a fresh
// bench.Cache. The traced run executes each op a second time decomposed
// into the public calls RunBothBackends makes, one span per layer, and
// requires both executions to agree.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"hsmcc/internal/analysis/interthread"
	"hsmcc/internal/analysis/pointsto"
	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/bench"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/lexer"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/trace"
	"hsmcc/internal/translate"
)

// simInst is a set-up sim-type workload.
type simInst struct {
	seed int64
	ops  []simOp
	// cells[i] is ops[i] resolved against the harness.
	cells []simCell
	// confGenMs/synthGenMs are compile_many's input-generation times.
	confGenMs, synthGenMs float64
	// recorder makes the traced run also price an attached
	// trace.Recorder. Only sim_shared does: its runs are long and
	// switch-dense enough for the ratio to mean something.
	recorder bool
}

// simCell is a resolved op: the workload, the harness configuration
// (machine-config fingerprint precomputed, as every production caller
// does) and the Stage 4 policy.
type simCell struct {
	w      bench.Workload
	cfg    bench.Config
	mcfg   sccsim.Config
	policy partition.Policy
}

// resolveSimOps resolves a list against the harness, one configuration
// template per machine preset.
func resolveSimOps(ops []simOp) ([]simCell, error) {
	templates := make(map[string]bench.Config)
	cells := make([]simCell, len(ops))
	for i, op := range ops {
		mcfg, err := sccsim.PresetConfig(op.Machine)
		if err != nil {
			return nil, err
		}
		tmpl, ok := templates[op.Machine]
		if !ok {
			tmpl = bench.DefaultConfig()
			tmpl.Machine = func() *sccsim.Machine { return sccsim.MustNew(mcfg) }
			tmpl = tmpl.PrecomputeMachineEnv()
			templates[op.Machine] = tmpl
		}
		c := simCell{cfg: tmpl, mcfg: mcfg}
		c.cfg.Threads = op.Threads
		c.cfg.Scale = op.Scale
		if c.policy, err = bench.ParsePolicy(op.Policy); err != nil {
			return nil, err
		}
		if op.Source != "" {
			src := op.Source
			c.w = bench.Workload{Key: op.Key, Name: op.Key, Class: "generated",
				Source: func(int, float64) string { return src }}
		} else {
			var ok bool
			if c.w, ok = bench.ByKey(op.Key); !ok {
				return nil, fmt.Errorf("unknown workload key %q", op.Key)
			}
		}
		cells[i] = c
	}
	return cells, nil
}

// newSimInst resolves the list and runs the untimed warm-up: one op per
// distinct key (per generator for compile_many).
func newSimInst(seed int64, ops []simOp, warmKey func(simOp) string) (*simInst, error) {
	cells, err := resolveSimOps(ops)
	if err != nil {
		return nil, err
	}
	s := &simInst{seed: seed, ops: ops, cells: cells}
	if err := warmUp(s, func(i int) string { return warmKey(ops[i]) }); err != nil {
		return nil, err
	}
	return s, nil
}

func byKey(op simOp) string { return op.Key }

func setupSimPrivate(seed int64, opt options) (instance, error) {
	return newSimInst(seed, drawSimPrivate(seed, opt.quick), byKey)
}

func setupSimShared(seed int64, opt options) (instance, error) {
	s, err := newSimInst(seed, drawSimShared(seed, opt.quick), byKey)
	if err != nil {
		return nil, err
	}
	s.recorder = true
	return s, nil
}

func setupSimWide(seed int64, opt options) (instance, error) {
	return newSimInst(seed, drawSimWide(seed, opt.quick), byKey)
}

func setupCompileMany(seed int64, opt options) (instance, error) {
	ops, confMs, synthMs := drawCompileMany(seed, opt.quick)
	// Keys are "gen<seed>" / "synth<seed>": warm one kernel of each kind.
	s, err := newSimInst(seed, ops, func(op simOp) string { return op.Key[:3] })
	if err != nil {
		return nil, err
	}
	s.confGenMs, s.synthGenMs = confMs, synthMs
	return s, nil
}

func (s *simInst) size() int    { return len(s.ops) }
func (s *simInst) workers() int { return 1 }
func (s *simInst) close()       {}

func (s *simInst) run(_, i int) outcome {
	c := &s.cells[i]
	cfg := c.cfg
	cfg.Cache = bench.NewCache()
	both, err := bench.RunBothBackends(c.w, cfg, c.policy)
	if err != nil {
		return outcome{fail: err.Error()}
	}
	return simOutcome(both)
}

// simOutcome digests a both-backends result: makespans, every
// sccsim.CoreStats counter, the Stage 4 footprint and both programs'
// output.
func simOutcome(both *bench.BothResult) outcome {
	h := sha256.New()
	for _, r := range []*bench.RunResult{both.Baseline, both.RCCE} {
		st := r.Stats
		for _, v := range []uint64{
			r.Makespan, uint64(r.OnChipBytes),
			st.Loads, st.Stores, st.PrivateAccesses, st.SharedAccesses,
			st.MPBAccesses, st.MPBRemote, st.L1Hits, st.L1Misses,
			st.L2Hits, st.L2Misses, st.MemTime, st.CompTime,
			uint64(len(r.Output)),
		} {
			binary.Write(h, binary.LittleEndian, v)
		}
		h.Write([]byte(r.Output))
	}
	out := outcome{speedups: []float64{bench.Speedup(both.Baseline, both.RCCE)}}
	h.Sum(out.digest[:0])
	if !both.Match {
		out.fail = "RCCE output differs from the Pthread baseline"
	}
	return out
}

// schedCounter is the benchmark-owned interp.TraceSink: it counts the
// scheduler edges of both runs of an op.
type schedCounter struct {
	spawns, resumes, yields, blocks, spins uint64
}

func (c *schedCounter) TraceSpawn(ctx, core int, at sccsim.Time)  { c.spawns++ }
func (c *schedCounter) TraceResume(ctx, core int, at sccsim.Time) { c.resumes++ }
func (c *schedCounter) TraceSuspend(ctx, core int, at sccsim.Time, kind interp.SuspendKind, reason interp.BlockReason) {
	switch kind {
	case interp.SuspendYield:
		c.yields++
	case interp.SuspendBlock:
		c.blocks++
	}
}
func (c *schedCounter) TraceUnblock(ctx, core int, at sccsim.Time)           {}
func (c *schedCounter) TraceSpin(ctx, core int, at sccsim.Time, backoff int) { c.spins++ }

// recorderOps is how many traced ops also measure the cost of an
// attached trace.Recorder (four extra rcce.Run each).
const recorderOps = 8

func (s *simInst) traced(tr *tracer, led ledger) tracedResult {
	var res tracedResult
	k := tr.track(0)
	outs := make([]outcome, len(s.ops))
	var recOff, recOn time.Duration
	for i := range s.ops {
		c := &s.cells[i]
		k.op = i
		var whole, parts outcome
		var translated *interp.Program
		runWhole := func() { whole = s.tracedWhole(k, c, led) }
		runParts := func() { parts, translated = decompose(k, c, led) }
		// Alternate which execution goes first, so neither always gets
		// the warmer caches and pools.
		if i%2 == 0 {
			runWhole()
			runParts()
		} else {
			runParts()
			runWhole()
		}
		res.attempted++
		outs[i] = whole
		switch {
		case whole.fail != "":
			res.fail(i, whole.fail)
		case parts.fail != "":
			res.fail(i, "decomposed: "+parts.fail)
		case parts.digest != whole.digest:
			res.fail(i, "decomposed execution disagrees with RunBothBackends on makespans, stats or output")
		}
		if s.recorder && i < recorderOps && translated != nil {
			off, on, err := recorderCost(c, translated, led)
			if err != nil {
				res.fail(i, "recorder run: "+err.Error())
			}
			recOff += off
			recOn += on
		}
	}
	res.digest = digestOf(outs)

	self, err := selfByName(tr.spans)
	if err != nil {
		res.fail(-1, err.Error())
		return res
	}
	var layers float64
	for name, metric := range layerSpans {
		led.add(metric, self[name])
		layers += self[name]
	}
	led["bench.both_ms"] = self[spanWhole]
	led["bench.overhead_ms"] = max(0, self[spanWhole]-layers)
	res.plain, res.traced = tr.total(spanWhole), tr.total(spanParts)
	if recOff > 0 {
		led["trace.recorder_overhead_frac"] = recOn.Seconds()/recOff.Seconds() - 1
	}
	led["synth.gen_ms"] = s.synthGenMs
	led["conformance.gen_ms"] = s.confGenMs
	finishSimLedger(led, s.cells[0].mcfg, s.seed)
	return res
}

// Span names. Layer spans map to the ledger metric their self time feeds.
const (
	spanWhole = "bench.RunBothBackends"
	spanParts = "bench.decomposed"
)

var layerSpans = map[string]string{
	"cc.lexer":             "cc.lexer.self_ms",
	"cc.parser":            "cc.parser.self_ms",
	"cc.sema":              "cc.sema.self_ms",
	"cc.printer":           "cc.printer.self_ms",
	"analysis.scope":       "analysis.scope.self_ms",
	"analysis.interthread": "analysis.interthread.self_ms",
	"analysis.pointsto":    "analysis.pointsto.self_ms",
	"partition":            "partition.self_ms",
	"translate":            "translate.self_ms",
	"interp.load":          "interp.load.self_ms",
	"sccsim.new":           "sccsim.new_ms",
	"pthreadrt":            "pthreadrt.run_ms",
	"rcce":                 "rcce.run_ms",
}

// tracedWhole is the op as the untraced run executes it, under one span,
// with the machine factory wrapped to count machines and the fresh
// cache's statistics read afterwards.
func (s *simInst) tracedWhole(k *track, c *simCell, led ledger) outcome {
	cfg := c.cfg
	cfg.Cache = bench.NewCache()
	build := cfg.Machine
	built := 0
	cfg.Machine = func() *sccsim.Machine { built++; return build() }
	end := k.begin(spanWhole)
	both, err := bench.RunBothBackends(c.w, cfg, c.policy)
	end()
	led.add("sccsim.machines_built", float64(built))
	addCacheStats(led, cfg.Cache.Stats())
	if err != nil {
		return outcome{fail: err.Error()}
	}
	return simOutcome(both)
}

func addCacheStats(led ledger, st bench.CacheStats) {
	led.add("bench.cache.hits", float64(st.Hits))
	led.add("bench.cache.misses", float64(st.Misses))
	led.add("bench.cache.program_compiles", float64(st.ProgramCompiles))
	led.add("bench.cache.translate_runs", float64(st.TranslateRuns))
	led.add("bench.cache.baseline_runs", float64(st.BaselineRuns))
	led.add("bench.cache.profile_runs", float64(st.ProfileRuns))
	led.add("bench.cache.entries", float64(st.Entries))
	led.add("bench.cache.evictions", float64(st.Evictions))
	led.add("bench.cache.cost_bytes", float64(st.CostBytes))
}

// parsedText is one text the decomposed op parsed: the parse span, the
// text and its tree, kept so that the work RunBothBackends does not do —
// tokenizing the text once more on its own, counting the tree's nodes —
// happens after the op's span has closed and costs the op nothing.
type parsedText struct {
	span int
	src  string
	file *ast.File
}

// decompose executes one op as the sequence of public calls
// bench.RunBothBackends makes, a span round each, and returns the op's
// outcome and the compiled translated program.
func decompose(k *track, c *simCell, led ledger) (outcome, *interp.Program) {
	var parsed []parsedText
	end := k.begin(spanParts)
	out, translated := decomposeSteps(k, c, led, &parsed)
	end()
	// Parse tokenizes inside. Each text is tokenized once more here and
	// that time drawn as a modelled child of its parse span, so the
	// parser's self time is Parse minus lexing.
	for _, p := range parsed {
		t0 := time.Now()
		toks, err := lexer.TokenizeWithMacros(p.src)
		lex := time.Since(t0)
		if err != nil { // Parse accepted the same text
			return outcome{fail: fmt.Sprintf("tokenize: %v", err)}, nil
		}
		k.modelled("cc.lexer", p.span, k.t.startOf(p.span), lex)
		led.add("cc.lexer.calls", 1)
		led.add("cc.lexer.src_bytes", float64(len(p.src)))
		led.add("cc.lexer.tokens", float64(len(toks)))
		nodes := 0
		ast.Inspect(p.file, func(ast.Node) bool { nodes++; return true })
		led.add("cc.parser.ast_nodes", float64(nodes))
	}
	return out, translated
}

func decomposeSteps(k *track, c *simCell, led ledger, parsed *[]parsedText) (outcome, *interp.Program) {
	threads, scale := c.cfg.Threads, c.cfg.Scale
	sink := &schedCounter{}
	fail := func(stage string, err error) (outcome, *interp.Program) {
		return outcome{fail: fmt.Sprintf("%s: %v", stage, err)}, nil
	}
	newMachine := func() *sccsim.Machine {
		defer k.begin("sccsim.new")()
		return sccsim.MustNew(c.mcfg)
	}
	// frontEnd is parser.Parse + sema.Analyze.
	frontEnd := func(name, src string) (*ast.File, *sema.Info, error) {
		end := k.begin("cc.parser")
		file, err := parser.Parse(name, src)
		end()
		if err != nil {
			return nil, nil, err
		}
		*parsed = append(*parsed, parsedText{k.last, src, file})
		led.add("cc.parser.calls", 1)
		end = k.begin("cc.sema")
		info, err := sema.Analyze(file)
		end()
		led.add("cc.sema.calls", 1)
		return file, info, err
	}
	compile := func(name, src string) (*interp.Program, error) {
		file, info, err := frontEnd(name, src)
		if err != nil {
			return nil, err
		}
		end := k.begin("interp.load")
		pr, err := interp.Load(file, info)
		end()
		if err != nil {
			return nil, err
		}
		led.add("interp.load.calls", 1)
		led.add("interp.load.funcs", float64(len(pr.Funcs)))
		if !pr.FullyCompiled() {
			led.add("interp.load.not_fully_compiled", 1)
		}
		return pr, nil
	}

	// Baseline half: compile the Pthread source, run it on one core.
	basePr, err := compile(c.w.Key+".c", c.w.Source(threads, scale))
	if err != nil {
		return fail("baseline compile", err)
	}
	bopts := c.cfg.Baseline
	bopts.Trace = sink
	m := newMachine()
	end := k.begin("pthreadrt")
	bres, err := pthreadrt.Run(basePr, m, bopts)
	end()
	if err != nil {
		return fail("baseline run", err)
	}
	led.add("pthreadrt.runs", 1)
	led.add("pthreadrt.switches", float64(bres.Switches))
	led.add("pthreadrt.accesses", float64(bres.Stats.Loads+bres.Stats.Stores))
	addMachineStats(led, m, bres.Stats)

	// Translated half. TranslateWorkload builds a machine just to read
	// the full MPB size; so does this.
	capacity := newMachine().Config().MPBTotal()
	if c.policy == partition.PolicyOffChipOnly {
		capacity = 0
	}
	file, info, err := frontEnd(c.w.Key+".c", c.w.Source(threads, scale))
	if err != nil {
		return fail("translate front end", err)
	}
	end = k.begin("analysis.scope")
	sc := scope.Analyze(info)
	end()
	shared := sc.SharedVars()
	led.add("analysis.scope.vars", float64(len(sc.Vars)))
	led.add("analysis.scope.shared_vars", float64(len(shared)))
	end = k.begin("analysis.interthread")
	inter := interthread.Analyze(sc)
	end()
	end = k.begin("analysis.pointsto")
	points := pointsto.Analyze(inter, pointsto.Options{})
	end()
	end = k.begin("partition")
	part := partition.Partition(sc.SharedVars(), capacity, c.policy)
	end()
	led.add("partition.onchip_bytes", float64(part.OnChipBytes))
	end = k.begin("translate")
	unit, err := translate.Translate(file, points, part, translate.Options{Cores: threads})
	end()
	if err != nil {
		return fail("translate", err)
	}
	led.add("translate.passes_logged", float64(len(unit.Log)))
	end = k.begin("cc.printer")
	emitted := printer.Print(file)
	end()
	led.add("cc.printer.calls", 1)
	led.add("cc.printer.out_bytes", float64(len(emitted)))
	translated, err := compile(c.w.Key+"_rcce.c", emitted)
	if err != nil {
		return fail("emitted text compile", err)
	}
	ropts := rcce.DefaultOptions(threads)
	ropts.Trace = sink
	m = newMachine()
	end = k.begin("rcce")
	rres, err := rcce.Run(translated, m, ropts)
	end()
	if err != nil {
		return fail("rcce run", err)
	}
	led.add("rcce.runs", 1)
	led.add("rcce.accesses", float64(rres.Stats.Loads+rres.Stats.Stores))
	led.add("rcce.onchip_bytes", float64(rres.OnChipBytes))
	addMachineStats(led, m, rres.Stats)
	led.add("interp.sched.spawns", float64(sink.spawns))
	led.add("interp.sched.resumes", float64(sink.resumes))
	led.add("interp.sched.yields", float64(sink.yields))
	led.add("interp.sched.blocks", float64(sink.blocks))
	led.add("interp.sched.spins", float64(sink.spins))

	return simOutcome(&bench.BothResult{
		Baseline: &bench.RunResult{Makespan: bres.Makespan, Output: bres.Output, Stats: bres.Stats},
		RCCE:     &bench.RunResult{Makespan: rres.Makespan, Output: rres.Output, Stats: rres.Stats, OnChipBytes: part.OnChipBytes},
		Match:    bench.SameResults(bres.Output, rres.Output),
	}), translated
}

// addMachineStats accumulates one finished run's simulator counters.
// l1/l2 hit and miss counts are kept under scratch keys until
// finishSimLedger has used them.
func addMachineStats(led ledger, m *sccsim.Machine, st sccsim.CoreStats) {
	led.add("sccsim.loads", float64(st.Loads))
	led.add("sccsim.stores", float64(st.Stores))
	led.add("sccsim.private_accesses", float64(st.PrivateAccesses))
	led.add("sccsim.shared_accesses", float64(st.SharedAccesses))
	led.add("sccsim.mpb_accesses", float64(st.MPBAccesses))
	led.add("sccsim.mpb_remote", float64(st.MPBRemote))
	led.add("sccsim.sim_mem_ps", float64(st.MemTime))
	led.add("sccsim.sim_comp_ps", float64(st.CompTime))
	led.add(scratchL1Hits, float64(st.L1Hits))
	led.add(scratchL1Misses, float64(st.L1Misses))
	led.add(scratchL2Hits, float64(st.L2Hits))
	led.add(scratchL2Misses, float64(st.L2Misses))
	for i := 0; i < m.Config().MemControllers; i++ {
		busy, requests := m.MCBusy(i)
		led.add("sccsim.mc_busy_ps", float64(busy))
		led.add("sccsim.mc_requests", float64(requests))
	}
}

// Scratch ledger keys: raw counts behind the declared ratios and the
// replay estimate.
const (
	scratchL1Hits   = "scratch.l1_hits"
	scratchL1Misses = "scratch.l1_misses"
	scratchL2Hits   = "scratch.l2_hits"
	scratchL2Misses = "scratch.l2_misses"
)

// finishSimLedger derives the ratios of a sim-type ledger, prices its
// accesses by replay, and drops the scratch counts.
func finishSimLedger(led ledger, mcfg sccsim.Config, seed int64) {
	led["sccsim.l1_hit_ratio"] = ratio(led[scratchL1Hits], led[scratchL1Hits]+led[scratchL1Misses])
	led["sccsim.l2_hit_ratio"] = ratio(led[scratchL2Hits], led[scratchL2Hits]+led[scratchL2Misses])
	accesses := led["pthreadrt.accesses"] + led["rcce.accesses"]
	led["interp.sched.resumes_per_kacc"] = ratio(led["interp.sched.resumes"], accesses/1000)
	led["pthreadrt.host_ns_per_access"] = ratio(led["pthreadrt.run_ms"]*1e6, led["pthreadrt.accesses"])
	led["rcce.host_ns_per_access"] = ratio(led["rcce.run_ms"]*1e6, led["rcce.accesses"])
	replayInto(led, mcfg, seed)
	for _, k := range []string{scratchL1Hits, scratchL1Misses, scratchL2Hits, scratchL2Misses} {
		delete(led, k)
	}
}

// recorderCost runs the translated program four more times — without a
// trace sink, twice with a trace.Recorder attached, and without again,
// so that neither side always runs on the warmer caches — and returns
// the summed wall time of each side; the last recorder's events and
// export size go to the ledger.
func recorderCost(c *simCell, pr *interp.Program, led ledger) (off, on time.Duration, err error) {
	var rec *trace.Recorder
	for _, attach := range []bool{false, true, true, false} {
		ropts := rcce.DefaultOptions(c.cfg.Threads)
		m := sccsim.MustNew(c.mcfg)
		t0 := time.Now()
		if attach {
			rec = trace.NewRecorder(nil, 0) // its event ring is part of the cost
			ropts.Trace = rec
		}
		if _, err := rcce.Run(pr, m, ropts); err != nil {
			return 0, 0, err
		}
		if attach {
			on += time.Since(t0)
		} else {
			off += time.Since(t0)
		}
	}
	events, dropped := rec.Events()
	led.add("trace.events", float64(len(events))+float64(dropped))
	led.add("trace.dropped", float64(dropped))
	t0 := time.Now()
	var cw countWriter
	if err := rec.WriteChrome(&cw); err != nil {
		return 0, 0, err
	}
	led.add("trace.export_ms", ms(time.Since(t0)))
	led.add("trace.export_bytes", float64(cw))
	return off, on, nil
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) { *c += countWriter(len(p)); return len(p), nil }
