package bench

// Identity is enforced, not remembered. A memo key is built from a spec,
// and these tests pin the two halves of that sentence: everything a key
// can hold is plain data (so no hook can be stored in one), and every
// input a stage reads is in that stage's key and in no other's (so the
// sharing a sweep relies on is neither too wide nor too narrow).

import (
	"reflect"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/partition"
	"hsmcc/internal/profile"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// TestSpecIsPlainData walks every type a memo key is made of. A func,
// pointer, interface, map or chan at any depth — and a slice anywhere
// but sccsim.Config.Tiers, which %+v renders by value — would let
// per-request or per-process state into a key.
func TestSpecIsPlainData(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Func, reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Map, reflect.Chan:
			t.Errorf("%s is a %s: not plain data", path, typ.Kind())
		case reflect.Slice:
			if path != "sccsim.Config.Tiers" {
				t.Errorf("%s is a slice: not comparable, and only sccsim.Config.Tiers is rendered into a key", path)
			}
			walk(path+"[]", typ.Elem())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	keyed := []reflect.Type{
		reflect.TypeOf(spec{}),
		reflect.TypeOf(key{}),
		reflect.TypeOf(pthreadrt.Params{}),
		reflect.TypeOf(rcce.Params{}),
	}
	for _, typ := range keyed {
		walk(typ.String(), typ)
		if !typ.Comparable() {
			t.Errorf("%s is not comparable: it cannot be (part of) a map key", typ)
		}
	}
	walk("sccsim.Config", reflect.TypeOf(sccsim.Config{}))
	walk("sccsim.Tier", reflect.TypeOf(sccsim.Tier{}))
}

// nopObserver implements every interface-typed hook.
type nopObserver struct{ _ int }

func (*nopObserver) NoteAccess(core int, addr uint32, write bool)          {}
func (*nopObserver) NoteAlloc(onChip bool, seq int, addr uint32, size int) {}
func (*nopObserver) TraceSpawn(ctx, core int, at sccsim.Time)              {}
func (*nopObserver) TraceResume(ctx, core int, at sccsim.Time)             {}
func (*nopObserver) TraceUnblock(ctx, core int, at sccsim.Time)            {}
func (*nopObserver) TraceSpin(ctx, core int, at sccsim.Time, backoff int)  {}
func (*nopObserver) TraceSuspend(ctx, core int, at sccsim.Time, kind interp.SuspendKind, reason interp.BlockReason) {
}

// freshHook returns a new non-nil value of a hook field's type that does
// nothing: a func returning zero values (and, where it returns a func,
// another such func), or a fresh *nopObserver for an interface.
func freshHook(t *testing.T, typ reflect.Type) reflect.Value {
	t.Helper()
	switch typ.Kind() {
	case reflect.Func:
		return reflect.MakeFunc(typ, func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, typ.NumOut())
			for i := range out {
				if o := typ.Out(i); o.Kind() == reflect.Func {
					out[i] = freshHook(t, o)
				} else {
					out[i] = reflect.Zero(o)
				}
			}
			return out
		})
	case reflect.Interface:
		if v := reflect.ValueOf(new(nopObserver)); v.Type().Implements(typ) {
			return v
		}
	}
	t.Fatalf("no do-nothing value for a hook of type %s: teach freshHook (or nopObserver) about it", typ)
	return reflect.Value{}
}

// setEveryHook fills every hook field cfg can carry — the fields of
// Hooks, of both runtimes' Observers and rcce.Options.AllocObserver,
// enumerated by reflection so a hook added later is covered unedited.
func setEveryHook(t *testing.T, cfg *Config) {
	t.Helper()
	fill := func(s any) {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).Set(freshHook(t, v.Field(i).Type()))
		}
	}
	fill(&cfg.Hooks)
	fill(&cfg.Baseline.Observers)
	fill(&cfg.RCCE.Observers)
	ao := reflect.ValueOf(&cfg.RCCE).Elem().FieldByName("AllocObserver")
	ao.Set(freshHook(t, ao.Type()))
}

// identityProbe is what the identity tests run per configuration: one
// cell through both backends plus a profiled translation, which between
// them reach every memoized stage.
type identityProbe struct {
	policy partition.Policy
	// placement, when non-nil, is translated as a hand-built profiled
	// placement on top (the only way to vary a placement digest alone).
	placement *profile.Placement
}

type probeResult struct {
	Both       *BothResult
	Source     string
	OnChip     int
	Placement  string
	HandPlaced string
}

func (p identityProbe) run(t *testing.T, w Workload, cfg Config) probeResult {
	t.Helper()
	both, err := RunBothBackends(w, cfg, p.policy)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TranslateWorkload(w, cfg, partition.PolicyProfiled)
	if err != nil {
		t.Fatal(err)
	}
	res := probeResult{Both: both, Source: tr.Source, OnChip: tr.OnChipBytes, Placement: tr.Placement.Digest()}
	if p.placement != nil {
		hand, err := cfg.translation(w, partition.PolicyProfiled, 16384, p.placement)
		if err != nil {
			t.Fatal(err)
		}
		res.HandPlaced = hand.source
	}
	return res
}

func identityConfig(t *testing.T, preset string) Config {
	cfg := configFor(t, preset)
	cfg.Threads = 4
	cfg.Scale = 0.05
	return cfg
}

// TestHooksNeverReachAKey runs the probe under two configurations that
// are equal except that every hook field of each holds its own distinct
// non-nil value, sharing one cache. Were any hook part of a key (as a
// pointer rendered by %+v once was one forgotten `= nil` away from
// being), the second run would compute again; it must compute nothing,
// and both must return what a hook-free run returns.
func TestHooksNeverReachAKey(t *testing.T) {
	w, _ := ByKey("dot")
	probe := identityProbe{policy: partition.PolicySizeAscending}

	plain := identityConfig(t, "scc48")
	plain.Cache = NewCache()
	want := probe.run(t, w, plain)

	shared := NewCache()
	for _, name := range []string{"first", "second"} {
		cfg := identityConfig(t, "scc48")
		cfg.Cache = shared
		setEveryHook(t, &cfg)
		if got := probe.run(t, w, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%s hooked run differs from the hook-free run:\n got %+v\nwant %+v", name, got, want)
		}
	}
	if shared.computes != plain.Cache.computes {
		t.Errorf("two hooked runs computed %v per stage, one hook-free run %v: a hook reached a key",
			shared.computes, plain.Cache.computes)
	}
}

// TestIdentityFieldsSeparate changes one identity input at a time and
// requires a second compute of exactly the stages that read it. The
// analysis and compile stages are keyed by the Pthread text, which only
// the thread count and the scale shape; the compile column keeps the
// unknown pins it had when it also compiled printed translations.
// Policy, budget and placement digest separate Stage 4's decision
// (partition); the translation reads only the on-chip set the decision
// picks, so it is computed again only when the set changes.
func TestIdentityFieldsSeparate(t *testing.T) {
	w, _ := ByKey("dot")
	handPlaced := func(onChip string) *profile.Placement {
		pl := &profile.Placement{Budget: 16384}
		for _, name := range []string{"a", "b", "psum"} {
			pl.Choices = append(pl.Choices, profile.Choice{Name: name, OnChip: name == onChip})
		}
		return pl
	}
	const (
		same    = 0
		again   = 1
		unknown = -1
	)
	type recompute struct{ compile, partition, translate, baseline, profile, placement, analyze int }
	rows := []struct {
		name   string
		change func(cfg *Config, p *identityProbe)
		want   recompute
	}{
		{"nothing", func(*Config, *identityProbe) {},
			recompute{same, same, same, same, same, same, same}},
		{"threads", func(cfg *Config, _ *identityProbe) { cfg.Threads = 2 },
			recompute{again, again, again, again, again, again, again}},
		{"scale", func(cfg *Config, _ *identityProbe) { cfg.Scale = 0.1 },
			recompute{again, again, again, again, again, again, again}},
		{"machine preset", func(cfg *Config, _ *identityProbe) {
			cache := cfg.Cache
			*cfg = identityConfig(t, "mesh256")
			cfg.Cache = cache
		}, recompute{unknown, again, again, again, again, again, same}},
		{"Baseline.QuantumCycles", func(cfg *Config, _ *identityProbe) { cfg.Baseline.QuantumCycles = 5_000 },
			recompute{same, same, same, again, same, same, same}},
		// A runtime parameter reaches a decision only through the
		// measured placement's digest, when the new profile moves it.
		{"RCCE.StripeMPB", func(cfg *Config, _ *identityProbe) { cfg.RCCE.StripeMPB = false },
			recompute{same, unknown, same, same, again, again, same}},
		{"UE map", func(cfg *Config, _ *identityProbe) { cfg.RCCE.Cores = []int{3, 2, 1, 0} },
			recompute{same, unknown, same, same, again, again, same}},
		// dot's shared set is a and b (6528 bytes each) and psum (32).
		// At 2048 bytes size places psum alone on-chip, the set the
		// hand-built placement already translated; at 6600 it adds a.
		{"budget", func(cfg *Config, _ *identityProbe) { cfg.MPBCapacity = 2048 },
			recompute{unknown, again, same, same, same, again, same}},
		{"budget to a new set", func(cfg *Config, _ *identityProbe) { cfg.MPBCapacity = 6600 },
			recompute{unknown, again, again, same, same, again, same}},
		// Both policies place the whole shared set at the full budget:
		// two decisions, one translation.
		{"policy size to freq", func(_ *Config, p *identityProbe) { p.policy = partition.PolicyFrequencyDensity },
			recompute{unknown, again, same, same, same, same, same}},
		{"policy size to offchip", func(_ *Config, p *identityProbe) { p.policy = partition.PolicyOffChipOnly },
			// The off-chip decision and translation are the profiling
			// pass's reference placement: already computed.
			recompute{same, same, same, same, same, same, same}},
		{"policy size to profiled", func(_ *Config, p *identityProbe) { p.policy = partition.PolicyProfiled },
			recompute{same, same, same, same, same, same, same}},
		{"placement digest", func(_ *Config, p *identityProbe) { p.placement = handPlaced("a") },
			recompute{unknown, again, again, same, same, same, same}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := identityConfig(t, "scc48")
			cfg.Cache = NewCache()
			probe := identityProbe{policy: partition.PolicySizeAscending, placement: handPlaced("psum")}
			probe.run(t, w, cfg)
			first := cfg.Cache.computes
			if first[stageAnalyze] != 1 || first[stageBaseline] != 1 || first[stageProfile] != 1 || first[stagePlacement] != 1 ||
				first[stagePartition] != 4 || first[stageTranslate] != 3 {
				// size, the off-chip reference, the measured placement and the
				// hand-built one: four decisions of one analysed source. Size
				// and the measured placement both put the whole shared set
				// on-chip, so they share one of three translations.
				t.Fatalf("first probe computed %v, want one analysis, baseline, profile and placement, four decisions and three translations", first)
			}
			row.change(&cfg, &probe)
			probe.run(t, w, cfg)
			second := cfg.Cache.computes
			for _, c := range []struct {
				st   stage
				want int
			}{
				{stageCompile, row.want.compile}, {stagePartition, row.want.partition}, {stageTranslate, row.want.translate},
				{stageBaseline, row.want.baseline}, {stageProfile, row.want.profile},
				{stagePlacement, row.want.placement}, {stageAnalyze, row.want.analyze},
			} {
				delta := second[c.st] - first[c.st]
				if (c.want == same && delta != 0) || (c.want == again && delta == 0) {
					t.Errorf("stage %s: %d further computes, want %s", c.st, delta,
						map[int]string{same: "none (it does not read this input)", again: "some (it reads this input)"}[c.want])
				}
			}
		})
	}
}

// TestNilCacheSameResult pins the one-path rule: every stage calls the
// store unconditionally, and a nil *Cache computes each time from the
// single check in get — to the same bytes a fresh cache produces.
func TestNilCacheSameResult(t *testing.T) {
	w, _ := ByKey("dot")
	for _, policy := range []partition.Policy{partition.PolicySizeAscending, partition.PolicyProfiled} {
		cfg := identityConfig(t, "scc48")
		uncached, err := RunBothBackends(w, cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cache = NewCache()
		cached, err := RunBothBackends(w, cfg, policy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(uncached, cached) {
			t.Errorf("policy %v: nil-cache result differs from the cached one:\n nil  %+v\ncache %+v", policy, uncached, cached)
		}
	}
}
