package bench

// Property tests for the size-bounded LRU (evict.go): the accounted
// cost never exceeds the budget, recently-used entries survive cold
// ones whatever their stage, admission control keeps oversized entries out, eviction never
// invalidates a Program already handed to a running simulation, and the
// whole machinery holds under concurrent hammering (run with -race).

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hsmcc/internal/interp"
)

// The store-level tests fill a sized Cache with translate-stage entries,
// whose cost is theirs to choose: 256 bytes plus the emitted text.
const blobOverhead = 256

func blobKey(name string) key { return key{stage: stageTranslate, spec: spec{workload: name}} }

// blob returns a translation costing exactly cost bytes whose text
// starts with tag.
func blob(tag string, cost int) *translation {
	return &translation{source: tag + string(make([]byte, cost-blobOverhead-len(tag)))}
}

// requireBound fails the test when the accounted cost exceeds the budget.
func requireBound(t *testing.T, c *Cache, when string) CacheStats {
	t.Helper()
	st := c.Stats()
	if st.CostBytes > st.MaxCostBytes {
		t.Fatalf("%s: accounted cost %d exceeds budget %d", when, st.CostBytes, st.MaxCostBytes)
	}
	return st
}

func TestEvictBoundNeverExceeded(t *testing.T) {
	c := NewCacheSized(4000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(100))
		size := 300 + rng.Intn(400)
		if _, err := memo(c, blobKey(k), func() (*translation, error) { return blob("", size), nil }); err != nil {
			t.Fatal(err)
		}
		requireBound(t, c, fmt.Sprintf("after %d ops", i+1))
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("the scenario caused no evictions — the bound was never stressed")
	}
}

func TestEvictHottestSurvive(t *testing.T) {
	// Budget fits 4 entries of 400 bytes. One hot key is touched
	// between every cold admission; the cold keys churn past the budget
	// many times over, but the hot key must never be evicted.
	c := NewCacheSized(1600)
	computes := make(map[string]int)
	getOnceCounted := func(k string) {
		t.Helper()
		if _, err := memo(c, blobKey(k), func() (*translation, error) {
			computes[k]++
			return blob("", 400), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	getOnceCounted("hot")
	for i := 0; i < 50; i++ {
		getOnceCounted(fmt.Sprintf("cold%d", i))
		getOnceCounted("hot")
	}
	if computes["hot"] != 1 {
		t.Fatalf("hot key computed %d times, want 1 — LRU evicted the most recently used entry", computes["hot"])
	}
	// And the cold tail did get evicted: re-requesting an early cold key
	// recomputes.
	getOnceCounted("cold0")
	if computes["cold0"] != 2 {
		t.Fatalf("cold0 computed %d times, want 2 (admitted, evicted, recomputed)", computes["cold0"])
	}
}

// TestEvictColdestFirstAcrossStages is the case one store can state and
// five separately locked maps could not: recency is global. Entries of
// three different stages fill the budget; the next admissions evict in
// least-recently-used order whatever stage the victims belong to.
func TestEvictColdestFirstAcrossStages(t *testing.T) {
	src := string(make([]byte, 100))
	entries := []struct {
		k key
		v any
	}{
		{key{stage: stageCompile, name: "a.c", src: src}, new(interp.Program)},
		{blobKey("b"), blob("", 1000)},
		{key{stage: stageBaseline, spec: spec{workload: "c"}}, &RunResult{Output: string(make([]byte, 400))}},
	}
	var budget int64
	for _, e := range entries {
		budget += cost(e.k, e.v)
	}
	c := NewCacheSized(budget)
	computes := make([]int, len(entries))
	get := func(i int) {
		t.Helper()
		if _, err := c.get(entries[i].k, func() (any, error) {
			computes[i]++
			return entries[i].v, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get(0) // admitted in stage order: compile, translate, baseline
	get(1)
	get(2)
	get(0) // a hit: the compile entry is now the hottest, translate the coldest
	admit := func(name string, cost int) {
		t.Helper()
		if _, err := memo(c, blobKey(name), func() (*translation, error) { return blob("", cost), nil }); err != nil {
			t.Fatal(err)
		}
		requireBound(t, c, "after admitting "+name)
	}
	// Each newcomer needs exactly the room of the entry due to go.
	admit("d", int(cost(entries[1].k, entries[1].v)))
	admit("e", int(cost(entries[2].k, entries[2].v)))
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 {
		t.Fatalf("evictions %d entries %d, want 2 and 3", st.Evictions, st.Entries)
	}
	get(0)
	if computes[0] != 1 {
		t.Fatalf("the re-touched compile entry was evicted (computed %d times) ahead of colder entries of other stages", computes[0])
	}
	get(1)
	get(2)
	if computes[1] != 2 || computes[2] != 2 {
		t.Fatalf("translate/baseline entries computed %d/%d times, want 2/2 (both evicted, coldest first)", computes[1], computes[2])
	}
}

func TestEvictOversizedServedNotCached(t *testing.T) {
	c := NewCacheSized(1000)
	for i := 0; i < 3; i++ {
		v, err := memo(c, blobKey("huge"), func() (*translation, error) { return blob("", 5000), nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(v.source) != 5000-blobOverhead {
			t.Fatalf("oversized value served with %d bytes, want %d", len(v.source), 5000-blobOverhead)
		}
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("oversized entry was cached (%d live entries), admission control failed", st.Entries)
	}
	if st.CostBytes != 0 {
		t.Fatalf("oversized entry charged %d bytes against the budget", st.CostBytes)
	}
}

func TestEvictErroredNeverCached(t *testing.T) {
	c := NewCacheSized(1000)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := memo(c, blobKey("k"), func() (*translation, error) { calls++; return nil, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("got err %v, want boom", err)
		}
	}
	if calls != 3 {
		t.Fatalf("errored computation ran %d times, want 3 (errors must not be cached)", calls)
	}
	if n := c.Stats().Entries; n != 0 {
		t.Fatalf("%d live entries after errored computations, want 0", n)
	}
}

// TestEvictInFlightProgramSurvives pins the daemon-critical property:
// evicting a compiled Program from the cache must not affect a
// simulation already running it. Values are immutable and GC-managed —
// eviction drops the map reference only.
func TestEvictInFlightProgramSurvives(t *testing.T) {
	// A budget that fits roughly one compiled program: admitting a
	// second source evicts the first.
	w := Pi()
	cfg := DefaultConfig()
	cfg.Threads = 2
	cfg.Scale = 0.01
	src := w.Source(cfg.Threads, cfg.Scale)
	cfg.Cache = NewCacheSized(512 + 6*int64(len(src)) + 64)

	pr, err := CompileBaseline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Run it once for the reference output.
	ref, err := RunBaselineProgram(w, pr, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Evict pi's program by admitting a different source of similar
	// size.
	w2 := Sum35()
	if _, err := CompileBaseline(w2, cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Cache.Stats().Evictions == 0 {
		t.Fatal("second compile did not evict — the budget is not tight enough for the property to be tested")
	}

	// The evicted Program must still run, bit-for-bit.
	res, err := RunBaselineProgram(w, pr, cfg)
	if err != nil {
		t.Fatalf("evicted in-flight program failed to run: %v", err)
	}
	if res.Output != ref.Output || res.Makespan != ref.Makespan {
		t.Fatalf("evicted program diverged: output %q makespan %d, want %q %d",
			res.Output, res.Makespan, ref.Output, ref.Makespan)
	}

	// A fresh request for pi recompiles under a new entry.
	before := cfg.Cache.Stats().ProgramCompiles
	pr2, err := CompileBaseline(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if after := cfg.Cache.Stats().ProgramCompiles; after != before+1 {
		t.Fatalf("recompile count went %d -> %d, want +1 after eviction", before, after)
	}
	if pr2 == pr {
		t.Fatal("re-request returned the evicted pointer — eviction did not drop the entry")
	}
}

// TestEvictConcurrentStress hammers one small-budget cache from many
// goroutines (meaningful under -race): the bound holds at every
// observation point, values are always correct for their key, and the
// structure stays consistent.
func TestEvictConcurrentStress(t *testing.T) {
	c := NewCacheSized(8000)
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", rng.Intn(40))
				want := "v:" + k
				v, err := memo(c, blobKey(k), func() (*translation, error) {
					return blob(want, 300+rng.Intn(400)), nil
				})
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
				if v.source[:len(want)] != want {
					select {
					case errc <- fmt.Errorf("key %s served value for %q", k, v.source[:len(want)]):
					default:
					}
					return
				}
				if st := c.Stats(); st.CostBytes > st.MaxCostBytes {
					select {
					case errc <- fmt.Errorf("cost %d exceeds budget %d", st.CostBytes, st.MaxCostBytes):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if requireBound(t, c, "final").Evictions == 0 {
		t.Fatal("stress run caused no evictions — budget was never stressed")
	}
}
