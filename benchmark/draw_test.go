package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// draws renders every workload's op list for a seed, by workload name.
func draws(t *testing.T, seed int64, quick bool) map[string][]byte {
	t.Helper()
	compile, _, _ := drawCompileMany(seed, quick)
	lists := map[string]any{
		"sim_private":  drawSimPrivate(seed, quick),
		"sim_shared":   drawSimShared(seed, quick),
		"sim_wide":     drawSimWide(seed, quick),
		"compile_many": compile,
		"grid_sweep":   drawGridSweep(seed, quick),
		"serve_warm":   drawServeWarm(seed, quick),
	}
	out := make(map[string][]byte)
	for name, l := range lists {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := draws(t, 7, false), draws(t, 7, false), draws(t, 8, false)
	for _, w := range workloads {
		if !bytes.Equal(a[w.Name], b[w.Name]) {
			t.Errorf("%s: two draws on seed 7 differ", w.Name)
		}
		if bytes.Equal(a[w.Name], c[w.Name]) {
			t.Errorf("%s: seeds 7 and 8 give the same list", w.Name)
		}
	}
	if len(a) != len(workloads) {
		t.Errorf("draws cover %d workloads, %d are declared", len(a), len(workloads))
	}
}

func TestQuickListsAreShortPrefixes(t *testing.T) {
	full, quick := drawSimShared(3, false), drawSimShared(3, true)
	if len(quick) != quickOps {
		t.Fatalf("quick list has %d ops, want %d", len(quick), quickOps)
	}
	for i := range quick {
		if quick[i] != full[i] {
			t.Errorf("quick op %d = %+v, full list has %+v", i, quick[i], full[i])
		}
	}
}

// Every discrete combination appears equally often, so lists from two
// seeds differ only by the jitter and the order.
func TestListsAreBalanced(t *testing.T) {
	type combo struct {
		key     string
		threads int
		policy  string
	}
	for name, ops := range map[string][]simOp{"sim_private": drawSimPrivate(5, false), "sim_shared": drawSimShared(5, false)} {
		count := make(map[combo]int)
		for _, op := range ops {
			count[combo{op.Key, op.Threads, op.Policy}]++
		}
		want := len(ops) / len(count)
		for c, n := range count {
			if n != want {
				t.Errorf("%s: %+v appears %d times, want %d", name, c, n, want)
			}
		}
	}
	for _, op := range drawSimShared(5, false) {
		if r := sharedScales[op.Key]; op.Scale < r.lo || op.Scale >= r.hi {
			t.Errorf("sim_shared %s scale %v outside [%v, %v)", op.Key, op.Scale, r.lo, r.hi)
		}
	}
	reqs := drawServeWarm(5, false)
	mix := make(map[string]int)
	for _, r := range reqs {
		mix[r.Endpoint]++
	}
	n := len(reqs)
	if mix["translate"]*10 != 6*n || mix["compile"]*10 != 3*n || mix["simulate"]*10 != n {
		t.Errorf("serve_warm mix %v of %d is not 60/30/10", mix, n)
	}
}

func TestStratifiedCoversRange(t *testing.T) {
	xs := stratified(newRand(1), 8, 2, 4)
	for i, x := range xs {
		lo, hi := 2+0.25*float64(i), 2+0.25*float64(i+1)
		if x < lo || x >= hi {
			t.Errorf("value %d = %v outside its stratum [%v, %v)", i, x, lo, hi)
		}
	}
}
