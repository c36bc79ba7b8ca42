package synth

import (
	"math"
	"strings"
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
)

// cornerParams are hand-picked extremes of the parameter space; tests
// quantify over these plus a seeded sample.
func cornerParams() []Params {
	return []Params{
		{Seed: 1, Ops: MinOps, MemFrac: 0, LoadFrac: 0, SharedFrac: 0, Sharing: 1, SharedAddrs: 1, PrivateAddrs: 1, Rounds: 1},
		{Seed: 2, Ops: 12, MemFrac: 1, LoadFrac: 0, SharedFrac: 1, Sharing: 4, SharedAddrs: 8, PrivateAddrs: 1, Rounds: 2},
		{Seed: 3, Ops: 24, MemFrac: 1, LoadFrac: 1, SharedFrac: 1, Sharing: 2, SharedAddrs: 16, PrivateAddrs: 2, Rounds: 1},
		{Seed: 4, Ops: 48, MemFrac: 0.5, LoadFrac: 0.5, SharedFrac: 0.5, Sharing: 48, SharedAddrs: 4, PrivateAddrs: 64, Rounds: 3, Double: true},
		{Seed: 5, Ops: 4096, MemFrac: 0.75, LoadFrac: 0.7, SharedFrac: 0.3, Sharing: 8, SharedAddrs: 128, PrivateAddrs: 512, Rounds: MaxRounds},
		{Seed: 6, Ops: 36, MemFrac: 1, LoadFrac: 0.5, SharedFrac: 1, Sharing: 1, SharedAddrs: 3, PrivateAddrs: 1, Rounds: 4, Double: true},
	}
}

func sampleParams(t *testing.T, n int) []Params {
	t.Helper()
	ps := cornerParams()
	for seed := int64(0); seed < int64(n); seed++ {
		p := ParamsForSeed(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("ParamsForSeed(%d) out of contract: %v", seed, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestDeterministicEmission pins the generator's central contract: the
// same (seed, params) vector yields byte-identical C source, and the
// canonical key round-trips exactly.
func TestDeterministicEmission(t *testing.T) {
	for _, p := range sampleParams(t, 40) {
		for _, threads := range []int{1, 2, 4, 9} {
			a, b := p.Source(threads), p.Source(threads)
			if a != b {
				t.Fatalf("%s at %d threads: two emissions differ", p.Key(), threads)
			}
		}
		got, err := ParseKey(p.Key())
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", p.Key(), err)
		}
		if got != p {
			t.Fatalf("key round trip: %q -> %+v, want %+v", p.Key(), got, p)
		}
	}
	// Distinct seeds individuate the schedule even at identical shape
	// parameters.
	p := cornerParams()[4]
	q := p
	q.Seed++
	if p.Source(4) == q.Source(4) {
		t.Fatal("distinct seeds emitted identical kernels")
	}
	if p.Key() == q.Key() {
		t.Fatal("distinct seeds share a workload key")
	}
}

// TestKeyValidation pins ParseKey's rejection of malformed keys.
func TestKeyValidation(t *testing.T) {
	bad := []string{
		"dot",
		"synth:",
		"synth:s1:o12:m0.5:l0.5:h0.5:d2:a4:p4:r1",      // missing kind
		"synth:s1:o12:m0.5:l0.5:h0.5:d2:a4:p4:r1:kx",   // bad kind
		"synth:s1:o2:m0.5:l0.5:h0.5:d2:a4:p4:r1:ki",    // ops below MinOps
		"synth:s1:o12:m1.5:l0.5:h0.5:d2:a4:p4:r1:ki",   // fraction out of range
		"synth:s1:o12:m0.5:l0.5:h0.5:d99:a4:p4:r1:ki",  // sharing beyond 48
		"synth:o12:s1:m0.5:l0.5:h0.5:d2:a4:p4:r1:ki",   // fields swapped
		"synth:s1:o12:m0.5:l0.5:h0.5:d2:a4:p4:r1:ki:x", // trailing field
	}
	for _, k := range bad {
		if _, err := ParseKey(k); err == nil {
			t.Errorf("ParseKey(%q) accepted a malformed key", k)
		}
	}
	if IsKey("dot") || !IsKey("synth:s0:...") {
		t.Error("IsKey misclassifies")
	}
}

// TestEmissionParses ensures every sampled kernel survives the frontend
// round trip: parse(print(ir)) succeeds and is structurally equal.
func TestEmissionParses(t *testing.T) {
	for _, p := range sampleParams(t, 25) {
		for _, threads := range []int{1, 3, 8} {
			f := p.File(threads)
			src := p.Source(threads)
			re, err := parser.Parse(f.Name, src)
			if err != nil {
				t.Fatalf("%s at %d threads does not parse: %v\n%s", p.Key(), threads, err, src)
			}
			if !ast.Equal(f, re) {
				t.Fatalf("%s at %d threads: parse(print(ir)) not structurally equal", p.Key(), threads)
			}
		}
	}
}

// TestRaceFreedomInvariants structurally verifies the race-freedom
// discipline on the emitted AST across the parameter range:
//
//  1. every store in compute round r targets prv, the r%2 parity
//     buffer, or the thread's own out slot — never sht, never the
//     opposite buffer;
//  2. every store into a data array indexes an own-window base
//     (me or me*K as the leading term);
//  3. every shared read in round r comes from sht or the 1-r%2 parity
//     buffer — arrays no thread writes in that round;
//  4. sht is written only in the warm round, under the group-leader
//     guard.
func TestRaceFreedomInvariants(t *testing.T) {
	for _, p := range sampleParams(t, 60) {
		for _, threads := range []int{1, 2, 5, 48} {
			checkRaceFreedom(t, p, threads)
		}
	}
}

func checkRaceFreedom(t *testing.T, p Params, threads int) {
	t.Helper()
	f := p.File(threads)
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name == "main" {
			continue
		}
		isWarm := fn.Name == warmName
		round := -1
		if !isWarm {
			round = int(fn.Name[len("mix")] - '0')
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignExpr)
			if !ok {
				return true
			}
			// Stores.
			if ix, ok := as.LHS.(*ast.IndexExpr); ok {
				name := ix.X.(*ast.Ident).Name
				switch {
				case !isDataArray(name) && name != outName:
					// scalar target (acc etc.)
				case name == tableName:
					if !isWarm {
						t.Fatalf("%s@%d: %s writes read-only table", p.Key(), threads, fn.Name)
					}
				case name == swapAName || name == swapBName:
					if isWarm || name != swapName(round%2) {
						t.Fatalf("%s@%d: %s writes %s (want parity buffer %s)",
							p.Key(), threads, fn.Name, name, swapName(round%2))
					}
					requireOwnWindow(t, p, threads, fn.Name, name, ix)
				case name == privName:
					requireOwnWindow(t, p, threads, fn.Name, name, ix)
				case name == outName:
					if id, ok := ix.Index.(*ast.Ident); !ok || id.Name != "me" {
						t.Fatalf("%s@%d: %s writes out at non-own index", p.Key(), threads, fn.Name)
					}
				}
			}
			// Loads within the RHS.
			ast.Inspect(as.RHS, func(m ast.Node) bool {
				ix, ok := m.(*ast.IndexExpr)
				if !ok {
					return true
				}
				name := ix.X.(*ast.Ident).Name
				if !isDataArray(name) {
					return true
				}
				if isWarm {
					t.Fatalf("%s@%d: warm round reads %s", p.Key(), threads, name)
				}
				if (name == swapAName || name == swapBName) && name != swapName(1-round%2) {
					t.Fatalf("%s@%d: %s reads %s, the buffer its own round writes",
						p.Key(), threads, fn.Name, name)
				}
				if name == privName {
					requireOwnWindow(t, p, threads, fn.Name, name, ix)
				}
				return true
			})
			return true
		})
	}
}

// requireOwnWindow asserts the index expression's leading term is the
// thread's own window base: `me` or `me * K`.
func requireOwnWindow(t *testing.T, p Params, threads int, fn, arr string, ix *ast.IndexExpr) {
	t.Helper()
	sum, ok := ix.Index.(*ast.BinaryExpr)
	if !ok {
		// Bare `j`-style index only appears in warm's own-slice loop
		// with PA == 1 windows folded; accept `me` alone.
		if id, ok := ix.Index.(*ast.Ident); ok && id.Name == "me" {
			return
		}
		t.Fatalf("%s@%d: %s accesses %s with unexpected index shape", p.Key(), threads, fn, arr)
	}
	lead := sum.X
	if pe, ok := lead.(*ast.ParenExpr); ok {
		lead = pe.X
	}
	switch l := lead.(type) {
	case *ast.Ident:
		if l.Name != "me" {
			t.Fatalf("%s@%d: %s accesses %s with base %s, want me", p.Key(), threads, fn, arr, l.Name)
		}
	case *ast.BinaryExpr:
		id, ok := l.X.(*ast.Ident)
		if !ok || id.Name != "me" {
			t.Fatalf("%s@%d: %s accesses %s with non-own window base", p.Key(), threads, fn, arr)
		}
	default:
		t.Fatalf("%s@%d: %s accesses %s with unexpected base %T", p.Key(), threads, fn, arr, lead)
	}
}

// TestMixAccounting checks the emitted instruction mix two ways: the
// AST accounting must equal the schedule's integer counts exactly
// (Rounds copies of one body), and those integer counts must land
// within nested-rounding tolerance of the requested real-valued mix.
func TestMixAccounting(t *testing.T) {
	for _, p := range sampleParams(t, 60) {
		m, err := CountMix(p.File(4))
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		body, nonMem, privLoad, privStore, sharedLoad, sharedStore := p.RequestedCounts()
		r := p.Rounds
		if m.NonMem != r*nonMem || m.PrivLoads != r*privLoad || m.PrivStores != r*privStore ||
			m.SharedLoads != r*sharedLoad || m.SharedStores != r*sharedStore {
			t.Fatalf("%s: AST mix %+v does not match scheduled counts ×%d rounds (%d %d %d %d %d)",
				p.Key(), m, r, nonMem, privLoad, privStore, sharedLoad, sharedStore)
		}
		if m.Total() != r*body {
			t.Fatalf("%s: total %d, want %d", p.Key(), m.Total(), r*body)
		}
		// Nested rounding: each split is within half a unit at its own
		// denominator.
		const eps = 1e-9
		if d := math.Abs(float64(m.Mem()) - float64(m.Total())*p.MemFrac); d > float64(r)*0.5+eps {
			t.Errorf("%s: mem count off by %.2f (> %.1f)", p.Key(), d, float64(r)*0.5)
		}
		if mem := m.Mem(); mem > 0 {
			if d := math.Abs(float64(m.Loads()) - float64(mem)*p.LoadFrac); d > float64(r)*0.5+eps {
				t.Errorf("%s: load count off by %.2f", p.Key(), d)
			}
			// Shared splits round within loads and stores separately:
			// tolerance one half-unit per sub-split.
			if d := math.Abs(float64(m.SharedLoads+m.SharedStores) - float64(mem)*p.SharedFrac); d > float64(r)+eps {
				t.Errorf("%s: shared count off by %.2f", p.Key(), d)
			}
		}
	}
}

// TestScaled pins the harness problem-size hook: scale acts on Ops
// only, floored at MinOps, leaving the sharing/footprint shape alone.
func TestScaled(t *testing.T) {
	p := cornerParams()[4]
	half := p.Scaled(0.5)
	if half.Ops != p.Ops/2 {
		t.Fatalf("Scaled(0.5).Ops = %d, want %d", half.Ops, p.Ops/2)
	}
	half.Ops = p.Ops
	if half != p {
		t.Fatal("Scaled changed a non-Ops field")
	}
	if got := p.Scaled(0); got != p {
		t.Fatal("Scaled(0) must be identity")
	}
	tiny := p
	tiny.Ops = MinOps
	if got := tiny.Scaled(0.01); got.Ops != MinOps {
		t.Fatalf("Scaled floor: got Ops %d, want %d", got.Ops, MinOps)
	}
}

// TestReductions pins the reductions' contract: every candidate is a
// valid vector of strictly smaller complexity, so greedy shrinking
// terminates. The shrink loop itself, and its monotone-predicate
// fixpoint on a vector, are tested in internal/conformance
// (TestShrinkMonotonePredicate).
func TestReductions(t *testing.T) {
	for _, p := range sampleParams(t, 30) {
		for _, c := range Reductions(p) {
			if err := c.Validate(); err != nil {
				t.Fatalf("%s: reduction %+v invalid: %v", p.Key(), c, err)
			}
			if c.Complexity() >= p.Complexity() {
				t.Fatalf("%s: reduction %+v does not shrink complexity", p.Key(), c)
			}
		}
	}
}

// TestArrayEmissionMatchesUsage checks that exactly the arrays the
// schedule touches are declared: a pure-compute kernel carries only
// out, a loads-only shared kernel carries no parity buffers.
func TestArrayEmissionMatchesUsage(t *testing.T) {
	pure := cornerParams()[0] // MemFrac 0
	src := pure.Source(4)
	for _, name := range []string{tableName, swapAName, swapBName, privName} {
		if strings.Contains(src, name) {
			t.Errorf("pure-compute kernel declares %s:\n%s", name, src)
		}
	}
	loads := cornerParams()[2] // LoadFrac 1, SharedFrac 1: table only
	src = loads.Source(4)
	if !strings.Contains(src, tableName) {
		t.Error("shared-loads kernel missing read-only table")
	}
	for _, name := range []string{swapAName, swapBName, privName} {
		if strings.Contains(src, name) {
			t.Errorf("loads-only kernel declares %s", name)
		}
	}
	stores := cornerParams()[1] // LoadFrac 0, SharedFrac 1: buffers only
	src = stores.Source(4)
	if !strings.Contains(src, swapAName) || !strings.Contains(src, swapBName) {
		t.Error("shared-stores kernel missing parity buffers")
	}
	if strings.Contains(src, tableName) {
		t.Error("stores-only kernel declares the read-only table")
	}
}
