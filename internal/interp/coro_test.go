package interp_test

import (
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/sccsim"
)

// coroProgram is a compute+memory kernel that exercises yields (memory
// cadence and clock horizon) without needing a runtime.
const coroProgram = `
int a[64];
int work(int n) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) { a[i % 64] = a[i % 64] + i; s = s + a[i % 64]; }
  return s;
}
int main() {
  printf("s %d\n", work(20000));
  return 0;
}`

// compileBoth builds src twice: the compiled Program and its tree-walk
// reference.
func compileBoth(t *testing.T, name, src string) (compiled, reference *interp.Program) {
	t.Helper()
	compiled, err := interp.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	reference, err = interpref.Compile(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return compiled, reference
}

// tryRunMainWith runs src's main on core 0 of a Program built by
// compile: interp.Compile, or interpref.Compile for the tree-walk oracle.
func tryRunMainWith(compile func(name, src string) (*interp.Program, error), src string) (*interp.Sim, error) {
	pr, err := compile("test.c", src)
	if err != nil {
		return nil, err
	}
	sim := interp.NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	if _, err := sim.Spawn(0, pr.Funcs["main"], nil, 0); err != nil {
		return nil, err
	}
	return sim, sim.Run()
}

// TestRecursionEngineParity runs a recursion-heavy program compiled and
// as the tree-walk reference: identical output and makespan means
// recursive frames reuse layouts at distinct addresses with identical
// timing.
func TestRecursionEngineParity(t *testing.T) {
	src := `
int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
int fact(int n) { int acc = 1; if (n > 1) acc = n * fact(n - 1); return acc; }
int main() { printf("%d %d\n", fib(17), fact(10)); return 0; }`
	a, err := tryRunMainWith(interp.Compile, src)
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	b, err := tryRunMainWith(interpref.Compile, src)
	if err != nil {
		t.Fatalf("tree-walk: %v", err)
	}
	if a.Output() != b.Output() || a.Makespan() != b.Makespan() {
		t.Fatalf("engines diverge: %q/%d vs %q/%d", a.Output(), a.Makespan(), b.Output(), b.Makespan())
	}
	if a.Output() != "1597 3628800\n" {
		t.Fatalf("wrong answer: %q", a.Output())
	}
}

// TestCoroutineModeEngaged pins what decides how a session runs: a
// Compiled program is fully lowered (its contexts are coroutines; the
// pthreadrt zero-goroutine tests pin that), only a reference Program
// walks the tree — with the same output and makespan.
func TestCoroutineModeEngaged(t *testing.T) {
	pr, refPr := compileBoth(t, "c.c", coroProgram)
	if !pr.FullyCompiled() {
		t.Fatal("a compiled Program must be fully lowered")
	}
	if refPr.FullyCompiled() {
		t.Fatal("a reference Program must not report itself compiled")
	}
	run := func(pr *interp.Program) *interp.Sim {
		sim := interp.NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
		if _, err := sim.Spawn(0, pr.Funcs["main"], nil, 0); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	sim, ref := run(pr), run(refPr)
	if sim.Output() != ref.Output() {
		t.Errorf("outputs differ: %q vs %q", sim.Output(), ref.Output())
	}
	if sim.Makespan() != ref.Makespan() {
		t.Errorf("makespans differ: %d vs %d", sim.Makespan(), ref.Makespan())
	}
}

// TestCoroutineFallOffEndReturn pins the return-cell arena against the
// resume-depth bug: a function that suspends inside a nested call and
// then completes WITHOUT a value-returning return statement must yield
// the zero Value, exactly like the tree-walk reference — not whatever
// the nested call left in the arena. Needs two contexts so the yields
// actually suspend.
func TestCoroutineFallOffEndReturn(t *testing.T) {
	pr, refPr := compileBoth(t, "f.c", `
int a[64];
int helper(int n) {
  int i; int s;
  s = 0;
  for (i = 0; i < n; i++) { a[i % 64] = a[i % 64] + i; s = s + a[i % 64]; }
  return s;
}
int noret(int n) { helper(n); }
int worker(int me) {
  printf("v%d %d\n", me, noret(20000));
  return 0;
}`)
	run := func(pr *interp.Program) *interp.Sim {
		sim := interp.NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
		for core := 0; core < 2; core++ {
			if _, err := sim.Spawn(core, pr.Funcs["worker"], []interp.Value{interp.IntValue(nil, int64(core))}, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim
	}
	coro, ref := run(pr), run(refPr)
	if coro.Output() != ref.Output() {
		t.Errorf("fall-off-the-end return diverged:\ncoroutine:\n%s\ntree-walk:\n%s", coro.Output(), ref.Output())
	}
}
