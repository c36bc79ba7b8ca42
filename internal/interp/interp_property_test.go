package interp

import (
	"fmt"
	"testing"
	"testing/quick"

	"hsmcc/internal/sccsim"
)

// runExpr evaluates a C expression over two int parameters by generating
// and executing a tiny program.
func runExpr(t *testing.T, expr string, a, b int32) (int32, error) {
	t.Helper()
	src := fmt.Sprintf(`
int compute(int a, int b) { return %s; }
int main() { printf("%%d", compute(%d, %d)); return 0; }`, expr, a, b)
	sim, err := tryRunMain(src)
	if err != nil {
		return 0, err
	}
	var v int32
	if _, err := fmt.Sscanf(sim.Output(), "%d", &v); err != nil {
		return 0, fmt.Errorf("bad output %q: %v", sim.Output(), err)
	}
	return v, nil
}

// TestIntArithmeticMatchesGo: property test — the interpreter's 32-bit
// integer semantics agree with Go's int32 arithmetic for every operator.
func TestIntArithmeticMatchesGo(t *testing.T) {
	type opCase struct {
		expr string
		eval func(a, b int32) (int32, bool) // ok=false -> skip (UB)
	}
	ops := []opCase{
		{"a + b", func(a, b int32) (int32, bool) { return a + b, true }},
		{"a - b", func(a, b int32) (int32, bool) { return a - b, true }},
		{"a * b", func(a, b int32) (int32, bool) { return a * b, true }},
		{"a / b", func(a, b int32) (int32, bool) {
			if b == 0 || (a == -1<<31 && b == -1) {
				return 0, false
			}
			return a / b, true
		}},
		{"a % b", func(a, b int32) (int32, bool) {
			if b == 0 || (a == -1<<31 && b == -1) {
				return 0, false
			}
			return a % b, true
		}},
		{"a & b", func(a, b int32) (int32, bool) { return a & b, true }},
		{"a | b", func(a, b int32) (int32, bool) { return a | b, true }},
		{"a ^ b", func(a, b int32) (int32, bool) { return a ^ b, true }},
		{"a < b", func(a, b int32) (int32, bool) { return boolToInt(a < b), true }},
		{"a >= b", func(a, b int32) (int32, bool) { return boolToInt(a >= b), true }},
		{"a == b", func(a, b int32) (int32, bool) { return boolToInt(a == b), true }},
	}
	for _, op := range ops {
		op := op
		f := func(a, b int32) bool {
			want, ok := op.eval(a, b)
			if !ok {
				return true
			}
			got, err := runExpr(t, op.expr, a, b)
			if err != nil {
				t.Logf("%s with a=%d b=%d: %v", op.expr, a, b, err)
				return false
			}
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("%s: %v", op.expr, err)
		}
	}
}

// TestShiftSemantics: shifts mask the count like x86 (mod 32).
func TestShiftSemantics(t *testing.T) {
	got, err := runExpr(t, "a << b", 1, 4)
	if err != nil || got != 16 {
		t.Errorf("1<<4 = %d (%v)", got, err)
	}
	got, err = runExpr(t, "a >> b", -8, 1)
	if err != nil || got != -4 {
		t.Errorf("-8>>1 = %d (%v), want arithmetic shift", got, err)
	}
}

// TestMemoryRoundTripValues: property test — storing then loading any
// int32 through simulated memory preserves it, for every integer width's
// in-range values.
func TestMemoryRoundTripValues(t *testing.T) {
	f := func(v int32) bool {
		src := fmt.Sprintf(`
int cell;
int main() { cell = %d; printf("%%d", cell); return 0; }`, v)
		sim, err := tryRunMain(src)
		if err != nil {
			return false
		}
		return sim.Output() == fmt.Sprint(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDoubleRoundTrip: doubles survive memory round trips bit-exactly for
// printable values.
func TestDoubleRoundTrip(t *testing.T) {
	f := func(v float32) bool {
		src := fmt.Sprintf(`
double cell;
int main() { cell = %v; printf("%%g", cell); return 0; }`, float64(v))
		sim, err := tryRunMain(src)
		if err != nil {
			return false
		}
		return sim.Output() == fmt.Sprintf("%g", float64(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func boolToInt(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// TestRecursionDepthLimit: runaway recursion is reported, not a Go crash.
func TestRecursionDepthLimit(t *testing.T) {
	_, err := tryRunMain(`
int down(int n) { return down(n + 1); }
int main() { return down(0); }`)
	if err == nil {
		t.Fatal("infinite recursion not caught")
	}
}

// TestDeadlockDetected: a context blocking forever is a scheduler error,
// not a hang. The block happens through a runtime builtin — the
// supported suspension path.
func TestDeadlockDetected(t *testing.T) {
	pr, err := Compile("d.c", "int park(); int main() { park(); return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	sim.Runtime = blockForever{}
	if _, err := sim.Spawn(0, pr.Funcs["main"], nil, 0); err != nil {
		t.Fatal(err)
	}
	err = sim.Run()
	if err == nil || !contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock report", err)
	}
}

// blockForever parks any context that calls park(), with no one to wake
// it.
type blockForever struct{}

func (blockForever) CallBuiltin(p *Proc, name string, args []Value, step int, _ int64) (Value, bool, error) {
	if name != "park" {
		return Value{}, false, nil
	}
	if step > 0 {
		return Value{}, true, nil
	}
	if err := p.Block(); err != nil {
		p.PushResume(1, 0)
		return Value{}, true, err
	}
	return Value{}, true, nil
}
func (blockForever) OnExit(p *Proc) {}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
