package interp

import (
	"fmt"
	"strings"
	"testing"

	"hsmcc/internal/sccsim"
)

// runMain compiles src, spawns main on core 0 and runs to completion,
// returning the session for inspection.
func runMain(t *testing.T, src string) *Sim {
	t.Helper()
	s, err := tryRunMain(src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return s
}

// tryRunMain compiles src and runs its main on core 0.
func tryRunMain(src string) (*Sim, error) {
	pr, err := Compile("test.c", src)
	if err != nil {
		return nil, err
	}
	sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	main := pr.Funcs["main"]
	if _, err := sim.Spawn(0, main, nil, 0); err != nil {
		return nil, err
	}
	if err := sim.Run(); err != nil {
		return sim, err
	}
	return sim, nil
}

func TestArithmetic(t *testing.T) {
	s := runMain(t, `
int main() {
    int a = 7;
    int b = 3;
    printf("%d %d %d %d %d\n", a+b, a-b, a*b, a/b, a%b);
    printf("%d %d %d\n", a<<1, a>>1, a^b);
    return 0;
}`)
	want := "10 4 21 2 1\n14 3 4\n"
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
}

func TestFloatArithmetic(t *testing.T) {
	s := runMain(t, `
int main() {
    double x = 1.5;
    double y = 0.25;
    printf("%.3f %.3f %.3f %.3f\n", x+y, x-y, x*y, x/y);
    printf("%d %d\n", x > y, x < y);
    return 0;
}`)
	want := "1.750 1.250 0.375 6.000\n1 0\n"
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
}

func TestControlFlow(t *testing.T) {
	s := runMain(t, `
int main() {
    int sum = 0;
    int i;
    for (i = 0; i < 10; i++) {
        if (i % 2 == 0) continue;
        if (i == 9) break;
        sum += i;
    }
    int j = 0;
    while (j < 3) { sum += 100; j++; }
    do { sum += 1000; } while (0);
    printf("%d\n", sum);
    return 0;
}`)
	// odd i in [1,7]: 1+3+5+7 = 16; + 300 + 1000
	if s.Output() != "1316\n" {
		t.Errorf("output = %q, want 1316", s.Output())
	}
}

func TestSwitch(t *testing.T) {
	s := runMain(t, `
int classify(int v) {
    switch (v) {
    case 0: return 100;
    case 1:
    case 2: return 200;
    default: return 300;
    }
}
int main() {
    printf("%d %d %d %d\n", classify(0), classify(1), classify(2), classify(9));
    return 0;
}`)
	if s.Output() != "100 200 200 300\n" {
		t.Errorf("output = %q", s.Output())
	}
}

func TestPointersAndArrays(t *testing.T) {
	s := runMain(t, `
int arr[5];
int main() {
    int i;
    for (i = 0; i < 5; i++) arr[i] = i * i;
    int *p = arr;
    p = p + 2;
    printf("%d %d\n", *p, p[1]);
    *p = 99;
    printf("%d\n", arr[2]);
    int x = 42;
    int *q = &x;
    *q = *q + 1;
    printf("%d\n", x);
    printf("%d\n", (int)(p - arr));
    return 0;
}`)
	want := "4 9\n99\n43\n2\n"
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
}

func TestGlobalInitializers(t *testing.T) {
	s := runMain(t, `
int g = 5;
double d = 2.5;
int table[4] = {1, 2, 3, 4};
char msg[6];
int main() {
    printf("%d %.1f %d %d\n", g, d, table[0], table[3]);
    return 0;
}`)
	if s.Output() != "5 2.5 1 4\n" {
		t.Errorf("output = %q", s.Output())
	}
	// The image is the initialised runs, folded once at Load: a megabyte
	// of zero globals between them costs a Spawn nothing.
	s = runMain(t, `
short h = -2;
double big[131072];
int tail[3] = {7, 8};
int main() { printf("%d %d %d %d %s\n", h, tail[1], tail[2], (int)big[131071], "str"); return 0; }`)
	if s.Output() != "-2 8 0 0 str\n" {
		t.Errorf("output = %q", s.Output())
	}
	bytes := 0
	for _, r := range s.Program.image {
		bytes += len(r.data)
	}
	if n := len(s.Program.image); n != 3 || bytes > 64 {
		t.Errorf("image = %d runs of %d bytes, want the 2 initialised globals and the strings in under 64 bytes", n, bytes)
	}
	// A fold error is a Load error, not a failure at the first Spawn.
	for _, src := range []string{`int g; int x = g; int main() { return 0; }`, `int s = {1, 2}; int main() { return 0; }`} {
		if _, err := Compile("bad.c", src); err == nil || !strings.Contains(err.Error(), "initialiser") {
			t.Errorf("Compile(%q) error = %v, want an initialiser error", src, err)
		}
	}
}

func TestRecursion(t *testing.T) {
	s := runMain(t, `
int fact(int n) {
    if (n <= 1) return 1;
    return n * fact(n - 1);
}
int fib(int n) {
    if (n < 2) return n;
    return fib(n-1) + fib(n-2);
}
int main() {
    printf("%d %d\n", fact(10), fib(15));
    return 0;
}`)
	if s.Output() != "3628800 610\n" {
		t.Errorf("output = %q", s.Output())
	}
}

func TestFunctionPointerCall(t *testing.T) {
	s := runMain(t, `
int twice(int v) { return 2 * v; }
int main() {
    int r = twice(21);
    printf("%d\n", r);
    return 0;
}`)
	if s.Output() != "42\n" {
		t.Errorf("output = %q", s.Output())
	}
}

func TestStrings(t *testing.T) {
	s := runMain(t, `
int main() {
    char *msg = "hello";
    printf("%s world %c%c\n", msg, msg[0], 'x');
    printf("%5d|%-5d|%05d\n", 42, 42, 42);
    return 0;
}`)
	want := "hello world hx\n   42|42   |00042\n"
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
}

// TestPrintfVerbs: the verbs printf appends itself and those it hands
// to fmt print as fmt prints them, and a bad format fails naming it.
func TestPrintfVerbs(t *testing.T) {
	s := runMain(t, `
int main() {
    printf("%d|%i|%ld|%u|%x|%X|%o|%p|%c|%s|%-6s|%hd\n", -7, 8, -9, -1, 255, 255, 8, 4096, 'z', "ab", "ab", 5);
    printf("%f|%.2f|%.f|%8.3f|%e|%g|%%|%.10f\n", 1.5, 2.345, 2.5, -3.14159, 12345.678, 0.0001, 1.0 / 3.0);
    return 0;
}`)
	want := fmt.Sprintf("%d|%d|%d|%d|%x|%X|%o|0x%x|%c|%s|%-6s|%d\n", -7, 8, -9, uint32(1<<32-1), 255, 255, 8, 4096, 'z', "ab", "ab", 5) +
		fmt.Sprintf("%f|%.2f|%.f|%8.3f|%e|%g|%%|%.10f\n", 1.5, 2.345, 2.5, -3.14159, 12345.678, 0.0001, 1.0/3.0)
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
	for _, c := range []struct{ call, err string }{
		{`printf("%d %d\n", 1)`, `printf: missing argument 1 for "%d %d\n"`},
		{`printf("%y %d\n")`, `printf: unsupported verb %y`},
	} {
		_, err := tryRunMain("int main() { " + c.call + "; return 0; }")
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want %q", c.call, err, c.err)
		}
	}
}

// TestScalarKindsLoadAndStore: a value of each scalar kind stored and
// loaded again as a local, as a global and through a pointer keeps its
// width, its signedness and its representation.
func TestScalarKindsLoadAndStore(t *testing.T) {
	s := runMain(t, `
unsigned gu; float gf; short gs; char gc;
int main() {
    unsigned lu = 4000000000; float lf = 1.25; short ls = -300; char lc = -5;
    unsigned *pu = &gu; float *pf = &gf; short *ps = &gs; char *pc = &gc;
    *pu = lu + 300000000;
    *pf = lf * 3.0;
    *ps = ls * 200;
    *pc = lc * 30;
    gu++; gf++; gs--; gc--;
    printf("%u %u %.2f %.2f %d %d %d %d\n", lu, gu, lf, gf, ls, gs, lc, gc);
    printf("%.1f %.1f %.2f %d %d\n", (double)lu, (double)*pu, *pf, *ps, *pc);
    return 0;
}`)
	want := "4000000000 5032705 1.25 4.75 -300 5535 -5 105\n4000000000.0 5032705.0 4.75 5535 105\n"
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
}

func TestCastsAndSizeof(t *testing.T) {
	s := runMain(t, `
int main() {
    double d = 3.9;
    int i = (int)d;
    double back = (double)i;
    printf("%d %.1f\n", i, back);
    printf("%u %u %u %u\n", sizeof(char), sizeof(int), sizeof(double), sizeof(int*));
    char c = (char)300;
    printf("%d\n", c);
    return 0;
}`)
	want := "3 3.0\n1 4 8 4\n44\n"
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
}

func TestTernaryCommaLogical(t *testing.T) {
	s := runMain(t, `
int side;
int touch(int v) { side = side + 1; return v; }
int main() {
    int a = 1 ? 10 : 20;
    int b = 0 ? 10 : 20;
    int c = (touch(1), touch(2));
    printf("%d %d %d %d\n", a, b, c, side);
    // Short-circuit: touch must not run.
    side = 0;
    int d = 0 && touch(1);
    int e = 1 || touch(1);
    printf("%d %d %d\n", d, e, side);
    return 0;
}`)
	want := "10 20 2 2\n0 1 0\n"
	if s.Output() != want {
		t.Errorf("output = %q, want %q", s.Output(), want)
	}
}

func TestStructMembers(t *testing.T) {
	s := runMain(t, `
struct point { int x; int y; double w; };
struct point g;
int main() {
    g.x = 3;
    g.y = 4;
    g.w = 1.5;
    struct point *p = &g;
    p->x = p->x + p->y;
    printf("%d %d %.1f\n", g.x, g.y, p->w);
    return 0;
}`)
	if s.Output() != "7 4 1.5\n" {
		t.Errorf("output = %q", s.Output())
	}
}

func TestMallocMemset(t *testing.T) {
	s := runMain(t, `
int main() {
    int *buf = (int*)malloc(sizeof(int) * 8);
    memset(buf, 0, sizeof(int) * 8);
    int i;
    for (i = 0; i < 8; i++) buf[i] = i;
    int *copy = (int*)malloc(sizeof(int) * 8);
    memcpy(copy, buf, sizeof(int) * 8);
    printf("%d %d\n", copy[3], copy[7]);
    free(buf);
    return 0;
}`)
	if s.Output() != "3 7\n" {
		t.Errorf("output = %q", s.Output())
	}
}

func TestMathBuiltins(t *testing.T) {
	s := runMain(t, `
int main() {
    printf("%.1f %.1f\n", sqrt(16.0), fabs(0.0 - 2.5));
    return 0;
}`)
	if s.Output() != "4.0 2.5\n" {
		t.Errorf("output = %q", s.Output())
	}
}

func TestWallclockAdvances(t *testing.T) {
	s := runMain(t, `
int main() {
    double t0 = wallclock();
    int i;
    int x = 0;
    for (i = 0; i < 1000; i++) x += i;
    double t1 = wallclock();
    printf("%d %d\n", x, t1 > t0);
    return 0;
}`)
	if s.Output() != "499500 1\n" {
		t.Errorf("output = %q", s.Output())
	}
	if s.Makespan() == 0 {
		t.Error("makespan should be nonzero")
	}
}

func TestClockScalesWithWork(t *testing.T) {
	small := runMain(t, `int main(){ int i; int x=0; for(i=0;i<100;i++) x+=i; return 0; }`)
	big := runMain(t, `int main(){ int i; int x=0; for(i=0;i<10000;i++) x+=i; return 0; }`)
	if big.Makespan() < 50*small.Makespan() {
		t.Errorf("100x work should be ~100x time: small=%d big=%d", small.Makespan(), big.Makespan())
	}
}

func TestDivideByZeroError(t *testing.T) {
	_, err := tryRunMain(`int main() { int z = 0; return 1 / z; }`)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v, want division by zero", err)
	}
}

func TestNullDerefError(t *testing.T) {
	_, err := tryRunMain(`int main() { int *p = NULL; return *p; }`)
	if want := "core 0: load of 4 bytes at 0x0: unmapped"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want %q", err, want)
	}
}

func TestUnknownFunctionError(t *testing.T) {
	_, err := tryRunMain(`int main() { pthread_self(); return 0; }`)
	if err == nil {
		t.Error("expected error for runtime-less pthread call")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("x.c", "int main( {"); err == nil {
		t.Error("parse error not reported")
	}
	if _, err := Compile("x.c", "int main() { return undeclared; }"); err == nil {
		t.Error("sema error not reported")
	}
}

func TestValueConvertRoundTrip(t *testing.T) {
	v := Convert(FloatValue(nil, 3.75), nil)
	if v.T.Kind != 0 { // void
		t.Skip("nil type converts to void")
	}
}

func TestCharAndShortTruncation(t *testing.T) {
	s := runMain(t, `
int main() {
    char c = 200;
    short h = 70000;
    unsigned int u = 0 - 1;
    printf("%d %d %u\n", c, h, u);
    return 0;
}`)
	if s.Output() != "-56 4464 4294967295\n" {
		t.Errorf("output = %q", s.Output())
	}
}

// TestDeterminism: two identical runs give identical makespans and output.
func TestDeterminism(t *testing.T) {
	src := `
int data[64];
int main() {
    int i;
    for (i = 0; i < 64; i++) data[i] = i * 3;
    int sum = 0;
    for (i = 0; i < 64; i++) sum += data[i];
    printf("%d\n", sum);
    return 0;
}`
	a := runMain(t, src)
	b := runMain(t, src)
	if a.Makespan() != b.Makespan() || a.Output() != b.Output() {
		t.Errorf("nondeterministic: %d/%q vs %d/%q", a.Makespan(), a.Output(), b.Makespan(), b.Output())
	}
}

// TestMemoryTimingVisible: touching uncached shared memory in a loop is
// slower than the same loop over cached private memory.
func TestMemoryTimingVisible(t *testing.T) {
	priv := runMain(t, `
int arr[256];
int main() { int i; int s=0; for (i=0;i<256;i++) s += arr[i&255]; return s; }`)

	pr, err := Compile("shared.c", `
int main() { int i; int s=0; int *arr = (int*)0x80000000; for (i=0;i<256;i++) s += arr[i&255]; return s; }`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	if _, err := sim.Spawn(0, pr.Funcs["main"], nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if sim.Makespan() < 2*priv.Makespan() {
		t.Errorf("shared loop %d ps should be >2x private loop %d ps", sim.Makespan(), priv.Makespan())
	}
}
