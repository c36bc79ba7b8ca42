package interp_test

import (
	"fmt"
	"strings"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/sccsim"
)

// fusedKernels is one kernel per fused shape and operand type of
// fuse.go, plus the neighbours that must NOT fuse (unsigned, float and
// pointer arithmetic, literal zero divisors, mixed kinds) and must
// still agree. Each is the body of `TYPE k()`; %[1]s is where the
// resume test inserts its prefix, after the declarations have warmed
// the stack lines.
var fusedKernels = []struct{ name, ret, body string }{
	{"int slot∘const", "int", `int x = 7; int s = 0; int i; %[1]s
		for (i = 0; i < 6; i++) { s = s + (x + 3) + (x - 2147483647) + (x * -1) + (x / 3) + (x %% 5) + (x & 6) + (x | 8) + (x ^ 5) + (x << 3) + (x >> 1); x = x + 1; }
		return s;`},
	{"int slot∘const compares", "int", `int x = -3; int s = 0; int i; %[1]s
		for (i = 0; i < 8; i++) { s = s * 2 + (x < 0) + (x > -2147483648) + (x <= 1) + (x >= 2) + (x == 3) + (x != -1); x++; }
		return s;`},
	{"const∘slot", "int", `int x = 3; int s = 0; int i; %[1]s
		for (i = 0; i < 6; i++) { s = s + (10 - x) + (100 / x) + (100 %% x) + (2 * x) + (1 << x) + (4 < x) + (4 >= x) + (4 == x); x++; }
		return s;`},
	{"narrow slots", "int", `char c = 120; short h = 32760; long l = 2147483640; int s = 0; int i; %[1]s
		for (i = 0; i < 12; i++) { c++; h += 1; l = l + 1; s += c + h + (l < 0); c = c * 3; h -= 7; }
		return s + c + h;`},
	{"int slot∘slot", "int", `int a = 91; int b = 7; int s = 0; int i; %[1]s
		for (i = 0; i < 6; i++) { s += (a + b) + (a - b) + (a * b) + (a / b) + (a %% b) + (a < b) + (a == b) + (a >> b) + (a ^ b); b = b + 1; }
		return s;`},
	{"int slot∘raw raw∘const raw∘raw", "int", `int a = 5; int b = 3; int s = 0; int i; %[1]s
		for (i = 0; i < 6; i++) { s = s + a * (b + i) + (a + b) %% 7 + (a * b) / (i + 1) + ((a - i) < (b + i)); }
		return s;`},
	{"double slot∘const slot∘slot", "double", `double x = 1.5; double y = 0.25; double s = 0.0; int i; %[1]s
		for (i = 0; i < 6; i++) { s = s + (x + 0.5) + (x - y) + (x * y) + (x / y) + (4.0 / x) + (1.0 - x) + 3.0 * y; x = x + 0.125; }
		return s;`},
	{"double compares", "int", `double x = -1.0; double y = 0.5; int s = 0; int i; %[1]s
		for (i = 0; i < 6; i++) { s = s * 2 + (x < y) + (x > 0.0) + (x <= y) + (x >= 0.25) + (x == y) + (x != y) + (0.75 < x); x = x + 0.5; }
		return s;`},
	{"pi inner loop", "double", `int lo = 3; int i; double x; double step = 0.01; double s = 0.0; %[1]s
		for (i = lo; i < lo + 9; i++) { x = ((double)i + 0.5) * step; s += 4.0 / (1.0 + x * x); }
		return s;`},
	{"casts", "double", `int i = -7; double d = 2.75; double s = 0.0; int n = 0; int q; %[1]s
		for (q = 0; q < 5; q++) { s += (double)i + (double)(i %% 3); n += (int)d + (int)(d * 2.0); i++; d = d - 1.0; }
		return s + (double)n;`},
	{"sum35 logic", "int", `int i; int s = 0; %[1]s
		for (i = 0; i < 20; i++) { if (i %% 3 == 0 || i %% 5 == 0) { s += i; } if (i > 3 && i < 9 && s) { s++; } s += (i && s) + (i || s); }
		return s;`},
	{"truths", "int", `int n = 3; double d = 1.0; int *p = NULL; int s = 0; %[1]s
		while (n) { n--; s += 1; }
		while (d) { d = d - 0.5; s += 10; }
		if (p) { s += 100; }
		do { s += 1000; n++; } while (n < 3);
		return s;`},
	{"while and do … while control", "int", `int n = 0; int s = 0; %[1]s
		while (n < 12) { n++; if (n %% 3 == 0) continue; if (n > 9) break; s += n; }
		do { n--; if (n %% 4 == 0) continue; if (n < 2) break; s += n * 2; } while (n > 0);
		do { s += 1000; } while (n > 100);
		return s + n;`},
	{"incdec", "int", `int i = 2147483646; int j = -2147483647; double d = 0.5; int s = 0; int q; %[1]s
		for (q = 0; q < 3; q++) { i++; ++i; j--; --j; d++; --d; s += (i < 0) + (j > 0); }
		s = s + q++ + ++q + q-- + --q;
		return s + (int)d;`},
	{"prefix ++ at INT_MAX", "int", `int i = 2147483647; int j; %[1]s
		j = ++i;
		return (j < 0) + 2 * (i < 0);`},
	{"slot op= expr", "int", `int x = 1000; int y = 3; int i; %[1]s
		for (i = 1; i < 6; i++) { x += y; x -= i; x *= 3; x /= i; x %%= 9973; x &= 8191; x |= 64; x ^= y; x <<= 1; x >>= 1; y += i * 2; }
		return x + y;`},
	{"double slot op= expr", "double", `double x = 8.0; double y = 0.5; int i; %[1]s
		for (i = 0; i < 5; i++) { x += y; x -= 0.25; x *= y + 1.0; x /= 2.0; y += (double)i; }
		return x + y;`},
	{"global arrays and scalars", "int", `int i; int s = 0; %[1]s
		for (i = 0; i < 8; i++) { ga[i] = i * 3; gd[i] = (double)i * 0.5; }
		for (i = 1; i < 7; i++) { ga[i] += ga[i - 1]; ga[i + 1] -= 2; gd[i] *= gd[i - 1] + 1.0; gs = gs + ga[i]; gds += gd[i]; s += ga[i %% 3] + ga[2]; }
		return s + gs + (int)gds;`},
	{"local arrays", "int", `int la[8]; double ld[4]; int i; int best = 1; int s = 0; %[1]s
		for (i = 0; i < 8; i++) { la[i] = i; }
		for (i = 0; i < 4; i++) { ld[i] = 0.5; }
		for (i = 0; i < 6; i++) { la[best] += 2; ld[best] += (double)la[i]; la[i + 1] = la[i] * 2; s += la[i] + la[best]; best = i %% 4; }
		return s + (int)ld[1];`},
	{"pointer bases", "int", `int la[8]; int *lp = la; int i; int s = 0; %[1]s
		gp = ga; gdp = gd;
		for (i = 0; i < 8; i++) { lp[i] = i; gp[i] = i * 2; gdp[i] = 1.5; }
		for (i = 0; i < 7; i++) { lp[i] += gp[i + 1]; gp[i] = lp[i] - 1; gdp[i] += (double)lp[i]; s += lp[i] + gp[i %% 5]; }
		return s + (int)gdp[3];`},
	{"deref and members", "int", `int x = 4; int *p = &x; int i; %[1]s
		pt.a = 3; pt.w = 0.5;
		for (i = 0; i < 5; i++) { *p = *p + i; *p += 2; pt.a += *p; pt.w *= 2.0; pp = &pt; pp->a -= 1; pp->w += (double)pp->a; }
		return x + pt.a + (int)pt.w;`},
	{"unsigned float pointer stay generic", "int", `unsigned u = 4000000000; float f = 1.5; int la[4]; int *p = la; int i; int s = 0; %[1]s
		for (i = 0; i < 4; i++) { u += 100000000; u = u / 3; f = f * 1.5; f += 1; la[i] = i; p = p + 1; p--; p++; s += (u > 5) + (int)f + (p != la); }
		return s + (int)(p - la);`},
	{"mixed kinds stay generic", "double", `int i = 3; double d = 1.5; double s = 0; char c = 'a'; %[1]s
		s = i; s += i; d = d * 2; i = d; i += d; s += d + i + c + 'b'; c += 'c';
		return s + c;`},
	{"value contexts", "int", `int x = 3; int y; int s = 0; %[1]s
		y = (x += 2) + (x = x * 2) + x++; s = fabs((double)(x - 40)) + (y > 3 ? x + 1 : y - 1);
		return s + y;`},
	{"divide by slot zero", "int", `int x = 5; int z = 3; int s = 0; %[1]s
		while (z >= 0) { s += x %% z; z--; }
		return s;`},
	{"divide by raw zero", "int", `int x = 5; int z = 2; int s = 0; %[1]s
		while (z >= 0) { s += x / (z * 2); z--; }
		return s;`},
	{"update by zero", "int", `int z = 1; %[1]s
		ga[1] = 7; while (z >= 0) { ga[1] /= z; z--; }
		return ga[1];`},
	{"literal zero divisors stay generic", "int", `int x = 5; %[1]s
		x = x + 1; return x %% 0;`},
	{"literal zero update", "int", `int x = 5; %[1]s
		x += 1; x /= 0; return x;`},
	{"null pointer index", "int", `int i = 1; %[1]s
		gp = NULL; gp[i] = 3; return 1;`},
	{"index shapes", "int", `int l2[3][4]; unsigned u = 0; char ch = 1; int i; int j; int s = 0; %[1]s
		for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { g2[i][j] = i * 4 + j; } for (j = 0; j < 3; j++) { l2[j][i] = g2[i][j] + 1; } }
		bp = &bx; gp = ga;
		for (i = 0; i < 4; i++) { bx.v[i] = i * 5; bp->v[3 - i] += i; ga[i] = i + 7; gd[i] = 0.5; }
		for (i = 0; i < 3; i++) { (ga + 1)[i] += g2[i][u]; gbase()[ch] -= 1; (gp + 2)[u] = l2[u][ch] * 2; bp->v[ch] *= 2; gd[ch] += 1.0;
			s += g2[i + 1][i] + l2[i][u] + bx.v[i] + bp->v[i + 1] + ga[u] + ga[ch] + (int)gd[u] + (ga + 1)[i] + (gp + 2)[ch] + gbase()[i] + gbase()[u] + ga[u + 1] + ga[sq(i)] + l2[sq(1)][u + 1]; u++; ch++; }
		return s + g2[3][ch] + l2[2][u];`},
	{"scalar kinds local global pointer", "int", `unsigned lu = 3000000000; float lf = 0.1; int *lq = ga; unsigned *pu = &gu; float *pf = &gf; int **pq = &gq; short sh = -5; short *ps = &sh; char c = 'x'; char *pc = &c; float fz = -0.0; int i; int s = 0; %[1]s
		gu = 4000000000; gf = 2.5; gq = ga + 2;
		for (i = 0; i < 4; i++) {
			lu = lu + gu; gu = lu * 3; *pu = *pu + lu; *pu += 7; lu++; gu--;
			lf = lf * 1.5; gf = gf + lf; *pf = *pf * 0.5; *pf += lf; gf++;
			lq = lq + 1; gq = lq; *pq = *pq + 1; lq[0] = i; (*pq)[1] = i * 2;
			*ps = *ps * 3; sh = sh + *ps; *pc = *pc + 1; if (fz) s += 1000; if (lf) s += 1; if (gu && lu) s += 2;
			s += (lu > 5) + (gu > lu) + (int)lf + (int)gf + (int)*pf + *lq + (*pq)[0] + (lq < gq) + sh + *ps + c + *pc + (*pu %% 7) + (gu %% 5);
		}
		return s + (int)(gq - ga) + (int)(lq - ga);`},
	{"struct loaded whole", "int", `struct pair q; %[1]s
		pt.a = 1; q = pt; return q.a;`},
	{"word-size struct loaded whole", "int", `%[1]s
		o1.a = 1; o2 = o1; return o2.a;`},
	{"indirect calls", "int", `void *lfn = sq; int s = 0; int i; %[1]s
		gfn = &tw;
		for (i = 0; i < 4; i++) { s += lfn(i) + gfn(i + 1); s = s + lfn(gfn(i)); }
		return s;`},
}

// fusedKernelSource wraps a kernel body with the globals the kernels
// share.
func fusedKernelSource(ret, body, prefix string) string {
	return fmt.Sprintf(`
struct pair { int a; double w; };
struct box { int n; int v[4]; };
struct one { int a; };
int ga[16]; double gd[16]; int gs; double gds; int *gp; double *gdp;
struct pair pt; struct pair *pp;
int g2[4][4]; struct box bx; struct box *bp; struct one o1; struct one o2;
unsigned gu; float gf; int *gq; void *gfn;
int *gbase() { return ga; }
int sq(int x) { return x * x; }
int tw(int x) { return x + x; }
%s k() { %s }
`, ret, fmt.Sprintf(body, prefix))
}

// kernelOutcome is everything the two Programs must agree on.
type kernelOutcome struct {
	out, err string
	rets     []interp.Value
	clocks   []sccsim.Time
	ops      []uint64
	stats    sccsim.CoreStats
}

func (o kernelOutcome) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "out %q err %q stats %+v", o.out, o.err, o.stats)
	for i, v := range o.rets {
		tag := "<nil>"
		if v.T != nil {
			tag = v.T.String()
		}
		fmt.Fprintf(&sb, " [ctx %d: ret %s %d %v clock %d ops %d]", i, tag, v.I, v.F, o.clocks[i], o.ops[i])
	}
	return sb.String()
}

// runKernel runs k on `contexts` contexts of core 0 of a fresh scc48.
func runKernel(t *testing.T, pr *interp.Program, contexts int) kernelOutcome {
	t.Helper()
	sim := interp.NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
	for i := 0; i < contexts; i++ {
		if _, err := sim.Spawn(0, pr.Funcs["k"], nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	o := kernelOutcome{err: errText(sim.Run()), out: sim.Output(), stats: sim.Machine.StatsOf(0)}
	for _, p := range sim.Procs() {
		o.rets = append(o.rets, p.Ret)
		o.clocks = append(o.clocks, p.Clock)
		o.ops = append(o.ops, p.Ops)
	}
	return o
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkKernel requires the compiled Program and the reference to agree
// on a kernel run.
func checkKernel(t *testing.T, name, src string, contexts int) {
	t.Helper()
	pr, ref := compileBoth(t, name, src)
	got, want := runKernel(t, pr, contexts).String(), runKernel(t, ref, contexts).String()
	if got != want {
		t.Errorf("%s:\ncompiled  %s\nreference %s\n%s", name, got, want, src)
	}
}

// TestFusedShapesMatchReference: output, return value and tag, clock,
// statement count, CoreStats and error text of every kernel equal the
// tree-walk's.
func TestFusedShapesMatchReference(t *testing.T) {
	for _, k := range fusedKernels {
		checkKernel(t, k.name, fusedKernelSource(k.ret, k.body, ""), 1)
	}
}

// TestFusedShapesResumeAtEverySite runs every kernel on two contexts of
// one core so that a yield is a real switch, and slides the two yield
// causes over it: k dummy private accesses for k = 0…YieldEvery-1 move
// the memory-op cadence onto every access in turn, and a compute prefix
// that stops j cycles short of the clock-skew horizon, in one-cycle
// steps, moves the horizon yield onto every chargeCycles (and access)
// of the first iterations. Statements of constants charge without
// touching memory: `7 / 3;` is 41 cycles, `1 + 1;` one.
func TestFusedShapesResumeAtEverySite(t *testing.T) {
	period := sccsim.MustNew(sccsim.DefaultConfig()).CorePeriodOf(0)
	horizon := int(interp.YieldHorizonPs / period)
	sweep := 160
	if testing.Short() {
		sweep = 40
	}
	for _, k := range fusedKernels {
		for n := 0; n < interp.YieldEvery; n++ {
			prefix := "int dummy;" + strings.Repeat(" dummy = 0;", n)
			checkKernel(t, fmt.Sprintf("%s/cadence %d", k.name, n), fusedKernelSource(k.ret, k.body, prefix), 2)
		}
		for j := 0; j < sweep; j++ {
			cycles := horizon - j
			prefix := strings.Repeat(" 7 / 3;", cycles/interp.CostIDiv) + strings.Repeat(" 1 + 1;", cycles%interp.CostIDiv)
			checkKernel(t, fmt.Sprintf("%s/horizon -%d", k.name, j), fusedKernelSource(k.ret, k.body, prefix), 2)
		}
		if t.Failed() {
			return
		}
	}
}
