package interp_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	goast "go/ast"

	"hsmcc/internal/bench"
	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/sccsim"
)

// fuzzDecisions bounds one fuzz run: the session's Cancel hook trips
// after this many scheduling decisions, so a program that never ends —
// in simulated time or on the host — still does.
const fuzzDecisions = 3000

// sourceOutcome compiles src with compile and runs main as one context
// of scc48 — under the Pthread runtime when the text mentions it, bare
// otherwise, where the final clock and counters are comparable after a
// failure too. Everything the two Programs must agree on is in the
// string; a front-end or Load rejection is "reject".
func sourceOutcome(compile func(name, src string) (*interp.Program, error), src string) string {
	pr, err := compile("fuzz.c", src)
	if err != nil {
		return "reject"
	}
	main := pr.Funcs["main"]
	if main == nil || main.Body == nil {
		return "no main"
	}
	decisions := 0
	obs := interp.Observers{Cancel: func() error {
		if decisions++; decisions > fuzzDecisions {
			return fmt.Errorf("out of %d scheduling decisions", fuzzDecisions)
		}
		return nil
	}}
	m := sccsim.MustNew(sccsim.DefaultConfig())
	if strings.Contains(src, "pthread_") {
		opts := pthreadrt.DefaultOptions()
		opts.Observers = obs
		res, err := pthreadrt.Run(pr, m, opts)
		if err != nil {
			return fmt.Sprintf("error %v stats %+v", err, m.TotalStats())
		}
		return fmt.Sprintf("out %q makespan %d stats %+v", res.Output, res.Makespan, res.Stats)
	}
	sim := interp.NewSim(m, pr)
	sim.Observe(obs)
	p, err := sim.Spawn(0, main, nil, 0)
	if err != nil {
		return fmt.Sprintf("spawn %v", err)
	}
	err = sim.Run()
	return fmt.Sprintf("out %q error %v ret %d %v clock %d ops %d stats %+v",
		sim.Output(), err, p.Ret.I, p.Ret.F, p.Clock, p.Ops, m.StatsOf(0))
}

// FuzzSourceDiff is the raw-bytes target: any text goes through lexer,
// parser, sema and both loaders, and what survives runs bounded on both
// the lowered Program and the tree-walk reference. Contract: both
// reject, or both produce the same output, error text, final clock and
// CoreStats; never a panic, never an unbounded run. It checks every
// fused shape of fuse.go against the tree-walk on inputs no generator
// writes. Seeds: testdata/, the C sources of examples/, the corpus, the
// hostile programs that used to panic, exhaust or hang the host, and the
// wild addresses of wildPrograms.
//
// Soak with: go test ./internal/interp -fuzz FuzzSourceDiff
func FuzzSourceDiff(f *testing.F) {
	for _, pat := range []string{"../../testdata/*.c", "../../testdata/conformance/*.c"} {
		files, _ := filepath.Glob(pat)
		for _, name := range files {
			if b, err := os.ReadFile(name); err == nil {
				f.Add(b)
			}
		}
	}
	// The examples keep their C in Go string literals.
	goFiles, _ := filepath.Glob("../../examples/*/main.go")
	for _, name := range goFiles {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			continue
		}
		goast.Inspect(file, func(n goast.Node) bool {
			if lit, ok := n.(*goast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "main") && strings.Contains(s, "{") {
					f.Add([]byte(s))
				}
			}
			return true
		})
	}
	for _, w := range bench.All() {
		f.Add([]byte(w.Source(2, 0.01)))
	}
	for _, s := range []string{
		`int a[4]; int main() { memset(a, 0, -5); return 0; }`,
		`int a[4]; int b[4]; int main() { memcpy(a, b, -1); return 0; }`,
		`int a[4]; int main() { memset(a, 0, 2000000000); return 0; }`,
		`int main() { char *p = malloc(-1); char *q = malloc(8); q[0] = 1; return p == q; }`,
		`int main() { int *p = calloc(65536, 65536); return p[1]; }`,
		`int main() { for (;;); return 0; }`,
		`int main() { int i = 2147483647; int j = ++i; double d = (double)i / 0.0; return j % (i - i); }`,
	} {
		f.Add([]byte(s))
	}
	for _, w := range wildPrograms {
		f.Add([]byte(wildSource(w.decls, w.body)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		got, want := sourceOutcome(interp.Compile, src), sourceOutcome(interpref.Compile, src)
		if got != want {
			t.Fatalf("compiled and reference Programs diverge\ncompiled:  %s\nreference: %s\n--- source\n%s", got, want, src)
		}
	})
}
