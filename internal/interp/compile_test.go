package interp

import (
	goparser "go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/sccsim"
)

// layoutPrograms are the sources the frame-layout properties quantify
// over: the repo's example program plus shapes chosen to stress the
// allocator (nested scopes, loops declaring locals, recursion, every
// scalar width, arrays, shadowing).
func layoutPrograms(t *testing.T) map[string]*Program {
	t.Helper()
	srcs := map[string]string{
		"scopes.c": `
int g;
int mix(int a, double b) {
    int x = 1;
    for (int i = 0; i < 3; i++) { int y = i; x += y; }
    while (x < 10) { double z = 0.5; x += (int)(z + b); }
    if (x) { char c = 'a'; short s = 2; x += c + s; }
    return x + a;
}
int rec(int n) { int local = n; if (n <= 0) return 0; return local + rec(n - 1); }
int main() { int arr[4] = {1,2,3}; return mix(arr[0], 1.5) + rec(5); }`,
		"shadow.c": `
int v = 7;
int main() {
    int v = 1;
    { int w = v + 1; v = w; }
    return v;
}`,
	}
	if b, err := os.ReadFile("../../testdata/example41.c"); err == nil {
		srcs["example41.c"] = string(b)
	}
	out := make(map[string]*Program)
	for name, src := range srcs {
		pr, err := Compile(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = pr
	}
	return out
}

// TestFrameLayoutOneSlotPerSymbol: for every function of every program,
// each parameter and local symbol gets exactly one slot, and the slot
// list covers exactly those symbols — the property that makes the dense
// slot array a faithful replacement for the per-call frame map.
func TestFrameLayoutOneSlotPerSymbol(t *testing.T) {
	for name, pr := range layoutPrograms(t) {
		for _, cf := range pr.compiledList {
			seen := map[*ast.Symbol]int{}
			for _, sd := range cf.slots {
				if sd.sym == nil {
					t.Fatalf("%s: %s has a slot with no symbol", name, cf.name)
				}
				seen[sd.sym]++
			}
			for sym, n := range seen {
				if n != 1 {
					t.Errorf("%s: %s: symbol %s has %d slots, want 1", name, cf.name, sym.Name, n)
				}
			}
			// The layout covers the parameters and every declaration the
			// reference frame walk would allocate.
			want := map[*ast.Symbol]bool{}
			for _, prm := range cf.decl.Params {
				if prm.Sym != nil {
					want[prm.Sym] = true
				}
			}
			if cf.decl.Body != nil {
				ast.Inspect(cf.decl.Body, func(nd ast.Node) bool {
					if d, ok := nd.(*ast.DeclStmt); ok && d.Decl.Sym != nil {
						want[d.Decl.Sym] = true
					}
					return true
				})
			}
			if len(want) != len(seen) {
				t.Errorf("%s: %s: layout has %d symbols, function declares %d", name, cf.name, len(seen), len(want))
			}
			for sym := range want {
				if seen[sym] != 1 {
					t.Errorf("%s: %s: declared symbol %s missing from layout", name, cf.name, sym.Name)
				}
			}
		}
	}
}

// TestFrameSlotsDoNotOverlap pushes frames (including the same function
// recursively) and checks that no two live slots' [addr, addr+size)
// ranges intersect: recursion reuses the layout without aliasing.
func TestFrameSlotsDoNotOverlap(t *testing.T) {
	for name, pr := range layoutPrograms(t) {
		sim := NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
		p := &Proc{Sim: sim, stackTop: sccsim.PrivateLimit, stackPtr: sccsim.PrivateLimit}
		type rng struct {
			lo, hi uint32
			fn     string
		}
		var live []rng
		push := func(cf *compiledFunc) {
			if err := p.pushCFrame(cf); err != nil {
				t.Fatalf("%s: push %s: %v", name, cf.name, err)
			}
			for i, sd := range cf.slots {
				lo := p.slotAddr(i)
				hi := lo + sd.size
				for _, r := range live {
					if lo < r.hi && r.lo < hi {
						t.Fatalf("%s: %s slot [%#x,%#x) overlaps %s slot [%#x,%#x)",
							name, cf.name, lo, hi, r.fn, r.lo, r.hi)
					}
				}
				live = append(live, rng{lo, hi, cf.name})
			}
		}
		// Push every function once, then the first twice more (recursion).
		for _, cf := range pr.compiledList {
			if cf.decl.Body == nil {
				continue
			}
			push(cf)
		}
		for _, cf := range pr.compiledList {
			if cf.decl.Body == nil {
				continue
			}
			push(cf)
			push(cf)
			break
		}
	}
}

// TestLoadRejectsUnlowerable: a tree the compiler cannot lower — here a
// checked program whose AST is then stripped of a type sema always fills
// in — is a Load error naming the function, never a Program that falls
// back to another way of running.
func TestLoadRejectsUnlowerable(t *testing.T) {
	const src = `
int a[4];
int ok(int n) { return n + 1; }
int broken(int n) { int local = n; double d = (double)local; return a[n] + (int)d; }
int main() { return ok(broken(1)); }`
	breakers := map[string]func(ast.Node) bool{
		"local type": func(n ast.Node) bool {
			d, ok := n.(*ast.DeclStmt)
			if ok && d.Decl.Name == "local" {
				d.Decl.Type = nil
			}
			return ok && d.Decl.Name == "local"
		},
		"cast type": func(n ast.Node) bool {
			c, ok := n.(*ast.CastExpr)
			if ok {
				c.To = nil
			}
			return ok
		},
		"element type": func(n ast.Node) bool {
			x, ok := n.(*ast.IndexExpr)
			if !ok {
				return false
			}
			arr := *x.X.ResultType()
			arr.Elem = nil
			x.X.(*ast.Ident).Sym.Type = &arr
			return true
		},
	}
	for name, breakNode := range breakers {
		file, err := parser.Parse("u.c", src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := sema.Analyze(file)
		if err != nil {
			t.Fatal(err)
		}
		broke := false
		ast.Inspect(file, func(n ast.Node) bool {
			if !broke && n != nil && breakNode(n) {
				broke = true
			}
			return !broke
		})
		if !broke {
			t.Fatalf("%s: nothing to break in the test source", name)
		}
		pr, err := Load(file, info)
		if err == nil || pr != nil {
			t.Fatalf("%s: Load returned (%v, %v), want no Program and an error", name, pr, err)
		}
		if !strings.Contains(err.Error(), "cannot lower function broken") {
			t.Errorf("%s: error %q does not name the function", name, err)
		}
	}
}

// TestReferenceIsTestOnly keeps the tree-walk reference out of every
// production path: no non-test file of the root module outside package
// interpref imports it.
func TestReferenceIsTestOnly(t *testing.T) {
	const root, reference = "../..", `"hsmcc/internal/interp/interpref"`
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if _, nested := os.Stat(filepath.Join(path, "go.mod")); path != root && (nested == nil || d.Name() == ".git") {
				return filepath.SkipDir // another module (benchmark/), not this one
			}
			if d.Name() == "interpref" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := goparser.ParseFile(token.NewFileSet(), path, nil, goparser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value == reference {
				t.Errorf("%s: non-test code imports %s", path, reference)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d non-test files from %s", files, root)
	}
}
