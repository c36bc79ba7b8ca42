package interp

import (
	"testing"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// TestAddressOfBuildsNoType: &x builds its pointer type when it is
// lowered, not when it runs, so evaluating it allocates nothing and every
// evaluation returns the same *types.Type — for a variable and an
// element alike.
func TestAddressOfBuildsNoType(t *testing.T) {
	pr, err := Compile("k.c", "int g; int a[4]; int main() { int *p; p = &g; p = &a[2]; return *p; }")
	if err != nil {
		t.Fatal(err)
	}
	var main *compiledFunc
	for _, cf := range pr.compiledList {
		if cf.name == "main" {
			main = cf
		}
	}
	c := newCompiler(pr, main)
	p := idleProcs(t, pr)
	sites := 0
	ast.Inspect(main.decl.Body, func(n ast.Node) bool {
		u, ok := n.(*ast.UnaryExpr)
		if !ok || u.Op != token.Amp {
			return true
		}
		sites++
		eval := c.compileExpr(u)
		first, err := eval(p)
		if err != nil {
			t.Fatalf("%s: %v", u.Pos(), err)
		}
		if first.T == nil || first.T.Kind != types.Pointer || first.T.Elem != types.IntType {
			t.Fatalf("%s: &x has type %v, want int*", u.Pos(), first.T)
		}
		allocs := testing.AllocsPerRun(100, func() {
			p.Clock = 0 // stay clear of the yield horizon
			if _, err := eval(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: evaluating &x allocates %v objects, want 0", u.Pos(), allocs)
		}
		if again, _ := eval(p); again.T != first.T {
			t.Errorf("%s: two evaluations of &x return different types %p and %p", u.Pos(), first.T, again.T)
		}
		return true
	})
	if sites != 2 {
		t.Fatalf("found %d address-of sites, want 2", sites)
	}
}
