package interp_test

import (
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
)

// TestMultiDeclaratorLocals: every name of a local declaration with
// several declarators is declared in the enclosing scope — a block's,
// and a for statement's for its init — in both engines, with the
// outputs C gives.
func TestMultiDeclaratorLocals(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"block", `
int main() {
    int a, b;
    a = 1;
    b = 2;
    printf("%d\n", a + b);
    return 0;
}`, "3\n"},
		{"for init", `
int main() {
    int s = 0;
    for (int i = 0, j = 10; i < j; i++) s += i;
    printf("%d\n", s);
    return 0;
}`, "45\n"},
	} {
		for _, e := range []struct {
			engine  string
			compile func(name, src string) (*interp.Program, error)
		}{{"compiled", interp.Compile}, {"interpref", interpref.Compile}} {
			sim, err := tryRunMainWith(e.compile, c.src)
			if err != nil {
				t.Errorf("%s, %s: %v", c.name, e.engine, err)
				continue
			}
			if got := sim.Output(); got != c.want {
				t.Errorf("%s, %s: output %q, want %q", c.name, e.engine, got, c.want)
			}
		}
	}
}
