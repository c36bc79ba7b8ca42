package bench

import (
	"strings"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// TestHostileBuiltinSizesAreRunErrors: a negative length, a length
// reaching past the memory it starts in, and an allocation that is not a
// size or would carry the heap into the stack half are run errors naming
// the builtin, the size and the address — on both runtimes and both
// Programs, before any host allocation (each of these panicked the host,
// exhausted its memory or moved the heap backwards).
func TestHostileBuiltinSizesAreRunErrors(t *testing.T) {
	cases := []struct{ name, stmt, builtin, size string }{
		{"memset negative", `memset(a, 0, -5);`, "memset", "-5 bytes"},
		{"memcpy negative", `memcpy(a, b, -1);`, "memcpy", "-1 bytes"},
		{"memset 2 GB", `memset(a, 0, 2000000000);`, "memset", "2000000000 bytes"},
		{"memcpy past the stack", `memcpy(l, a, 1073741824);`, "memcpy", "1073741824 bytes"},
		{"malloc negative", `p = malloc(-1); q = malloc(8);`, "malloc", "-1 x 1 bytes"},
		{"malloc into the stacks", `p = malloc(16); q = malloc(600000000);`, "malloc", "600000000 bytes"},
		{"calloc overflow", `p = calloc(65536, 65536);`, "calloc", "65536 x 65536 bytes"},
		{"calloc negative", `p = calloc(4, -2);`, "calloc", "4 x -2 bytes"},
	}
	runtimes := map[string]func(pr *interp.Program) error{
		"pthread": func(pr *interp.Program) error {
			_, err := pthreadrt.Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), pthreadrt.DefaultOptions())
			return err
		},
		"rcce": func(pr *interp.Program) error {
			_, err := rcce.Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), rcce.DefaultOptions(2))
			return err
		},
	}
	programs := map[string]func(name, src string) (*interp.Program, error){
		"compiled": interp.Compile, "reference": interpref.Compile,
	}
	for _, c := range cases {
		src := "int a[8]; int b[8];\nint main() { int l[4]; char *p; char *q; " + c.stmt + " printf(\"survived\\n\"); return 0; }\n"
		for rtName, run := range runtimes {
			for prName, compile := range programs {
				pr, err := compile("hostile.c", src)
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				err = run(pr)
				if err == nil {
					t.Errorf("%s on %s/%s: ran to completion, want a run error", c.name, rtName, prName)
					continue
				}
				for _, want := range []string{c.builtin + " of", c.size, " at 0x"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s on %s/%s: error %q does not name %q", c.name, rtName, prName, err, want)
					}
				}
			}
		}
	}
}
