package interp_test

import (
	"strings"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
)

// TestWildMPBAddressIsARunError: a program can cast any constant to a
// pointer, and one that lands at or above MPBBase but outside the MPB
// indexes past the backing array unless the machine checks it. It is a
// run error — like integer division by zero — under both runtimes, from
// the compiled Program and its reference with the same text, and from
// the bulk builtins as from a typed access.
func TestWildMPBAddressIsARunError(t *testing.T) {
	programs := []struct{ name, body, want string }{
		{"load", `int *p = (int*)0xFFFFFFF0; int v = *p; printf("%d\n", v);`,
			"core 0: load of 4 bytes at 0xfffffff0: outside the MPB (393216 bytes)"},
		{"store", `*(int*)0xC0100000 = 5; printf("done\n");`,
			"core 0: store of 4 bytes at 0xc0100000: outside the MPB (393216 bytes)"},
		{"past the end", `double *p = (double*)0xC005FFFC; *p = 1.0;`,
			"core 0: store of 8 bytes at 0xc005fffc: outside the MPB (393216 bytes)"},
		{"memset", `memset((void*)0xD0000000, 0, 64);`,
			"core 0: store of 64 bytes at 0xd0000000: outside the MPB (393216 bytes)"},
		{"memcpy", `int a[8]; memcpy(a, (void*)0xC005FFF0, 32);`,
			"core 0: load of 32 bytes at 0xc005fff0: outside the MPB (393216 bytes)"},
	}
	runtimes := []struct {
		name string
		run  func(pr *interp.Program) error
	}{
		{"pthread", func(pr *interp.Program) error {
			_, err := pthreadrt.Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), pthreadrt.DefaultOptions())
			return err
		}},
		{"rcce", func(pr *interp.Program) error {
			_, err := rcce.Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), rcce.DefaultOptions(1))
			return err
		}},
	}
	for _, prog := range programs {
		src := "int main() { " + prog.body + " return 0; }"
		for _, rt := range runtimes {
			t.Run(prog.name+"/"+rt.name, func(t *testing.T) {
				compiled, err := interp.Compile("wild.c", src)
				if err != nil {
					t.Fatal(err)
				}
				reference, err := interpref.Compile("wild.c", src)
				if err != nil {
					t.Fatal(err)
				}
				cerr, rerr := rt.run(compiled), rt.run(reference)
				if cerr == nil || !strings.Contains(cerr.Error(), prog.want) {
					t.Fatalf("compiled Program: error %v, want it to contain %q", cerr, prog.want)
				}
				if rerr == nil || rerr.Error() != cerr.Error() {
					t.Fatalf("reference Program: error %v, compiled Program: %v", rerr, cerr)
				}
			})
		}
	}
}
