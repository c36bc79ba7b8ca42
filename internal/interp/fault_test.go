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

// wildPrograms form addresses outside the memory map: a constant cast
// to a pointer at or above MPBBase but outside the MPB, which indexes
// past the backing array unless the machine checks it; a null pointer
// under each lvalue shape (*p, p[i], q->f, (*q).f) and each bulk reader
// and writer; the unmapped gap above the private range; a word across
// the private range's end; and a word from shared DRAM into the MPB. main's body follows decls. FuzzSourceDiff
// starts from them too.
var wildPrograms = []struct{ name, decls, body, want string }{
	{"load", "", `int *p = (int*)0xFFFFFFF0; int v = *p; printf("%d\n", v);`,
		"core 0: load of 4 bytes at 0xfffffff0: outside the MPB (393216 bytes)"},
	{"store", "", `*(int*)0xC0100000 = 5; printf("after\n");`,
		"core 0: store of 4 bytes at 0xc0100000: outside the MPB (393216 bytes)"},
	{"past the end", "", `double *p = (double*)0xC005FFFC; *p = 1.0;`,
		"core 0: store of 8 bytes at 0xc005fffc: outside the MPB (393216 bytes)"},
	{"memset", "", `memset((void*)0xD0000000, 0, 64);`,
		"core 0: store of 64 bytes at 0xd0000000: outside the MPB (393216 bytes)"},
	{"memcpy", "", `int a[8]; memcpy(a, (void*)0xC005FFF0, 32);`,
		"core 0: load of 32 bytes at 0xc005fff0: outside the MPB (393216 bytes)"},
	{"null deref load", "", `int *p = NULL; int v = *p; printf("%d\n", v);`,
		"core 0: load of 4 bytes at 0x0: unmapped"},
	{"null index store", "", `int *p = NULL; int i = 2; p[i] = 7; printf("after\n");`,
		"core 0: store of 4 bytes at 0x8: unmapped"},
	{"null arrow", "struct pair { int k; double w; };", `struct pair *q = NULL; q->w = 2.5; printf("%f\n", q->w);`,
		"core 0: store of 8 bytes at 0x8: unmapped"},
	{"null deref member", "struct pair { int k; double w; };", `struct pair *q = NULL; (*q).w = 2.5; printf("%f\n", (*q).w);`,
		"core 0: store of 8 bytes at 0x8: unmapped"},
	{"private gap", "", `*(int*)0x40000000 = 3; printf("after\n");`,
		"core 0: store of 4 bytes at 0x40000000: unmapped"},
	{"across the private range's end", "", `double *p = (double*)0x3FFFFFFC; *p = 1.0; printf("after\n");`,
		"core 0: store of 8 bytes at 0x3ffffffc: unmapped"},
	{"across the shared window's end", "", `double *p = (double*)0xBFFFFFFC; *p = 1.0; printf("after\n");`,
		"core 0: store of 8 bytes at 0xbffffffc: unmapped"},
	{"memset null", "", `memset(NULL, 0, 8);`,
		"core 0: store of 8 bytes at 0x0: unmapped"},
	{"printf null string", "", `printf("%s\n", (char*)0);`,
		"core 0: read of 64 bytes at 0x0: unmapped"},
}

// wildSource is the C text of a wildPrograms row.
func wildSource(decls, body string) string {
	return decls + " int main() { " + body + " return 0; }"
}

// TestWildMPBAddressIsARunError: every wildPrograms row is a run error —
// like integer division by zero — the machine's fault, under both
// runtimes, from the compiled Program and its reference with the same
// text, and from the bulk builtins as from a typed access. A typed
// access that faults is its context's last: on a bare session, whose
// output outlives the error, no row's "after" prints.
func TestWildMPBAddressIsARunError(t *testing.T) {
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
	for _, prog := range wildPrograms {
		src := wildSource(prog.decls, prog.body)
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
		t.Run(prog.name+"/session", func(t *testing.T) {
			for _, compile := range []func(name, src string) (*interp.Program, error){interp.Compile, interpref.Compile} {
				pr, err := compile("wild.c", src)
				if err != nil {
					t.Fatal(err)
				}
				sim := interp.NewSim(sccsim.MustNew(sccsim.DefaultConfig()), pr)
				if _, err := sim.Spawn(0, pr.Funcs["main"], nil, 0); err != nil {
					t.Fatal(err)
				}
				if err := sim.Run(); err == nil || !strings.Contains(err.Error(), prog.want) || strings.Contains(sim.Output(), "after") {
					t.Fatalf("error %v, output %q; want %q and nothing printed after the fault", err, sim.Output(), prog.want)
				}
			}
		})
	}
}
