package pthreadrt

import (
	"reflect"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/profile"
	"hsmcc/internal/sccsim"
)

// TestBaselineProfilerCountsGlobalTraffic pins the Options.Profiler
// seam: profiling a baseline run labels the shared globals' static
// addresses with Collector.AddRange and observes exactly one report per
// timed access, from the compiled Program and from its tree-walk
// reference — whose yields park inside the accessors.
func TestBaselineProfilerCountsGlobalTraffic(t *testing.T) {
	const src = `
#include <stdio.h>
#include <pthread.h>

int counter[4];

void *tf(void *tid) {
    int me = (int)tid;
    counter[me] = counter[me] + 1;
    pthread_exit(0);
}

int main() {
    pthread_t t[4];
    int i;
    for (i = 0; i < 4; i++) {
        pthread_create(&t[i], 0, tf, (void *)i);
    }
    for (i = 0; i < 4; i++) {
        pthread_join(t[i], 0);
    }
    return 0;
}
`
	run := func(compile func(name, src string) (*interp.Program, error)) []profile.VarStats {
		pr, err := compile("prof.c", src)
		if err != nil {
			t.Fatal(err)
		}
		col := profile.NewCollector(profile.Spec{})
		for _, d := range pr.File.Globals() {
			addr, ok := pr.GlobalAddr(d.Sym)
			if !ok {
				t.Fatalf("global %s has no address", d.Name)
			}
			col.AddRange(d.Name, addr, d.Type.Size())
		}
		opts := DefaultOptions()
		opts.Profiler = col
		if _, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts); err != nil {
			t.Fatal(err)
		}
		return col.Snapshot()
	}

	compiled := run(interp.Compile)
	treewalk := run(interpref.Compile)
	if !reflect.DeepEqual(compiled, treewalk) {
		t.Errorf("baseline profiles differ from the reference:\ncompiled: %+v\ntreewalk: %+v", compiled, treewalk)
	}
	if len(compiled) != 1 || compiled[0].Name != "counter" {
		t.Fatalf("profile = %+v, want the counter array", compiled)
	}
	// Each of the four threads performs exactly one read and one write
	// of its element; any double-reporting across yields would inflate
	// these.
	if compiled[0].Reads != 4 || compiled[0].Writes != 4 {
		t.Errorf("counter traffic = %d reads/%d writes, want 4/4", compiled[0].Reads, compiled[0].Writes)
	}
}
