package rcce

import (
	"reflect"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/park"
	"hsmcc/internal/sccsim"
)

// TestReleaseEmptiesTables: a run that deadlocks in a barrier after
// symmetric allocations leaves tables that Run's release empties: every
// table is empty and zero up to its capacity, and every other field is
// zero. The run is made once with a UE per core and once with UEs
// sharing cores.
func TestReleaseEmptiesTables(t *testing.T) {
	pr, err := interp.Compile("dl.c", `
int RCCE_APP(int *argc, char **argv) {
  int *s;
  int *m;
  RCCE_init(argc, argv);
  s = (int *)RCCE_shmalloc(64);
  m = (int *)RCCE_mpbmalloc(64);
  if (RCCE_ue() != 0) RCCE_barrier(0);
  RCCE_finalize();
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	restore := park.Hold()
	defer restore()
	shared := DefaultOptions(50) // 50 UEs on 48 cores
	shared.AllowOversubscribe = true
	for _, opts := range []Options{DefaultOptions(4), shared} {
		if _, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts); err == nil {
			t.Fatalf("the run of %d UEs did not deadlock", opts.NumUEs)
		}
		rt, ok := parked.Take()
		if !ok {
			t.Fatal("Run parked no tables")
		}
		checkParked(t, rt)
		parked.Put(rt)
	}
}

// checkParked checks the tables of a parked runtime.
func checkParked(t *testing.T, rt *library) {
	t.Helper()
	tables := map[string]any{
		"uesBuf":          rt.uesBuf,
		"seen":            rt.seen,
		"shared.allocs":   rt.shared.allocs,
		"shared.seq":      rt.shared.seq,
		"mpb.allocs":      rt.mpb.allocs,
		"mpb.seq":         rt.mpb.seq,
		"barrier.waiting": rt.barrier.waiting,
	}
	for name, tab := range tables {
		v := reflect.ValueOf(tab)
		if v.Len() != 0 {
			t.Errorf("%s holds %d entries", name, v.Len())
		}
		if v.Cap() == 0 {
			t.Errorf("%s kept no capacity", name)
		}
		if name == "seen" || name == "barrier.waiting" {
			// Read past their length by the next run: must be zero.
			if !allZero(v.Slice(0, v.Cap())) {
				t.Errorf("%s is not zero past its length", name)
			}
		}
	}
	rest := *rt
	rest.uesBuf, rest.seen = nil, nil
	rest.shared.allocs, rest.shared.seq, rest.mpb.allocs, rest.mpb.seq = nil, nil, nil, nil
	rest.barrier.waiting = nil
	if !reflect.ValueOf(rest).IsZero() {
		t.Errorf("parked runtime keeps run state: %+v", rest)
	}
}

func allZero(v reflect.Value) bool {
	for i := 0; i < v.Len(); i++ {
		if !v.Index(i).IsZero() {
			return false
		}
	}
	return true
}
