package pthreadrt

import (
	"reflect"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/park"
	"hsmcc/internal/sccsim"
)

// TestReleaseEmptiesTables: a run that deadlocks with a joiner, a mutex
// waiter and unfinished threads leaves tables that Run's release
// empties: every table is empty and zero up to its capacity, each
// thread's joiner list and the policy's per-core tables too, and every
// other field is zero.
func TestReleaseEmptiesTables(t *testing.T) {
	pr, err := interp.Compile("dl.c", `
pthread_mutex_t mu;
void *locker(void *a) { pthread_mutex_lock(&mu); return 0; }
int main() {
  pthread_t th[3];
  int t;
  pthread_mutex_init(&mu, NULL);
  pthread_mutex_lock(&mu);
  for (t = 0; t < 3; t++) pthread_create(&th[t], NULL, locker, NULL);
  pthread_join(th[1], NULL);
  return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	restore := park.Hold()
	defer restore()
	if _, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), DefaultOptions()); err == nil {
		t.Fatal("the run did not deadlock")
	}
	rt, ok := parked.Take()
	if !ok {
		t.Fatal("Run parked no tables")
	}
	defer parked.Put(rt)
	if len(rt.byTID) != 0 || len(rt.tidOf) != 0 || len(rt.joiners) != 0 || len(rt.mutexes) != 0 {
		t.Errorf("parked tables hold %d threads, %d thread IDs, %d joiner lists, %d mutexes",
			len(rt.byTID), len(rt.tidOf), len(rt.joiners), len(rt.mutexes))
	}
	if !allNil(rt.byTID[:cap(rt.byTID)]) {
		t.Error("byTID holds contexts past its length")
	}
	if cap(rt.joiners) < 4 {
		t.Fatalf("the joiner lists kept capacity %d, want one per thread", cap(rt.joiners))
	}
	for tid, js := range rt.joiners[:cap(rt.joiners)] {
		if len(js) != 0 || !allNil(js[:cap(js)]) {
			t.Errorf("thread %d's joiner list holds %d contexts or stale ones past its length", tid, len(js))
		}
	}
	checkParkedPolicy(t, &rt.pol)
	rest := *rt
	rest.byTID, rest.tidOf, rest.joiners, rest.mutexes = nil, nil, nil, nil
	rest.pol = interp.TimeShare{}
	if !reflect.ValueOf(rest).IsZero() {
		t.Errorf("parked runtime keeps run state: %+v", rest)
	}
}

// checkParkedPolicy checks a parked policy as the runtime's own tables
// are checked: each of its tables is empty, kept its capacity and is
// zero up to it, and every other field is zero.
func checkParkedPolicy(t *testing.T, pol *interp.TimeShare) {
	t.Helper()
	v := reflect.ValueOf(pol).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case f.Kind() != reflect.Slice:
			if !f.IsZero() {
				t.Errorf("parked policy keeps %s", name)
			}
		case f.Len() != 0 || f.Cap() == 0:
			t.Errorf("parked policy's %s holds %d entries and kept capacity %d", name, f.Len(), f.Cap())
		case !allZero(f.Slice(0, f.Cap())):
			t.Errorf("parked policy's %s is not zero past its length", name)
		}
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

func allNil(ps []*interp.Proc) bool {
	for _, p := range ps {
		if p != nil {
			return false
		}
	}
	return true
}
