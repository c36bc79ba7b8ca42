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
// thread's joiner list too, and every other field is zero.
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
	if len(rt.joiners) != 0 || len(rt.mutexes) != 0 {
		t.Errorf("parked tables hold %d joiner lists, %d mutexes", len(rt.joiners), len(rt.mutexes))
	}
	// The one joined thread is thread 2, so the joiner lists reach it.
	if cap(rt.joiners) < 3 {
		t.Fatalf("the joiner lists kept capacity %d, want one up to the joined thread", cap(rt.joiners))
	}
	for tid, js := range rt.joiners[:cap(rt.joiners)] {
		if len(js) != 0 || !allNil(js[:cap(js)]) {
			t.Errorf("thread %d's joiner list holds %d contexts or stale ones past its length", tid, len(js))
		}
	}
	rest := *rt
	rest.joiners, rest.mutexes = nil, nil
	if !reflect.ValueOf(rest).IsZero() {
		t.Errorf("parked runtime keeps run state: %+v", rest)
	}
}

func allNil(ps []*interp.Proc) bool {
	for _, p := range ps {
		if p != nil {
			return false
		}
	}
	return true
}
