package pthreadrt

import (
	"fmt"
	"runtime"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/sccsim"
)

// TestCoroutineZeroGoroutines is the coroutine core's invariant: a
// multi-context run of a compiled Program — threads created, scheduled,
// blocked on joins and mutexes, and exited mid-run — never creates a
// goroutine or varies the host goroutine count.
func TestCoroutineZeroGoroutines(t *testing.T) {
	checkZeroGoroutines(t, sccsim.DefaultConfig(), 8)
}

// TestCoroutineZeroGoroutinesMesh1024 re-pins the invariant at scale:
// 1024 contexts on the mesh1024 preset, where per-context allocations or
// a stray goroutine per switch would be 128x louder than on the SCC.
func TestCoroutineZeroGoroutinesMesh1024(t *testing.T) {
	checkZeroGoroutines(t, sccsim.MustPreset("mesh1024"), 1024)
}

// checkZeroGoroutines runs an nthreads-way create/lock/join program on a
// machine built from mcfg and asserts the host goroutine count never
// rises, sampled at every scheduling decision (Sim.Cancel is polled
// there) — including while threads are being created and joined mid-run.
func checkZeroGoroutines(t *testing.T, mcfg sccsim.Config, nthreads int) {
	t.Helper()
	src := fmt.Sprintf(`
int done[%d];
int gsum;
pthread_mutex_t mu;
void *tf(void *arg) {
  int me; int i;
  me = (int)arg;
  for (i = 0; i < 200; i++) done[me] = done[me] + i;
  pthread_mutex_lock(&mu);
  gsum = gsum + done[me];
  pthread_mutex_unlock(&mu);
  pthread_exit(NULL);
}
int main() {
  pthread_t th[%d];
  int t;
  pthread_mutex_init(&mu, NULL);
  for (t = 0; t < %d; t++) pthread_create(&th[t], NULL, tf, (void *)t);
  for (t = 0; t < %d; t++) pthread_join(th[t], NULL);
  printf("g %%d\n", gsum);
  return 0;
}`, nthreads, nthreads, nthreads, nthreads)
	pr, err := interp.Compile("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.FullyCompiled() {
		t.Fatal("program should compile fully")
	}
	sim := interp.NewSim(sccsim.MustNew(mcfg), pr)
	newBaseline(sim, DefaultOptions())
	var samples, peak int
	sim.Cancel = func() error {
		peak = max(peak, runtime.NumGoroutine())
		samples++
		return nil
	}

	if _, err := sim.Spawn(0, pr.Funcs["main"], nil, 0); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()

	if samples < nthreads {
		t.Fatalf("only %d scheduling decisions sampled for %d threads", samples, nthreads)
	}
	if peak > before {
		t.Errorf("goroutine count rose during the run: before=%d peak=%d (samples=%d)", before, peak, samples)
	}
	if after > before {
		t.Errorf("goroutine count rose across the run: %d -> %d", before, after)
	}
	if got, want := sim.Output(), fmt.Sprintf("g %d\n", nthreads*19900); got != want {
		t.Errorf("output = %q, want %q", got, want)
	}
}
