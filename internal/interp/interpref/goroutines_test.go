package interpref_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/sccsim"
)

// threads is a create/lock/join program: every thread finishes.
const threads = `
int done[8];
int gsum;
pthread_mutex_t mu;
void *tf(void *arg) {
  int me; int i;
  me = (int)arg;
  for (i = 0; i < 200; i++) done[me] = done[me] + i;
  pthread_mutex_lock(&mu);
  gsum = gsum + done[me];
  pthread_mutex_unlock(&mu);
  return NULL;
}
int main() {
  pthread_t th[8];
  int t;
  pthread_mutex_init(&mu, NULL);
  for (t = 0; t < 8; t++) pthread_create(&th[t], NULL, tf, (void *)t);
  for (t = 0; t < 8; t++) pthread_join(th[t], NULL);
  printf("g %d\n", gsum);
  return 0;
}`

// deadlock leaves main blocked in a join and every thread blocked on
// the mutex main holds.
const deadlock = `
pthread_mutex_t mu;
void *tf(void *arg) {
  pthread_mutex_lock(&mu);
  return NULL;
}
int main() {
  pthread_t th[4];
  int t;
  pthread_mutex_init(&mu, NULL);
  pthread_mutex_lock(&mu);
  for (t = 0; t < 4; t++) pthread_create(&th[t], NULL, tf, NULL);
  for (t = 0; t < 4; t++) pthread_join(th[t], NULL);
  return 0;
}`

// TestWalksEndWithRun: a reference session's goroutines have all exited
// when Run returns, whether the run finished, deadlocked or was
// cancelled mid-flight, so the host goroutine count after the run is
// never above its count before the session was built.
func TestWalksEndWithRun(t *testing.T) {
	errCancel := errors.New("stop")
	for _, c := range []struct {
		name, src, want string
		cancelAfter     int
	}{
		{"finished", threads, "", 0},
		{"deadlocked", deadlock, "deadlock", 0},
		{"cancelled", threads, "session canceled", 40},
	} {
		t.Run(c.name, func(t *testing.T) {
			pr, err := interpref.Compile(c.name+".c", c.src)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				opts := pthreadrt.DefaultOptions()
				if c.cancelAfter > 0 {
					decisions := 0
					opts.Cancel = func() error {
						if decisions++; decisions > c.cancelAfter {
							return errCancel
						}
						return nil
					}
				}
				before := runtime.NumGoroutine()
				_, err := pthreadrt.Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts)
				after := runtime.NumGoroutine()
				if got := errText(err); c.want == "" && err != nil || !strings.Contains(got, c.want) {
					t.Fatalf("run %d: error %q, want one containing %q", i, got, c.want)
				}
				if after > before {
					t.Fatalf("run %d: %d goroutines after Run, %d before the session", i, after, before)
				}
			}
		})
	}
}

// TestReleasedWalkedSessionIsReused: a reference session parks on
// Release like a compiled one, and the next session, of either kind,
// runs correctly on what it parked.
func TestReleasedWalkedSessionIsReused(t *testing.T) {
	ref, err := interpref.Compile("t.c", threads)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := interp.Compile("t.c", threads)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []*interp.Program{ref, pr, ref, ref, pr} {
		res, err := pthreadrt.Run(p, sccsim.MustNew(sccsim.DefaultConfig()), pthreadrt.DefaultOptions())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if want := fmt.Sprintf("g %d\n", 8*19900); res.Output != want {
			t.Fatalf("run %d: output %q, want %q", i, res.Output, want)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
