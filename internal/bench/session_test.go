package bench

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/park"
	"hsmcc/internal/partition"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/synth"
)

// traceEvent is one scheduling event as a TraceSink saw it.
type traceEvent struct {
	kind      byte
	ctx, core int
	at        sccsim.Time
	a, b      int
}

// eventLog records a session's whole scheduling event stream.
type eventLog struct{ ev []traceEvent }

func (l *eventLog) add(kind byte, ctx, core int, at sccsim.Time, a, b int) {
	l.ev = append(l.ev, traceEvent{kind, ctx, core, at, a, b})
}

func (l *eventLog) TraceSpawn(ctx, core int, at sccsim.Time) { l.add('s', ctx, core, at, 0, 0) }
func (l *eventLog) TraceResume(ctx, core int, at sccsim.Time) {
	l.add('r', ctx, core, at, 0, 0)
}
func (l *eventLog) TraceSuspend(ctx, core int, at sccsim.Time, k interp.SuspendKind, r interp.BlockReason) {
	l.add('p', ctx, core, at, int(k), int(r))
}
func (l *eventLog) TraceUnblock(ctx, core int, at sccsim.Time) { l.add('u', ctx, core, at, 0, 0) }
func (l *eventLog) TraceSpin(ctx, core int, at sccsim.Time, backoff int) {
	l.add('t', ctx, core, at, backoff, 0)
}

// sessionCase is one workload compiled for both runtimes.
type sessionCase struct {
	name       string
	base, rcce *interp.Program
	threads    int
}

// sessionCases compiles a probe of the session's address layout, the ten
// corpus workloads and the four corners of the synthetic plane at 4
// threads.
func sessionCases(t *testing.T) []sessionCase {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Threads, cfg.Scale = 4, 0.05
	cfg.Cache = NewCache()
	ws := All()
	for _, p := range synth.Corners() {
		ws = append(ws, SynthWorkload(p))
	}
	if len(ws) != 14 {
		t.Fatalf("%d workloads, want the ten corpus ones and four corners", len(ws))
	}
	out := []sessionCase{{"probe", mustCompile(t, pthreadProbe), mustCompile(t, rcceProbe), 4}}
	for _, w := range ws {
		bp, err := CompileBaseline(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := TranslateWorkload(w, cfg, partition.PolicySizeAscending)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sessionCase{w.Key, bp, tr.Program, cfg.Threads})
	}
	return out
}

// sessionResult is everything a run reports and traces.
type sessionResult struct {
	Base       *pthreadrt.Result
	BaseEvents []traceEvent
	RCCE       *rcce.Result
	RCCEEvents []traceEvent
}

// runBaseline and runRCCE run one program on a fresh machine of mcfg,
// which they release, and record its event stream.
func runBaseline(pr *interp.Program, mcfg sccsim.Config, obs interp.Observers) (*pthreadrt.Result, []traceEvent, error) {
	log := &eventLog{}
	opts := pthreadrt.DefaultOptions()
	opts.Observers = obs
	opts.Trace = log
	m := sccsim.MustNew(mcfg)
	defer m.Release()
	res, err := pthreadrt.Run(pr, m, opts)
	return res, log.ev, err
}

func runRCCE(pr *interp.Program, threads int, mcfg sccsim.Config, obs interp.Observers) (*rcce.Result, []traceEvent, error) {
	log := &eventLog{}
	opts := rcce.DefaultOptions(threads)
	opts.Observers = obs
	opts.Trace = log
	m := sccsim.MustNew(mcfg)
	defer m.Release()
	res, err := rcce.Run(pr, m, opts)
	return res, log.ev, err
}

// onFresh runs f with every parked session, runtime table and machine
// storage held out of reach, so that f's runs build all of them anew.
func onFresh(f func()) {
	restore := park.Hold()
	defer restore()
	f()
}

// The probe prints where a session puts each context's stack and heap
// blocks, and RCCE's symmetric allocations: a table a released session
// did not empty shows as a different address. The Pthread threads
// finish and are joined in an order that recycles stack slots.
const (
	pthreadProbe = `
void *probe(void *a) {
  int local;
  int *h;
  h = (int *)malloc(16);
  printf("thread %d stack %d heap %d\n", (int)a, (int)&local, (int)h);
  return 0;
}
int main() {
  pthread_t th[4];
  int t;
  int here;
  printf("main stack %d heap %d\n", (int)&here, (int)malloc(8));
  for (t = 0; t < 4; t++) {
    pthread_create(&th[t], NULL, probe, (void *)t);
    if (t % 2 == 1) pthread_join(th[t], NULL);
  }
  pthread_join(th[0], NULL);
  pthread_join(th[2], NULL);
  return 0;
}`
	rcceProbe = `
int RCCE_APP(int *argc, char **argv) {
  int local;
  int *s;
  int *m;
  RCCE_init(argc, argv);
  s = (int *)RCCE_shmalloc(64);
  m = (int *)RCCE_mpbmalloc(64);
  printf("rank %d stack %d heap %d shared %d mpb %d\n", RCCE_ue(), (int)&local, (int)malloc(16), (int)s, (int)m);
  RCCE_finalize();
  return 0;
}`
)

// Programs that end a session early, each with contexts live when it
// ends: a runtime error, a deadlock, and (with a Cancel hook) any
// program cancelled mid-run, rcceSpins among them with two UEs per
// core.
const (
	pthreadFails = `
int g;
void *spin(void *a) { int i; for (i = 0; i < 2000; i++) g = g + i; return 0; }
int main() {
  pthread_t th[3];
  int t;
  int z;
  for (t = 0; t < 3; t++) pthread_create(&th[t], NULL, spin, NULL);
  z = 0;
  return g / z;
}`
	pthreadDeadlocks = `
pthread_mutex_t mu;
void *locker(void *a) { pthread_mutex_lock(&mu); return 0; }
int main() {
  pthread_t th;
  pthread_mutex_init(&mu, NULL);
  pthread_mutex_lock(&mu);
  pthread_create(&th, NULL, locker, NULL);
  pthread_join(th, NULL);
  return 0;
}`
	rcceFails = `
int RCCE_APP(int *argc, char **argv) {
  int z;
  int *p;
  RCCE_init(argc, argv);
  p = (int *)RCCE_shmalloc(64);
  p[RCCE_ue()] = 1;
  RCCE_barrier(0);
  z = 0;
  if (RCCE_ue() == 1) return p[0] / z;
  RCCE_finalize();
  return 0;
}`
	rcceDeadlocks = `
int RCCE_APP(int *argc, char **argv) {
  RCCE_init(argc, argv);
  if (RCCE_ue() != 0) RCCE_barrier(0);
  RCCE_finalize();
  return 0;
}`
	rcceSpins = `
int RCCE_APP(int *argc, char **argv) {
  int i;
  int x;
  RCCE_init(argc, argv);
  x = 0;
  for (i = 0; i < 100000; i++) x = x + i;
  RCCE_finalize();
  return x;
}`
)

// cancelAfter returns a Cancel hook that cancels at its n-th poll.
func cancelAfter(n int) func() error {
	return func() error {
		if n--; n <= 0 {
			return errors.New("stop")
		}
		return nil
	}
}

// spoil ends one session of each runtime in the given way, leaving the
// session, the runtime tables and the machine storage released dirty.
func spoil(t *testing.T, way int, c sessionCase) {
	t.Helper()
	mcfg := sccsim.DefaultConfig()
	var errB, errR error
	switch way {
	case 0:
		_, _, errB = runBaseline(mustCompile(t, pthreadFails), mcfg, interp.Observers{})
		_, _, errR = runRCCE(mustCompile(t, rcceFails), 4, mcfg, interp.Observers{})
	case 1:
		_, _, errB = runBaseline(c.base, mcfg, interp.Observers{Cancel: cancelAfter(40)})
		_, _, errR = runRCCE(c.rcce, c.threads, mcfg, interp.Observers{Cancel: cancelAfter(40)})
	case 2:
		_, _, errB = runBaseline(mustCompile(t, pthreadDeadlocks), mcfg, interp.Observers{})
		_, _, errR = runRCCE(mustCompile(t, rcceDeadlocks), 4, mcfg, interp.Observers{})
	case 3:
		// Many-to-one: 96 UEs on 48 cores. RCCE_init charges 50 000
		// cycles, yielding at every 2.5 µs clock-skew horizon, about
		// eight times a 10 000-cycle quantum; the 200th decision, about
		// four yields into each core's first quantum, cancels.
		_, _, errB = runBaseline(c.base, mcfg, interp.Observers{Cancel: cancelAfter(40)})
		opts := rcce.DefaultOptions(2 * mcfg.Cores)
		opts.AllowOversubscribe = true
		opts.Cancel = cancelAfter(200)
		m := sccsim.MustNew(mcfg)
		defer m.Release()
		_, errR = rcce.Run(mustCompile(t, rcceSpins), m, opts)
	}
	want := []string{"division by zero", "canceled", "deadlock", "canceled"}[way]
	for _, err := range []error{errB, errR} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("spoiler %d: got error %v, want one naming %q", way, err, want)
		}
	}
}

var compiled sync.Map

func mustCompile(t *testing.T, src string) *interp.Program {
	t.Helper()
	if pr, ok := compiled.Load(src); ok {
		return pr.(*interp.Program)
	}
	pr, err := interp.Compile("spoiler.c", src)
	if err != nil {
		t.Fatal(err)
	}
	compiled.Store(src, pr)
	return pr
}

func runCase(t *testing.T, c sessionCase) sessionResult {
	t.Helper()
	var r sessionResult
	var err error
	mcfg := sccsim.DefaultConfig()
	if r.Base, r.BaseEvents, err = runBaseline(c.base, mcfg, interp.Observers{}); err != nil {
		t.Fatalf("%s baseline: %v", c.name, err)
	}
	if r.RCCE, r.RCCEEvents, err = runRCCE(c.rcce, c.threads, mcfg, interp.Observers{}); err != nil {
		t.Fatalf("%s rcce: %v", c.name, err)
	}
	return r
}

// TestReleasedSessionIsFresh: a session, its runtime's tables and its
// machine's storage, released and taken again, run every corpus
// workload and synthetic corner exactly as never-used ones do — output,
// makespan, counters, context switches and the whole scheduling event
// stream — whether the run before ended cleanly, in a runtime error, a
// cancellation, a deadlock, or a cancellation of UEs time-sharing cores
// mid-quantum.
func TestReleasedSessionIsFresh(t *testing.T) {
	for i, c := range sessionCases(t) {
		var fresh sessionResult
		var err error
		mcfg := sccsim.DefaultConfig()
		onFresh(func() {
			fresh.Base, fresh.BaseEvents, err = runBaseline(c.base, mcfg, interp.Observers{})
		})
		if err != nil {
			t.Fatalf("%s baseline: %v", c.name, err)
		}
		onFresh(func() {
			fresh.RCCE, fresh.RCCEEvents, err = runRCCE(c.rcce, c.threads, mcfg, interp.Observers{})
		})
		if err != nil {
			t.Fatalf("%s rcce: %v", c.name, err)
		}
		spoil(t, i%4, c)
		reused := runCase(t, c)
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("%s after spoiler %d: a released session's run differs from a never-used one's:\n%s",
				c.name, i%4, describeDiff(fresh, reused))
		}
	}
}

// describeDiff names the first field of two session results that
// differs.
func describeDiff(a, b sessionResult) string {
	switch {
	case !reflect.DeepEqual(a.Base, b.Base):
		return fmt.Sprintf("baseline result %+v\nvs %+v", *a.Base, *b.Base)
	case !reflect.DeepEqual(a.RCCE, b.RCCE):
		return fmt.Sprintf("rcce result %+v\nvs %+v", *a.RCCE, *b.RCCE)
	case !reflect.DeepEqual(a.BaseEvents, b.BaseEvents):
		return fmt.Sprintf("baseline event streams differ (%d vs %d events)", len(a.BaseEvents), len(b.BaseEvents))
	default:
		return fmt.Sprintf("rcce event streams differ (%d vs %d events)", len(a.RCCEEvents), len(b.RCCEEvents))
	}
}

// TestRunReleasesSession: pthreadrt.Run and rcce.Run park their session
// and their runtime's tables on every way a run can end — success, a
// runtime error, a cancellation, a deadlock, and for RCCE a
// configuration New rejects.
func TestRunReleasesSession(t *testing.T) {
	pi, ok := ByKey("pi")
	if !ok {
		t.Fatal("pi workload missing")
	}
	cfg := DefaultConfig()
	cfg.Threads, cfg.Scale = 4, 0.05
	base, err := CompileBaseline(pi, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TranslateWorkload(pi, cfg, partition.PolicySizeAscending)
	if err != nil {
		t.Fatal(err)
	}
	stop := interp.Observers{Cancel: cancelAfter(40)}
	runs := []struct {
		name string
		run  func(m *sccsim.Machine) error
	}{
		{"pthread/success", func(m *sccsim.Machine) error { return baselineOn(m, base, interp.Observers{}) }},
		{"pthread/error", func(m *sccsim.Machine) error { return baselineOn(m, mustCompile(t, pthreadFails), interp.Observers{}) }},
		{"pthread/cancel", func(m *sccsim.Machine) error { return baselineOn(m, base, stop) }},
		{"pthread/deadlock", func(m *sccsim.Machine) error {
			return baselineOn(m, mustCompile(t, pthreadDeadlocks), interp.Observers{})
		}},
		{"rcce/success", func(m *sccsim.Machine) error { return rcceOn(m, tr.Program, rcce.DefaultOptions(4)) }},
		{"rcce/error", func(m *sccsim.Machine) error { return rcceOn(m, mustCompile(t, rcceFails), rcce.DefaultOptions(4)) }},
		{"rcce/cancel", func(m *sccsim.Machine) error {
			opts := rcce.DefaultOptions(4)
			opts.Observers = stop
			return rcceOn(m, tr.Program, opts)
		}},
		{"rcce/deadlock", func(m *sccsim.Machine) error {
			return rcceOn(m, mustCompile(t, rcceDeadlocks), rcce.DefaultOptions(4))
		}},
		{"rcce/rejected", func(m *sccsim.Machine) error {
			opts := rcce.DefaultOptions(4)
			opts.Cores = []int{0, 0}
			return rcceOn(m, tr.Program, opts)
		}},
	}
	for _, r := range runs {
		stop.Cancel = cancelAfter(40)
		restore := park.Hold()
		m := sccsim.MustNew(sccsim.DefaultConfig())
		err := r.run(m)
		parked := park.Parked()
		restore()
		m.Release()
		if wantErr := !strings.HasSuffix(r.name, "success"); (err != nil) != wantErr {
			t.Fatalf("%s: error %v", r.name, err)
		}
		// The session and the runtime's tables; the machine is not
		// released yet.
		if parked != 2 {
			t.Errorf("%s: %d objects parked after the run, want the session and the runtime's tables", r.name, parked)
		}
	}
}

func baselineOn(m *sccsim.Machine, pr *interp.Program, obs interp.Observers) error {
	opts := pthreadrt.DefaultOptions()
	opts.Observers = obs
	_, err := pthreadrt.Run(pr, m, opts)
	return err
}

func rcceOn(m *sccsim.Machine, pr *interp.Program, opts rcce.Options) error {
	_, err := rcce.Run(pr, m, opts)
	return err
}

// TestSessionReuseConcurrent: eight goroutines run both runtimes over
// shared Programs on two machine shapes, so sessions, runtime tables and
// storage pass between goroutines and shapes. Every run must match the
// same run done alone. CI runs it under the race detector.
func TestSessionReuseConcurrent(t *testing.T) {
	cases := sessionCases(t)[:4]
	scc, mesh := sccsim.DefaultConfig(), sccsim.MustPreset("mesh256")
	shapes := []sccsim.Config{scc, mesh}
	type job struct {
		c     sessionCase
		shape int
	}
	var jobs []job
	want := map[job]sessionResult{}
	for _, c := range cases {
		for s := range shapes {
			j := job{c, s}
			jobs = append(jobs, j)
			want[j] = runOn(t, c, shapes[s])
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(jobs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+g)%len(jobs)]
				got := runOn(t, j.c, shapes[j.shape])
				if !reflect.DeepEqual(got, want[j]) {
					errs <- fmt.Sprintf("goroutine %d, %s on shape %d: %s", g, j.c.name, j.shape, describeDiff(want[j], got))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// runOn is runCase on a machine of mcfg; safe to call from any
// goroutine (it reports failures with Error, not Fatal).
func runOn(t *testing.T, c sessionCase, mcfg sccsim.Config) sessionResult {
	var r sessionResult
	var err error
	if r.Base, r.BaseEvents, err = runBaseline(c.base, mcfg, interp.Observers{}); err != nil {
		t.Errorf("%s baseline: %v", c.name, err)
	}
	if r.RCCE, r.RCCEEvents, err = runRCCE(c.rcce, c.threads, mcfg, interp.Observers{}); err != nil {
		t.Errorf("%s rcce: %v", c.name, err)
	}
	return r
}
