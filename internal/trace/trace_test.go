package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/pthreadrt"
	"hsmcc/internal/rcce"
	"hsmcc/internal/sccsim"
	"hsmcc/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

// rcceProgram exercises every RCCE-side event source: lock contention
// (spin rounds + mutex-flavoured waits), a barrier, MPB traffic
// (mpbmalloc + put) and off-chip shared traffic (shmalloc).
const rcceProgram = `
int *counter;
char *stage;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    counter = (int*)RCCE_shmalloc(sizeof(int));
    stage = (char*)RCCE_mpbmalloc(32);
    int me = RCCE_ue();
    int i;
    for (i = 0; i < 8; i++) {
        RCCE_acquire_lock(0);
        *counter = *counter + 1;
        RCCE_release_lock(0);
    }
    if (me == 0) {
        char buf[32];
        for (i = 0; i < 32; i++) buf[i] = (char)i;
        RCCE_put(stage, buf, 32, 0);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (me == 0) printf("count %d stage %d\n", *counter, stage[31]);
    RCCE_finalize();
    return 0;
}`

// pthreadProgram exercises the baseline-side sources: mutex waits,
// joins, and time-shared scheduling on one core.
const pthreadProgram = `
pthread_mutex_t lock;
int counter = 0;
void *worker(void *a) {
    int i;
    for (i = 0; i < 40; i++) {
        pthread_mutex_lock(&lock);
        counter = counter + 1;
        pthread_mutex_unlock(&lock);
    }
    pthread_exit(NULL);
}
int main() {
    pthread_mutex_init(&lock, NULL);
    pthread_t t[3];
    int i;
    for (i = 0; i < 3; i++) pthread_create(&t[i], NULL, worker, NULL);
    for (i = 0; i < 3; i++) pthread_join(t[i], NULL);
    printf("%d\n", counter);
    return 0;
}`

// sendrecvProgram exercises the rendezvous block reasons (send, recv).
const sendrecvProgram = `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    int me = RCCE_ue();
    int payload[8];
    int i;
    if (me == 0) {
        for (i = 0; i < 8; i++) payload[i] = i * 3;
        RCCE_send((char*)payload, 32, 1);
    } else {
        RCCE_recv((char*)payload, 32, 0);
        printf("got %d\n", payload[7]);
    }
    RCCE_finalize();
    return 0;
}`

// compileFn builds the Program a run executes: interp.Compile for the
// coroutine engine, interpref.Compile for the tree-walk oracle.
type compileFn func(name, src string) (*interp.Program, error)

func (compile compileFn) program(t *testing.T, src string) *interp.Program {
	t.Helper()
	pr, err := compile("trace_test.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return pr
}

func runRCCE(t *testing.T, src string, ues int, compile compileFn, rec *trace.Recorder) *rcce.Result {
	t.Helper()
	opts := rcce.DefaultOptions(ues)
	if rec != nil { // a typed-nil sink would defeat the hooks' nil checks
		opts.Trace = rec
	}
	res, err := rcce.Run(compile.program(t, src), sccsim.MustNew(sccsim.DefaultConfig()), opts)
	if err != nil {
		t.Fatalf("rcce run: %v", err)
	}
	return res
}

func runPthread(t *testing.T, src string, compile compileFn, rec *trace.Recorder) *pthreadrt.Result {
	t.Helper()
	opts := pthreadrt.DefaultOptions()
	if rec != nil {
		opts.Trace = rec
	}
	res, err := pthreadrt.Run(compile.program(t, src), sccsim.MustNew(sccsim.DefaultConfig()), opts)
	if err != nil {
		t.Fatalf("pthread run: %v", err)
	}
	return res
}

func exportJSON(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	b, err := json.MarshalIndent(rec.Export(), "", " ")
	if err != nil {
		t.Fatalf("marshal export: %v", err)
	}
	return append(b, '\n')
}

// TestCrossEngineByteIdentity is the tentpole invariant: the tree-walk
// reference and the coroutine engine must produce byte-identical trace
// exports (and identical simulation results) for the same program,
// because every hook fires from the one scheduler both run under.
func TestCrossEngineByteIdentity(t *testing.T) {
	t.Run("rcce", func(t *testing.T) {
		recTW := trace.NewRecorder(nil, 0)
		recCO := trace.NewRecorder(nil, 0)
		tw := runRCCE(t, rcceProgram, 4, interpref.Compile, recTW)
		co := runRCCE(t, rcceProgram, 4, interp.Compile, recCO)
		if tw.Output != co.Output || tw.Makespan != co.Makespan {
			t.Fatalf("engines diverge: %q/%d vs %q/%d", tw.Output, tw.Makespan, co.Output, co.Makespan)
		}
		a, b := exportJSON(t, recTW), exportJSON(t, recCO)
		if !bytes.Equal(a, b) {
			t.Fatalf("trace exports differ between engines:\ntreewalk %d bytes, compiled %d bytes", len(a), len(b))
		}
	})
	t.Run("pthread", func(t *testing.T) {
		recTW := trace.NewRecorder(nil, 0)
		recCO := trace.NewRecorder(nil, 0)
		tw := runPthread(t, pthreadProgram, interpref.Compile, recTW)
		co := runPthread(t, pthreadProgram, interp.Compile, recCO)
		if tw.Output != co.Output || tw.Makespan != co.Makespan {
			t.Fatalf("engines diverge: %q/%d vs %q/%d", tw.Output, tw.Makespan, co.Output, co.Makespan)
		}
		if !bytes.Equal(exportJSON(t, recTW), exportJSON(t, recCO)) {
			t.Fatal("trace exports differ between engines")
		}
	})
	t.Run("sendrecv", func(t *testing.T) {
		recTW := trace.NewRecorder(nil, 0)
		recCO := trace.NewRecorder(nil, 0)
		runRCCE(t, sendrecvProgram, 2, interpref.Compile, recTW)
		runRCCE(t, sendrecvProgram, 2, interp.Compile, recCO)
		if !bytes.Equal(exportJSON(t, recTW), exportJSON(t, recCO)) {
			t.Fatal("trace exports differ between engines")
		}
	})
}

// TestTracingDoesNotPerturb: attaching a recorder must not change the
// simulation — identical output, makespan and cycle statistics.
func TestTracingDoesNotPerturb(t *testing.T) {
	for eng, compile := range map[string]compileFn{"tree-walk": interpref.Compile, "compiled": interp.Compile} {
		plain := runRCCE(t, rcceProgram, 4, compile, nil)
		traced := runRCCE(t, rcceProgram, 4, compile, trace.NewRecorder(nil, 0))
		if plain.Output != traced.Output {
			t.Errorf("%v: output changed under tracing: %q vs %q", eng, plain.Output, traced.Output)
		}
		if plain.Makespan != traced.Makespan {
			t.Errorf("%v: makespan changed under tracing: %d vs %d", eng, plain.Makespan, traced.Makespan)
		}
		if plain.Stats != traced.Stats {
			t.Errorf("%v: cycle stats changed under tracing:\n%+v\nvs\n%+v", eng, plain.Stats, traced.Stats)
		}
	}
}

// TestGoldenTrace pins the committed Chrome trace artifact. Regenerate
// with: go test ./internal/trace -run TestGoldenTrace -update
func TestGoldenTrace(t *testing.T) {
	rec := trace.NewRecorder(nil, 0)
	res := runRCCE(t, rcceProgram, 4, interp.Compile, rec)
	if res.Output != "count 32 stage 31\n" {
		t.Fatalf("unexpected program output %q", res.Output)
	}
	got := exportJSON(t, rec)
	path := filepath.Join("testdata", "golden", "rcce_lock.trace.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace differs from golden %s (got %d bytes, want %d); rerun with -update if intended",
			path, len(got), len(want))
	}
}

// Strict mirror of the Chrome trace_event vocabulary the exporter may
// emit; DisallowUnknownFields turns any drift into a test failure.
type schemaEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	S    string          `json:"s"`
	Args json.RawMessage `json:"args"`
}

type schemaDoc struct {
	TraceEvents []schemaEvent  `json:"traceEvents"`
	Summary     *trace.Summary `json:"summary"`
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestChromeSchemaRoundTrip: the committed golden trace must parse
// under the strict trace_event schema — every event a known phase,
// every args payload the exact shape its event name promises.
func TestChromeSchemaRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "rcce_lock.trace.json"))
	if err != nil {
		t.Fatalf("read golden (run TestGoldenTrace with -update to create): %v", err)
	}
	var doc schemaDoc
	if err := strictUnmarshal(data, &doc); err != nil {
		t.Fatalf("golden trace violates schema: %v", err)
	}
	if doc.Summary == nil {
		t.Fatal("golden trace has no summary")
	}
	counts := map[string]int{}
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "M", "X", "i", "C":
		default:
			t.Fatalf("event %d: unknown phase %q", i, e.Ph)
		}
		if e.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		if e.Ph == "X" && e.Dur < 0 {
			t.Fatalf("event %d (%s): negative duration %v", i, e.Name, e.Dur)
		}
		counts[e.Ph]++
		// Args payloads, strictly, by event name.
		var argErr error
		switch {
		case e.Ph == "M":
			argErr = strictUnmarshal(e.Args, &struct {
				Name string `json:"name"`
			}{})
		case e.Name == "run":
			argErr = strictUnmarshal(e.Args, &struct {
				End       string `json:"end"`
				Loads     uint32 `json:"loads"`
				Stores    uint32 `json:"stores"`
				Private   uint32 `json:"private"`
				Shared    uint32 `json:"shared"`
				MPB       uint32 `json:"mpb"`
				MPBRemote uint32 `json:"mpb_remote"`
				L1Hits    uint32 `json:"l1_hits"`
				L1Misses  uint32 `json:"l1_misses"`
				L2Hits    uint32 `json:"l2_hits"`
				L2Misses  uint32 `json:"l2_misses"`
			}{})
		case e.Ph == "C":
			argErr = strictUnmarshal(e.Args, &struct {
				Value uint64 `json:"value"`
			}{})
		case e.Name == "spin":
			argErr = strictUnmarshal(e.Args, &struct {
				Backoff int64 `json:"backoff_cycles"`
			}{})
		}
		if argErr != nil {
			t.Fatalf("event %d (%s %q): bad args: %v", i, e.Ph, e.Name, argErr)
		}
	}
	for _, ph := range []string{"M", "X", "i", "C"} {
		if counts[ph] == 0 {
			t.Errorf("golden trace has no %q events", ph)
		}
	}
	if doc.Summary.SpinRounds == 0 {
		t.Error("lock-contention trace recorded no spin rounds")
	}
	var reasons []string
	for _, s := range doc.Summary.Stalls {
		reasons = append(reasons, s.Reason)
	}
	if len(reasons) == 0 {
		t.Error("summary has no stall breakdown")
	}
}

// TestRingDropOldest: a tiny ring drops the oldest events but the
// summary stays exact — its online accumulators never depend on the
// ring contents.
func TestRingDropOldest(t *testing.T) {
	small := trace.NewRecorder(nil, 16)
	big := trace.NewRecorder(nil, 0)
	runRCCE(t, rcceProgram, 4, interp.Compile, small)
	runRCCE(t, rcceProgram, 4, interp.Compile, big)

	events, dropped := small.Events()
	if len(events) != 16 {
		t.Fatalf("retained %d events, want ring capacity 16", len(events))
	}
	if dropped == 0 {
		t.Fatal("expected the small ring to drop events")
	}
	ss, bs := small.Summarize(), big.Summarize()
	if ss.Dropped != dropped {
		t.Errorf("summary dropped %d, Events() reported %d", ss.Dropped, dropped)
	}
	if bs.Dropped != 0 {
		t.Errorf("large ring dropped %d events", bs.Dropped)
	}
	ss.Dropped, bs.Dropped = 0, 0
	if !reflect.DeepEqual(ss, bs) {
		t.Errorf("summaries diverge under ring wrap:\nsmall %+v\nbig   %+v", ss, bs)
	}
}

// TestEnabledPathZeroAlloc: with tracing enabled, the steady-state hook
// path (resume, suspend, unblock, spin) allocates nothing — the ring
// and accumulators are preallocated, growth happens only at spawn.
func TestEnabledPathZeroAlloc(t *testing.T) {
	m := sccsim.MustNew(sccsim.DefaultConfig())
	rec := trace.NewRecorder(m, 1024)
	for ctx := 0; ctx < 8; ctx++ {
		rec.TraceSpawn(ctx, ctx%4, 0)
	}
	at := sccsim.Time(1_000_000)
	allocs := testing.AllocsPerRun(1000, func() {
		rec.TraceResume(3, 2, at)
		rec.TraceSuspend(3, 2, at, interp.SuspendYield, interp.ReasonNone)
		rec.TraceSpin(3, 2, at, 120)
		rec.TraceResume(3, 2, at)
		rec.TraceSuspend(3, 2, at, interp.SuspendBlock, interp.ReasonMutex)
		rec.TraceUnblock(3, 2, at)
	})
	if allocs != 0 {
		t.Fatalf("enabled trace hot path allocates: %v allocs/run", allocs)
	}
}
