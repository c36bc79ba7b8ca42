package pthreadrt

import (
	"sort"
	"strings"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/sccsim"
)

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	pr, err := interp.Compile("test.c", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

const sumProgram = `
int sum[4] = {0};
void *tf(void *tid) {
    int me = (int)tid;
    int i;
    for (i = 0; i < 1000; i++) sum[me] += 1;
    pthread_exit(NULL);
}
int main() {
    pthread_t threads[4];
    int i;
    for (i = 0; i < 4; i++) pthread_create(&threads[i], NULL, tf, (void*)i);
    for (i = 0; i < 4; i++) pthread_join(threads[i], NULL);
    int total = 0;
    for (i = 0; i < 4; i++) total += sum[i];
    printf("total %d\n", total);
    return 0;
}`

func TestCreateJoin(t *testing.T) {
	res := run(t, sumProgram, DefaultOptions())
	if res.Output != "total 4000\n" {
		t.Errorf("output = %q, want total 4000", res.Output)
	}
	if res.Switches == 0 {
		t.Error("4 threads on one core must context-switch")
	}
}

func TestThreadsShareGlobals(t *testing.T) {
	res := run(t, `
int flag = 0;
int seen = 0;
void *setter(void *a) { flag = 42; pthread_exit(NULL); }
void *getter(void *a) {
    while (flag == 0) { }
    seen = flag;
    pthread_exit(NULL);
}
int main() {
    pthread_t a;
    pthread_t b;
    pthread_create(&a, NULL, getter, NULL);
    pthread_create(&b, NULL, setter, NULL);
    pthread_join(a, NULL);
    pthread_join(b, NULL);
    printf("%d\n", seen);
    return 0;
}`, DefaultOptions())
	if res.Output != "42\n" {
		t.Errorf("output = %q, want 42 (spin-wait requires preemption to terminate)", res.Output)
	}
}

func TestMutexProtectsCounter(t *testing.T) {
	res := run(t, `
pthread_mutex_t lock;
int counter = 0;
void *worker(void *a) {
    int i;
    for (i = 0; i < 500; i++) {
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
    pthread_mutex_destroy(&lock);
    printf("%d\n", counter);
    return 0;
}`, DefaultOptions())
	if res.Output != "1500\n" {
		t.Errorf("output = %q, want 1500", res.Output)
	}
}

// TestPthreadSelf: a thread's ID is the value pthread_create stores for
// it and what it reads from pthread_self. IDs are dense in creation
// order after main's 0 and never reused: the second round of create and
// join gets 3, not a finished thread's ID.
func TestPthreadSelf(t *testing.T) {
	res := run(t, `
void *tf(void *a) {
    printf("child %d self %d\n", (int)a, (int)pthread_self());
    pthread_exit(NULL);
}
int main() {
    pthread_t x[3];
    int i;
    printf("main self %d\n", (int)pthread_self());
    for (i = 0; i < 2; i++) pthread_create(&x[i], NULL, tf, (void*)i);
    for (i = 0; i < 2; i++) pthread_join(x[i], NULL);
    pthread_create(&x[2], NULL, tf, (void*)2);
    pthread_join(x[2], NULL);
    for (i = 0; i < 3; i++) printf("created %d as %d\n", i, (int)x[i]);
    return 0;
}`, DefaultOptions())
	want := []string{
		"child 0 self 1", "child 1 self 2", "child 2 self 3",
		"created 0 as 1", "created 1 as 2", "created 2 as 3",
		"main self 0",
	}
	got := strings.Split(strings.TrimRight(res.Output, "\n"), "\n")
	sort.Strings(got)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("output lines = %q, want %q", got, want)
	}
}

// TestTimeSharingSerializes: N threads of equal work on one core take
// roughly N times one thread's makespan (plus switch overhead).
func TestTimeSharingSerializes(t *testing.T) {
	mk := func(n int) string {
		return strings.Replace(`
void *tf(void *a) {
    int i; int x = 0;
    for (i = 0; i < 20000; i++) x += i;
    pthread_exit(NULL);
}
int main() {
    pthread_t t[NN];
    int i;
    for (i = 0; i < NN; i++) pthread_create(&t[i], NULL, tf, (void*)i);
    for (i = 0; i < NN; i++) pthread_join(t[i], NULL);
    return 0;
}`, "NN", map[int]string{1: "1", 8: "8"}[n], -1)
	}
	one := run(t, mk(1), DefaultOptions())
	eight := run(t, mk(8), DefaultOptions())
	ratio := float64(eight.Makespan) / float64(one.Makespan)
	if ratio < 6 || ratio > 12 {
		t.Errorf("8-thread/1-thread makespan ratio = %.2f, want ~8", ratio)
	}
}

// TestSwitchOverheadCosts: a smaller quantum means more switches and a
// longer makespan for the same work.
func TestSwitchOverheadCosts(t *testing.T) {
	fast := DefaultOptions()
	slow := DefaultOptions()
	slow.QuantumCycles = 1_000
	a := run(t, sumProgram, fast)
	b := run(t, sumProgram, slow)
	if b.Switches <= a.Switches {
		t.Errorf("smaller quantum: %d switches !> %d", b.Switches, a.Switches)
	}
	if b.Makespan <= a.Makespan {
		t.Errorf("smaller quantum: makespan %d !> %d", b.Makespan, a.Makespan)
	}
}

// TestDeterminism: identical runs produce identical timing.
func TestDeterminism(t *testing.T) {
	a := run(t, sumProgram, DefaultOptions())
	b := run(t, sumProgram, DefaultOptions())
	if a.Makespan != b.Makespan || a.Switches != b.Switches {
		t.Errorf("nondeterministic: %d/%d vs %d/%d", a.Makespan, a.Switches, b.Makespan, b.Switches)
	}
}

func TestNoMainError(t *testing.T) {
	pr, err := interp.Compile("x.c", "int f() { return 1; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), DefaultOptions()); err == nil {
		t.Error("expected error for program without main")
	}
}

func TestJoinUnknownThread(t *testing.T) {
	pr, err := interp.Compile("x.c", `
int main() { pthread_join(77, NULL); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), DefaultOptions()); err == nil {
		t.Error("expected error joining unknown thread")
	}
}

// TestNestedThreadCreation: a thread creating further threads (the
// baseline must handle transitive spawning).
func TestNestedThreadCreation(t *testing.T) {
	res := run(t, `
int hits[3];
void *leaf(void *tid) {
    hits[(int)tid] = 1;
    pthread_exit(NULL);
}
void *spawner(void *a) {
    pthread_t kids[2];
    pthread_create(&kids[0], NULL, leaf, (void*)1);
    pthread_create(&kids[1], NULL, leaf, (void*)2);
    pthread_join(kids[0], NULL);
    pthread_join(kids[1], NULL);
    hits[0] = 1;
    pthread_exit(NULL);
}
int main() {
    pthread_t s;
    pthread_create(&s, NULL, spawner, NULL);
    pthread_join(s, NULL);
    printf("%d %d %d\n", hits[0], hits[1], hits[2]);
    return 0;
}`, DefaultOptions())
	if res.Output != "1 1 1\n" {
		t.Errorf("output = %q, want 1 1 1", res.Output)
	}
}

// TestManyThreadsStackRecycling: far more sequential threads than stack
// slots — finished threads' stacks must be reused.
func TestManyThreadsStackRecycling(t *testing.T) {
	res := run(t, `
int n;
void *tick(void *a) { n = n + 1; pthread_exit(NULL); }
int main() {
    int i;
    pthread_t x;
    for (i = 0; i < 300; i++) {
        pthread_create(&x, NULL, tick, NULL);
        pthread_join(x, NULL);
    }
    printf("%d\n", n);
    return 0;
}`, DefaultOptions())
	if res.Output != "300\n" {
		t.Errorf("output = %q, want 300", res.Output)
	}
}
