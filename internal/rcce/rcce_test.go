package rcce

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hsmcc/internal/interp"
	"hsmcc/internal/interp/interpref"
	"hsmcc/internal/sccsim"
)

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := tryRun(src, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func tryRun(src string, opts Options) (*Result, error) {
	pr, err := interp.Compile("test.c", src)
	if err != nil {
		return nil, err
	}
	return Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts)
}

func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return lines
}

// TestUEIdentity: rank i is the UE the core map lists at index i, on
// that core's voltage domain, also when UEs share cores and the map is
// not in core order.
func TestUEIdentity(t *testing.T) {
	const src = `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    printf("ue %d of %d domain %d\n", RCCE_ue(), RCCE_num_ues(), RCCE_power_domain());
    RCCE_finalize();
    return 0;
}`
	permuted := DefaultOptions(5)
	permuted.Cores = []int{40, 9, 40, 0, 9} // domains 5, 1, 5, 0, 1
	permuted.AllowOversubscribe = true
	for _, tc := range []struct {
		opts Options
		want []string
	}{
		{DefaultOptions(4), []string{"ue 0 of 4 domain 0", "ue 1 of 4 domain 0", "ue 2 of 4 domain 0", "ue 3 of 4 domain 0"}},
		{permuted, []string{"ue 0 of 5 domain 5", "ue 1 of 5 domain 1", "ue 2 of 5 domain 5", "ue 3 of 5 domain 0", "ue 4 of 5 domain 1"}},
	} {
		got := sortedLines(run(t, src, tc.opts).Output)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("cores %v: output lines = %v, want %v", tc.opts.Cores, got, tc.want)
		}
	}
}

func TestShmallocSymmetricAndShared(t *testing.T) {
	res := run(t, `
int *data;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    data = (int*)RCCE_shmalloc(sizeof(int) * 8);
    int me = RCCE_ue();
    data[me] = 100 + me;
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (me == 0) {
        int i; int sum = 0;
        for (i = 0; i < 4; i++) sum += data[i];
        printf("sum %d\n", sum);
    }
    RCCE_finalize();
    return 0;
}`, DefaultOptions(4))
	if res.Output != "sum 406\n" {
		t.Errorf("output = %q, want sum 406 (cross-core shared writes visible)", res.Output)
	}
	if res.SharedBytes < 32 {
		t.Errorf("SharedBytes = %d, want >= 32", res.SharedBytes)
	}
}

func TestMPBMallocVisible(t *testing.T) {
	res := run(t, `
int *data;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    data = (int*)RCCE_mpbmalloc(sizeof(int) * 4);
    int me = RCCE_ue();
    data[me] = me * me;
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (me == 3) printf("%d %d %d %d\n", data[0], data[1], data[2], data[3]);
    RCCE_finalize();
    return 0;
}`, DefaultOptions(4))
	if res.Output != "0 1 4 9\n" {
		t.Errorf("output = %q", res.Output)
	}
	if res.OnChipBytes < 16 {
		t.Errorf("OnChipBytes = %d, want >= 16", res.OnChipBytes)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Without the barrier rank 1 could read before rank 0 writes; the
	// barrier forces the ordering, so the result is deterministic.
	res := run(t, `
int *flag;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    flag = (int*)RCCE_shmalloc(sizeof(int));
    if (RCCE_ue() == 0) {
        int i; int x = 0;
        for (i = 0; i < 5000; i++) x += i;  /* rank 0 arrives late */
        *flag = x;
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (RCCE_ue() == 1) printf("flag %d\n", *flag);
    RCCE_finalize();
    return 0;
}`, DefaultOptions(2))
	if res.Output != "flag 12497500\n" {
		t.Errorf("output = %q", res.Output)
	}
}

// TestLocksMutualExclusion: four UEs add to one counter under a lock.
// Locks numbered at or past the UE count share rank 0's register (the
// translator turns mutex k into lock k, so a program may have more
// mutexes than UEs), so UEs alternating between locks 4 and 5 still
// exclude each other.
func TestLocksMutualExclusion(t *testing.T) {
	for _, lock := range []string{"0", "4 + RCCE_ue() % 2"} {
		res := run(t, strings.ReplaceAll(`
int *counter;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    counter = (int*)RCCE_shmalloc(sizeof(int));
    int i;
    for (i = 0; i < 200; i++) {
        RCCE_acquire_lock(LOCK);
        *counter = *counter + 1;
        RCCE_release_lock(LOCK);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (RCCE_ue() == 0) printf("%d\n", *counter);
    RCCE_finalize();
    return 0;
}`, "LOCK", lock), DefaultOptions(4))
		if res.Output != "800\n" {
			t.Errorf("lock %s: output = %q, want 800", lock, res.Output)
		}
	}
}

func TestPutGetMoveData(t *testing.T) {
	res := run(t, `
char *src;
char *dst;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    src = (char*)RCCE_shmalloc(64);
    dst = (char*)RCCE_mpbmalloc(64);
    int me = RCCE_ue();
    if (me == 0) {
        int i;
        for (i = 0; i < 64; i++) src[i] = (char)i;
        RCCE_put(dst, src, 64, 0);
    }
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (me == 1) printf("%d %d\n", dst[10], dst[63]);
    RCCE_finalize();
    return 0;
}`, DefaultOptions(2))
	if res.Output != "10 63\n" {
		t.Errorf("output = %q", res.Output)
	}
}

// TestHostileRCCESizesAreRunErrors: a negative size, or one reaching
// past the memory its buffer starts in, handed to a bulk RCCE builtin or
// an allocator is a run error naming the builtin, the size and the
// address — raised before anything is copied, charged or allocated, with
// the same text on the compiled and the reference Program. (A negative
// allocation moved the symmetric cursor backwards, a negative put ran
// the clock backwards, and a negative send/recv returned normally.)
func TestHostileRCCESizesAreRunErrors(t *testing.T) {
	cases := []struct{ name, stmt, builtin, size string }{
		{"shmalloc negative", `p = RCCE_shmalloc(-32); q = RCCE_shmalloc(16);`, "RCCE_shmalloc", "-32 bytes"},
		{"shmalloc past shared memory", `p = RCCE_shmalloc(2000000000);`, "RCCE_shmalloc", "2000000000 bytes"},
		{"mpbmalloc negative", `p = RCCE_mpbmalloc(-32); q = RCCE_mpbmalloc(16);`, "RCCE_mpbmalloc", "-32 bytes"},
		{"put negative", `RCCE_put(a, b, -1280000, 0);`, "RCCE_put", "-1280000 bytes"},
		{"get negative", `RCCE_get(a, b, -1, 1);`, "RCCE_get", "-1 bytes"},
		{"put past the heap", `RCCE_put(a, b, 2000000000, 0);`, "RCCE_put", "2000000000 bytes"},
		{"send negative", `if (me == 0) RCCE_send(a, -64, 1); else RCCE_recv(a, 64, 0);`, "RCCE_send", "-64 bytes"},
		{"recv negative", `if (me == 0) RCCE_send(a, 64, 1); else RCCE_recv(a, -64, 0);`, "RCCE_recv", "-64 bytes"},
		{"recv past the heap", `if (me == 0) RCCE_send(a, 64, 1); else RCCE_recv(a, 2000000000, 0);`, "RCCE_recv", "2000000000 bytes"},
	}
	programs := []func(name, src string) (*interp.Program, error){interp.Compile, interpref.Compile}
	for _, c := range cases {
		src := "char a[64]; char b[64]; char *p; char *q;\nint RCCE_APP(int *argc, char **argv) {\n" +
			"    RCCE_init(argc, argv); int me = RCCE_ue();\n    " + c.stmt +
			"\n    printf(\"survived\\n\"); RCCE_finalize(); return 0;\n}\n"
		var texts []string
		for _, compile := range programs {
			pr, err := compile("hostile.c", src)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			_, err = Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), DefaultOptions(2))
			if err == nil {
				t.Fatalf("%s: ran to completion, want a run error", c.name)
			}
			for _, want := range []string{c.builtin + " of", c.size, " at 0x"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not name %q", c.name, err, want)
				}
			}
			texts = append(texts, err.Error())
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: compiled error %q, reference %q", c.name, texts[0], texts[1])
		}
	}
}

// TestParallelSpeedup: embarrassingly parallel work on N cores runs ~N
// times faster than on one.
func TestParallelSpeedup(t *testing.T) {
	src := func() string {
		return `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    int n = RCCE_num_ues();
    int me = RCCE_ue();
    int total = 80000;
    int chunk = total / n;
    int i; int x = 0;
    for (i = me * chunk; i < (me + 1) * chunk; i++) x += i;
    RCCE_finalize();
    return 0;
}`
	}
	one := run(t, src(), DefaultOptions(1))
	eight := run(t, src(), DefaultOptions(8))
	speedup := float64(one.Makespan) / float64(eight.Makespan)
	if speedup < 6 || speedup > 9 {
		t.Errorf("8-core speedup = %.2f, want ~8", speedup)
	}
}

// TestMPBFasterThanShared: the same memory-heavy kernel runs faster from
// the MPB than from uncacheable shared DRAM — Fig 6.2's mechanism.
func TestMPBFasterThanShared(t *testing.T) {
	kernel := func(alloc string) string {
		return `
int *a;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    a = (int*)` + alloc + `(sizeof(int) * 512);
    int me = RCCE_ue();
    int n = RCCE_num_ues();
    int lo = me * (512 / n);
    int hi = lo + (512 / n);
    int pass; int i; int s = 0;
    for (pass = 0; pass < 20; pass++)
        for (i = lo; i < hi; i++) s += a[i];
    RCCE_finalize();
    return 0;
}`
	}
	off := run(t, kernel("RCCE_shmalloc"), DefaultOptions(4))
	on := run(t, kernel("RCCE_mpbmalloc"), DefaultOptions(4))
	if on.Makespan*2 > off.Makespan {
		t.Errorf("MPB run %d ps should be <1/2 of off-chip %d ps", on.Makespan, off.Makespan)
	}
}

// TestStripingLocality: with striping, each rank's slice is mostly local;
// without, ranks other than 0 pay remote MPB accesses.
func TestStripingLocality(t *testing.T) {
	src := `
int *a;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    a = (int*)RCCE_mpbmalloc(sizeof(int) * 1024);
    int me = RCCE_ue();
    int chunk = 1024 / RCCE_num_ues();
    int i;
    for (i = me * chunk; i < (me + 1) * chunk; i++) a[i] = me;
    RCCE_finalize();
    return 0;
}`
	striped := DefaultOptions(4)
	clumped := DefaultOptions(4)
	clumped.StripeMPB = false
	a := run(t, src, striped)
	b := run(t, src, clumped)
	if a.Stats.MPBRemote >= b.Stats.MPBRemote {
		t.Errorf("striped remote accesses %d !< clumped %d", a.Stats.MPBRemote, b.Stats.MPBRemote)
	}
}

func TestShmallocDivergenceDetected(t *testing.T) {
	_, err := tryRun(`
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    if (RCCE_ue() == 0) { RCCE_shmalloc(64); }
    else { RCCE_shmalloc(128); }
    RCCE_finalize();
    return 0;
}`, DefaultOptions(2))
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Errorf("err = %v, want divergence report", err)
	}
}

func TestMPBExhaustion(t *testing.T) {
	_, err := tryRun(`
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    RCCE_mpbmalloc(400000); /* > 384 KB */
    RCCE_finalize();
    return 0;
}`, DefaultOptions(2))
	if err == nil || !strings.Contains(err.Error(), "MPB exhausted") {
		t.Errorf("err = %v, want MPB exhausted", err)
	}
}

func TestRCCEWtime(t *testing.T) {
	res := run(t, `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    double t0 = RCCE_wtime();
    int i; int x = 0;
    for (i = 0; i < 10000; i++) x += i;
    double t1 = RCCE_wtime();
    if (RCCE_ue() == 0) printf("%d\n", t1 > t0);
    RCCE_finalize();
    return 0;
}`, DefaultOptions(2))
	if res.Output != "1\n" {
		t.Errorf("output = %q", res.Output)
	}
}

func TestDeterminism(t *testing.T) {
	src := `
int *d;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    d = (int*)RCCE_shmalloc(sizeof(int) * 16);
    int me = RCCE_ue();
    int i;
    for (i = 0; i < 50; i++) d[me] += i;
    RCCE_barrier(&RCCE_COMM_WORLD);
    RCCE_finalize();
    return 0;
}`
	a := run(t, src, DefaultOptions(8))
	b := run(t, src, DefaultOptions(8))
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic: %d vs %d", a.Makespan, b.Makespan)
	}
}

func TestTooManyUEs(t *testing.T) {
	if _, err := tryRun("int main() { return 0; }", DefaultOptions(64)); err == nil {
		t.Error("64 UEs on a 48-core machine should fail")
	}
}

// TestManyToOneMode: thesis §7.2 — more UEs than cores, time-multiplexed.
func TestManyToOneMode(t *testing.T) {
	src := `
int *acc;
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    acc = (int*)RCCE_shmalloc(sizeof(int) * 64);
    int me = RCCE_ue();
    int i;
    for (i = 0; i < 200; i++) acc[me] = acc[me] + 1;
    RCCE_barrier(&RCCE_COMM_WORLD);
    if (me == 0) {
        int k; int sum = 0;
        for (k = 0; k < RCCE_num_ues(); k++) sum += acc[k];
        printf("sum %d\n", sum);
    }
    RCCE_finalize();
    return 0;
}`
	pr, err := interp.Compile("m2o.c", src)
	if err != nil {
		t.Fatal(err)
	}
	// 64 UEs on a 48-core chip: rejected without the flag...
	if _, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), DefaultOptions(64)); err == nil {
		t.Fatal("oversubscription should be rejected by default")
	}
	// ...accepted with it, and still correct.
	pr2, _ := interp.Compile("m2o.c", src)
	opts := DefaultOptions(64)
	opts.AllowOversubscribe = true
	res, err := Run(pr2, sccsim.MustNew(sccsim.DefaultConfig()), opts)
	if err != nil {
		t.Fatalf("many-to-one run: %v", err)
	}
	if res.Output != "sum 12800\n" {
		t.Errorf("output = %q, want sum 12800 (64 UEs x 200)", res.Output)
	}
}

// TestManyToOneSerializes: 8 UEs on 2 cores take roughly 4x the time of
// 8 UEs on 8 cores for the same total work.
func TestManyToOneSerializes(t *testing.T) {
	src := `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    int i; int x = 0;
    for (i = 0; i < 20000; i++) x += i;
    RCCE_finalize();
    return 0;
}`
	run := func(cores []int) sccsim.Time {
		pr, err := interp.Compile("m2o2.c", src)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions(0)
		opts.Cores = cores
		opts.AllowOversubscribe = true
		res, err := Run(pr, sccsim.MustNew(sccsim.DefaultConfig()), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	spread := run([]int{0, 1, 2, 3, 4, 5, 6, 7})
	packed := run([]int{0, 0, 0, 0, 1, 1, 1, 1})
	ratio := float64(packed) / float64(spread)
	if ratio < 3 || ratio > 6 {
		t.Errorf("packed/spread makespan ratio = %.2f, want ~4 (4 UEs per core)", ratio)
	}
}

// TestPowerAPI: the SCC power-management routines (thesis §5.1).
func TestPowerAPI(t *testing.T) {
	res := run(t, `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    if (RCCE_ue() == 0) {
        double before = RCCE_chip_power();
        int rc = RCCE_set_frequency(400);
        double after = RCCE_chip_power();
        printf("dom %d rc %d freq %d drop %d\n",
               RCCE_power_domain(), rc, RCCE_get_frequency(), after < before);
    }
    RCCE_finalize();
    return 0;
}`, DefaultOptions(2))
	if res.Output != "dom 0 rc 0 freq 400 drop 1\n" {
		t.Errorf("output = %q", res.Output)
	}
}

// TestPowerFrequencySlowsDomain: halving a domain's clock roughly doubles
// the compute time of its cores only.
func TestPowerFrequencySlowsDomain(t *testing.T) {
	src := `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    if (RCCE_ue() == 0) { RCCE_set_frequency(MHZ); }
    RCCE_barrier(&RCCE_COMM_WORLD);
    int i; int x = 0;
    for (i = 0; i < 50000; i++) x += i;
    RCCE_finalize();
    return 0;
}`
	fast := run(t, strings.Replace(src, "MHZ", "800", 1), DefaultOptions(2))
	slow := run(t, strings.Replace(src, "MHZ", "400", 1), DefaultOptions(2))
	ratio := float64(slow.Makespan) / float64(fast.Makespan)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("400 MHz / 800 MHz makespan ratio = %.2f, want ~2 (rank 0's domain)", ratio)
	}
	if RCCEInvalidFreqAccepted(t) {
		t.Error("invalid frequency accepted")
	}
}

// RCCEInvalidFreqAccepted checks the error path of RCCE_set_frequency.
func RCCEInvalidFreqAccepted(t *testing.T) bool {
	res := run(t, `
int RCCE_APP(int *argc, char **argv) {
    RCCE_init(argc, argv);
    if (RCCE_ue() == 0) printf("rc %d\n", RCCE_set_frequency(9999));
    RCCE_finalize();
    return 0;
}`, DefaultOptions(1))
	return res.Output != "rc -1\n"
}
