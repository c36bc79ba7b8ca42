package hsmcc

import (
	"strings"
	"testing"
)

const facadeProgram = `
int results[4];
void *tf(void *tid) {
    int me = (int)tid;
    results[me] = me * 10;
    pthread_exit(NULL);
}
int main() {
    pthread_t th[4];
    int t;
    for (t = 0; t < 4; t++) pthread_create(&th[t], NULL, tf, (void*)t);
    for (t = 0; t < 4; t++) pthread_join(th[t], NULL);
    int sum = 0;
    for (t = 0; t < 4; t++) sum += results[t];
    printf("sum %d\n", sum);
    return 0;
}`

func TestTranslateAndRunRoundTrip(t *testing.T) {
	res, err := Translate("facade.c", facadeProgram, Options{Cores: 4})
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	if !strings.Contains(res.Output, "RCCE_APP") {
		t.Fatalf("no RCCE_APP in output:\n%s", res.Output)
	}
	base, err := RunPthread("facade.c", facadeProgram)
	if err != nil {
		t.Fatalf("RunPthread: %v", err)
	}
	conv, err := RunRCCE("facade_rcce.c", res.Output, 4)
	if err != nil {
		t.Fatalf("RunRCCE: %v", err)
	}
	if !strings.Contains(base.Output, "sum 60") {
		t.Errorf("baseline output = %q, want sum 60", base.Output)
	}
	if !strings.Contains(conv.Output, "sum 60") {
		t.Errorf("rcce output = %q, want sum 60", conv.Output)
	}
	if base.Seconds <= 0 || conv.Seconds <= 0 {
		t.Error("both runs must take simulated time")
	}
}

func TestAnalyzeExposesTables(t *testing.T) {
	res, err := Analyze("facade.c", facadeProgram, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !strings.Contains(res.Table41(), "results") {
		t.Error("Table41 should list the shared array")
	}
	if !strings.Contains(res.Table42(), "Stage 3") {
		t.Error("Table42 should show the stage trajectory")
	}
	if res.Output != "" {
		t.Error("Analyze must not translate")
	}
}

func TestTranslatePolicies(t *testing.T) {
	off, err := Translate("f.c", facadeProgram, Options{Cores: 4, Policy: OffChipOnly})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(off.Output, "RCCE_shmalloc") || strings.Contains(off.Output, "RCCE_mpbmalloc") {
		t.Error("OffChipOnly must allocate with RCCE_shmalloc only")
	}
	on, err := Translate("f.c", facadeProgram, Options{Cores: 4, Policy: SizeAscending})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(on.Output, "RCCE_mpbmalloc") {
		t.Error("SizeAscending with ample MPB must allocate on-chip")
	}
}

// TestTranslateFullMPBByDefault: a zero budget is the SCC's whole
// 384 KB MPB (8 KB per core across 48 cores, thesis §5.1).
func TestTranslateFullMPBByDefault(t *testing.T) {
	res, err := Translate("f.c", facadeProgram, Options{MPBCapacity: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Part.Capacity != 393216 {
		t.Errorf("default MPB capacity = %d, want 393216", res.Part.Capacity)
	}
}

func TestErrorPaths(t *testing.T) {
	if _, err := Translate("bad.c", "int main( {", Options{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := RunRCCE("x.c", "int main() { return 0; }", 0); err == nil {
		t.Error("zero cores not rejected")
	}
	if _, err := TranslateFile("/nonexistent/file.c", Options{}); err == nil {
		t.Error("missing file not reported")
	}
}
