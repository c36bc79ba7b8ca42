package core

import (
	"os"
	"strings"
	"testing"

	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/partition"
	"hsmcc/internal/sccsim"
)

func example41(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/example41.c")
	if err != nil {
		t.Fatalf("read example41.c: %v", err)
	}
	return string(src)
}

// run chains the five stages: Stage 4 decides under policy at the SCC's
// full MPB, and Stage 5 translates that decision.
func run(name, src string, policy partition.Policy) (*Pipeline, error) {
	p, err := Analyze(name, src)
	if err != nil {
		return nil, err
	}
	part, err := partition.Decide(p.SharedVars(), policy, sccsim.DefaultConfig().MPBTotal(), nil)
	if err != nil {
		return nil, err
	}
	return p.Translate(part)
}

func analyze41(t *testing.T) *Pipeline {
	t.Helper()
	p, err := Analyze("example41.c", example41(t))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p
}

// TestTable41 checks the Stage 1-3 per-variable facts against thesis
// Table 4.1. Two cells deviate by documented counting-rule corrections
// (DESIGN.md §5): sum.Rd is 3 (the thesis misses the printf read) and
// rc.Wr is 1 (statically one assignment).
func TestTable41(t *testing.T) {
	p := analyze41(t)
	want := []struct {
		name         string
		typ          string
		count        int
		rd, wr       int
		useIn, defIn string
	}{
		{"global", "int", 1, 0, 0, "null", "null"},
		{"ptr", "int*", 1, 1, 1, "tf", "main"},
		{"sum", "int*", 3, 3, 2, "tf, main", "tf"},
		{"tLocal", "int", 1, 3, 1, "tf", "tf"},
		{"tid", "void*", 1, 1, 0, "tf", "null"},
		// local.Wr is 5, not the thesis's 4: `int local = 0`, two
		// identical `local = 0` for-initialisers and two `local++`
		// make five static stores; the thesis appears to count one
		// for-initialiser once (DESIGN.md §5).
		{"local", "int", 1, 8, 5, "main", "main"},
		{"tmp", "int", 1, 1, 1, "main", "main"},
		{"threads", "pthread_t*", 3, 2, 0, "main", "main"},
		{"rc", "int", 1, 0, 1, "null", "main"},
	}
	for _, w := range want {
		v := p.Scope.Lookup(w.name)
		if v == nil {
			t.Errorf("variable %s not found", w.name)
			continue
		}
		if got := typeColumn(v); got != w.typ {
			t.Errorf("%s: type = %s, want %s", w.name, got, w.typ)
		}
		if v.Count != w.count {
			t.Errorf("%s: count = %d, want %d", w.name, v.Count, w.count)
		}
		if v.Reads != w.rd {
			t.Errorf("%s: reads = %d, want %d", w.name, v.Reads, w.rd)
		}
		if v.Writes != w.wr {
			t.Errorf("%s: writes = %d, want %d", w.name, v.Writes, w.wr)
		}
		if got := orNull(strings.Join(v.UseIn, ", ")); got != w.useIn {
			t.Errorf("%s: use-in = %q, want %q", w.name, got, w.useIn)
		}
		if got := orNull(strings.Join(v.DefIn, ", ")); got != w.defIn {
			t.Errorf("%s: def-in = %q, want %q", w.name, got, w.defIn)
		}
	}
}

// TestTable42 checks the sharing-status trajectory against thesis
// Table 4.2 exactly.
func TestTable42(t *testing.T) {
	p := analyze41(t)
	want := []struct {
		name                   string
		stage1, stage2, stage3 scope.Status
	}{
		{"global", scope.Shared, scope.Shared, scope.Private},
		{"ptr", scope.Shared, scope.Shared, scope.Shared},
		{"sum", scope.Shared, scope.Shared, scope.Shared},
		{"tLocal", scope.Unknown, scope.Private, scope.Private},
		{"tid", scope.Unknown, scope.Private, scope.Private},
		{"local", scope.Unknown, scope.Private, scope.Private},
		{"tmp", scope.Unknown, scope.Private, scope.Shared},
		{"threads", scope.Unknown, scope.Private, scope.Private},
		{"rc", scope.Unknown, scope.Private, scope.Private},
	}
	for _, w := range want {
		v := p.Scope.Lookup(w.name)
		if v == nil {
			t.Errorf("variable %s not found", w.name)
			continue
		}
		if v.Stage1 != w.stage1 || v.Stage2 != w.stage2 || v.Stage3 != w.stage3 {
			t.Errorf("%s: stages = %s/%s/%s, want %s/%s/%s",
				w.name, v.Stage1, v.Stage2, v.Stage3, w.stage1, w.stage2, w.stage3)
		}
	}
}

// TestTranslateExample41 checks the translated program against the load-
// bearing features of thesis Example Code 4.2.
func TestTranslateExample41(t *testing.T) {
	p, err := run("example41.c", example41(t), partition.PolicyOffChipOnly)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := p.Output
	for _, want := range []string{
		`#include "RCCE.h"`,
		"RCCE_APP",
		"RCCE_init(&argc, &argv)",
		"RCCE_shmalloc",
		"myID = RCCE_ue()",
		"tf((void *)(myID))",
		"RCCE_barrier(&RCCE_COMM_WORLD)",
		"printf(\"Sum Array: %d\\n\", sum[myID])",
		"RCCE_finalize()",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("translated output missing %q\n---\n%s", want, out)
		}
	}
	for _, banned := range []string{"pthread_create", "pthread_join", "pthread_exit", "pthread_t", "<pthread.h>"} {
		if strings.Contains(out, banned) {
			t.Errorf("translated output still contains %q\n---\n%s", banned, out)
		}
	}
	// Both shared globals (sum array + ptr pointee) get explicit
	// allocations; the dead global `global` must not.
	if n := strings.Count(out, "RCCE_shmalloc"); n != 2 {
		t.Errorf("RCCE_shmalloc count = %d, want 2\n---\n%s", n, out)
	}
	// The dead global `global` is demoted to private after Stage 3: its
	// declaration survives (each process keeps a private copy) but it
	// must not receive a shared allocation.
	if strings.Contains(out, "global = ") {
		t.Errorf("dead global should not be allocated\n---\n%s", out)
	}
}

// TestTableRendering exercises the text renderers used by cmd/hsmbench.
func TestTableRendering(t *testing.T) {
	p := analyze41(t)
	t41 := p.Table41()
	for _, col := range []string{"Name", "Rd", "Wr", "ptr", "threads"} {
		if !strings.Contains(t41, col) {
			t.Errorf("Table41 missing %q:\n%s", col, t41)
		}
	}
	t42 := p.Table42()
	for _, col := range []string{"Stage 1", "Stage 2", "Stage 3", "tmp"} {
		if !strings.Contains(t42, col) {
			t.Errorf("Table42 missing %q:\n%s", col, t42)
		}
	}
}

// TestRunNoMain checks the error path for a program without main.
func TestRunNoMain(t *testing.T) {
	if _, err := run("x.c", "int f() { return 0; }", partition.PolicySizeAscending); err == nil {
		t.Fatal("expected error for program without main")
	}
}

// TestAnalyzeParseError propagates lexer/parser failures.
func TestAnalyzeParseError(t *testing.T) {
	if _, err := Analyze("bad.c", "int main( {"); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestMPBPartitioningAppliesOnChipAlloc checks Stage 4 -> Stage 5 wiring:
// with ample on-chip capacity the shared data is allocated via
// RCCE_mpbmalloc instead of RCCE_shmalloc.
func TestMPBPartitioningAppliesOnChipAlloc(t *testing.T) {
	p, err := run("example41.c", example41(t), partition.PolicySizeAscending)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(p.Output, "RCCE_mpbmalloc") {
		t.Errorf("expected on-chip allocations with default capacity\n---\n%s", p.Output)
	}
	if strings.Contains(p.Output, "RCCE_shmalloc") {
		t.Errorf("small shared set should fit entirely on-chip\n---\n%s", p.Output)
	}
}
