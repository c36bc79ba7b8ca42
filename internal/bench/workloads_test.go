package bench

import (
	"strings"
	"testing"

	"hsmcc/internal/core"
	"hsmcc/internal/interp"
)

// TestWorkloadSourcesValid: every benchmark generator produces a program
// that parses, typechecks and analyses across the parameter grid the
// experiments use (1..48 threads, tiny to full problem sizes).
func TestWorkloadSourcesValid(t *testing.T) {
	threads := []int{1, 3, 8, 32, 48}
	scales := []float64{0.05, 0.5, 1.0}
	for _, w := range All() {
		for _, n := range threads {
			for _, s := range scales {
				src := w.Source(n, s)
				if _, err := interp.Compile(w.Key+".c", src); err != nil {
					t.Errorf("%s threads=%d scale=%.2f: %v", w.Key, n, s, err)
				}
			}
		}
	}
}

// TestWorkloadsAnalyzeShared: Stage 1-3 must find each benchmark's shared
// arrays — the data the whole paper is about.
func TestWorkloadsAnalyzeShared(t *testing.T) {
	wantShared := map[string][]string{
		"pi":     {"psum"},
		"sum35":  {"psum"},
		"primes": {"count"},
		"dot":    {"a", "b", "psum"},
		"stream": {"a", "b", "c"},
		"lu":     {"A", "kk"},
		// Expanded corpus (workloads_extra.go).
		"hist":     {"data", "hist"},
		"kmeans":   {"px", "cent", "csum", "ccnt"},
		"matmul":   {"A", "B", "C"},
		"prodcons": {"buf", "psum", "rr"},
	}
	for _, w := range All() {
		p, err := core.Analyze(w.Key+".c", w.Source(8, 0.05))
		if err != nil {
			t.Fatalf("%s: %v", w.Key, err)
		}
		shared := map[string]bool{}
		for _, v := range p.SharedVars() {
			shared[v.Name] = true
		}
		for _, name := range wantShared[w.Key] {
			if !shared[name] {
				t.Errorf("%s: %s not detected as shared (got %v)", w.Key, name, shared)
			}
		}
	}
}

// TestWorkloadChunksCoverRange: the generated block distribution covers
// the whole problem exactly once (chunk * threads == N in the source).
func TestWorkloadChunksCoverRange(t *testing.T) {
	for _, w := range All() {
		src := w.Source(7, 0.3) // awkward thread count on purpose
		if !strings.Contains(src, "pthread_create") {
			t.Errorf("%s: no launches generated", w.Key)
		}
		if strings.Contains(src, "%!") {
			t.Errorf("%s: Sprintf verb error in generator:\n%s", w.Key, src)
		}
	}
}

// TestScaledHelper pins the size-rounding rules.
func TestScaledHelper(t *testing.T) {
	if got := scaled(100, 1.0, 8); got != 96 {
		t.Errorf("scaled(100,1,8) = %d, want 96 (rounded to granule)", got)
	}
	if got := scaled(100, 0.001, 8); got != 8 {
		t.Errorf("scaled tiny = %d, want the granule floor 8", got)
	}
}
