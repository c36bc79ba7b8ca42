package interp_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/interp"
	"hsmcc/internal/synth"
)

// TestCorpusInnerLoopsFuse: the lowering census over the ten corpus
// workloads and the four MemFrac×Sharing corners of internal/synth (int
// and double) must find every fused shape of fuse.go at least once, and
// must find no statement, condition or post of an innermost loop of pi,
// sum35, primes, kmeans, stream or dot left wholly generic — so a later
// AST or sema change cannot silently send the corpus down the
// fall-through.
func TestCorpusInnerLoopsFuse(t *testing.T) {
	sources := map[string]string{}
	for _, w := range bench.All() {
		sources[w.Key] = w.Source(4, 0.05)
	}
	for _, p := range synth.Corners() {
		for _, p.Double = range []bool{false, true} {
			sources[p.Key()] = p.Scaled(0.05).Source(4)
		}
	}
	if len(sources) != 10+8 {
		t.Fatalf("census over %d programs, want the 10 corpus workloads and 8 synth corners", len(sources))
	}
	total := map[string]int{}
	for key, src := range sources {
		pr, err := interp.Compile(key+".c", src)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		cs := interp.LoweringCensus(pr)
		for shape, n := range cs.Sites {
			total[shape] += n
		}
		switch key {
		case "pi", "sum35", "primes", "kmeans", "stream", "dot":
			for _, g := range cs.Generic {
				t.Errorf("%s: innermost-loop site left wholly generic: %s", key, g)
			}
		default:
			for _, g := range cs.Generic {
				t.Logf("%s: (not asserted) wholly generic in an innermost loop: %s", key, g)
			}
		}
	}
	want := []string{
		"bin slot∘const", "bin slot∘slot", "bin slot∘raw", "bin raw∘const", "bin raw∘raw",
		"div/mod by literal", "cast slot∘const", "cast raw∘const", "compare-and-branch", "logic",
		"step slot", "store slot", "update slot", "store lvalue", "update lvalue",
		"index global[slot]", "index global[raw]", "index base[slot]",
	}
	for _, shape := range want {
		if total[shape] == 0 {
			t.Errorf("no site of the corpus lowers to shape %q", shape)
		}
	}
	var lines []string
	for shape, n := range total {
		lines = append(lines, fmt.Sprintf("%-20s %d", shape, n))
	}
	sort.Strings(lines)
	t.Logf("census (shape, sites):\n%s", strings.Join(lines, "\n"))
}
