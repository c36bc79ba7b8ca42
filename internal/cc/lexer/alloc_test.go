package lexer_test

import (
	"testing"

	"hsmcc/internal/bench"
	"hsmcc/internal/cc/lexer"
)

// TestTokenizeAllocations bounds what tokenizing one corpus source
// allocates: the lexer, the macro table and one token slice sized from
// the source length — nothing per token. Splicing every token through
// a fresh one-element slice, as macro expansion once did, costs one
// allocation per token (several hundred here).
func TestTokenizeAllocations(t *testing.T) {
	src := bench.KMeans().Source(4, 0.1)
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		toks, err := lexer.TokenizeWithMacros(src)
		if err != nil {
			t.Fatal(err)
		}
		n = len(toks)
	})
	if n < 500 {
		t.Fatalf("corpus source has %d tokens; the bound below means nothing on a small input", n)
	}
	if allocs > 4 {
		t.Errorf("tokenizing %d tokens allocated %.0f times, want at most 4", n, allocs)
	}
}
