package parser

import (
	"os"
	"testing"

	"hsmcc/internal/cc/token"
)

// TestParseReusesTokenSlice pins the steady state of the token buffer:
// Parse lexes into the slice the previous Parse parked, so it allocates
// no token slice of its own, and the parked slice holds no token (and so
// no reference to an old source).
func TestParseReusesTokenSlice(t *testing.T) {
	b, err := os.ReadFile("../../../testdata/example41.c")
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	if _, err := Parse("example41.c", src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		buf, ok := tokenBufs.Take()
		if !ok || cap(buf) < len(src)/2 {
			t.Fatalf("after a parse the parked token slice is %v with capacity %d, want one with room for %d tokens", ok, cap(buf), len(src)/2)
		}
		for j, tk := range buf[:cap(buf)] {
			if tk != (token.Token{}) {
				t.Fatalf("parked slice holds token %d, %v", j, tk)
			}
		}
		parked := &buf[:1][0]
		tokenBufs.Put(buf)
		if _, err := Parse("example41.c", src); err != nil {
			t.Fatal(err)
		}
		again, _ := tokenBufs.Take()
		if len(again) != 0 || cap(again) == 0 || &again[:1][0] != parked {
			t.Errorf("parse %d lexed into a new token slice instead of the parked one", i+2)
		}
		tokenBufs.Put(again)
	}
}
