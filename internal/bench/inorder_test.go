package bench

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// TestInOrder pins the pool's contract at every worker count, including
// the GOMAXPROCS default and more workers than items: each do(i) and
// each done(i) runs exactly once, done(i) runs only after do(0..i) have
// returned, done calls never overlap and see 0, 1, 2, ... in order, and
// InOrder returns only after the last done.
func TestInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 17} {
		for _, workers := range []int{-1, 1, 3, n + 5} {
			delays := make([]time.Duration, n)
			for i := range delays {
				delays[i] = time.Duration(rng.Intn(2000)) * time.Microsecond
			}
			did := make([]atomic.Int32, n)
			var inDone atomic.Int32
			var seen []int
			InOrder(n, workers, func(i int) {
				time.Sleep(delays[i])
				did[i].Add(1)
			}, func(i int) {
				if inDone.Add(1) != 1 {
					t.Errorf("n=%d workers=%d: done(%d) overlaps another done", n, workers, i)
				}
				for j := 0; j <= i; j++ {
					if did[j].Load() != 1 {
						t.Errorf("n=%d workers=%d: done(%d) before do(%d) returned", n, workers, i, j)
					}
				}
				seen = append(seen, i)
				inDone.Add(-1)
			})
			if len(seen) != n {
				t.Fatalf("n=%d workers=%d: InOrder returned after %d of %d done calls", n, workers, len(seen), n)
			}
			for i, got := range seen {
				if got != i {
					t.Fatalf("n=%d workers=%d: done order %v", n, workers, seen)
				}
			}
			for i := range did {
				if c := did[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: do(%d) ran %d times", n, workers, i, c)
				}
			}

			ran := make([]atomic.Int32, n)
			InOrder(n, workers, func(i int) { ran[i].Add(1) }, nil)
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d, nil done: do(%d) ran %d times", n, workers, i, c)
				}
			}
		}
	}
}
