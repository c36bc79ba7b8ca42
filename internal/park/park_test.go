package park

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// use takes n objects from l, building the ones it misses, and returns
// them with the number of misses.
func use(l *Lot[*int], n int) (held []*int, misses int) {
	for i := 0; i < n; i++ {
		x, ok := l.Take()
		if !ok {
			x = new(int)
			misses++
		}
		held = append(held, x)
	}
	return held, misses
}

func putAll(l *Lot[*int], held []*int) {
	for _, x := range held {
		l.Put(x)
	}
}

// unhooked returns a lot that only the test's own cycle calls trim, so
// a GC during the test cannot move its counts.
func unhooked() *Lot[*int] { return &Lot[*int]{registered: true} }

// TestLotHoldsAtMostPeak: a lot never holds more than the most that
// were in use at once, even when it is handed objects it never gave
// out, and it never misses while demand stays at or under that peak.
func TestLotHoldsAtMostPeak(t *testing.T) {
	l := unhooked()
	held, misses := use(l, 5)
	if misses != 5 {
		t.Fatalf("an empty lot missed %d of 5 takes", misses)
	}
	putAll(l, held)
	if got := l.parked(); got != 5 {
		t.Fatalf("after 5 in use and 5 put back the lot holds %d, want 5", got)
	}
	for i := 0; i < 3; i++ {
		l.Put(new(int)) // never taken from the lot
	}
	if got := l.parked(); got != 5 {
		t.Errorf("the lot holds %d after extra puts, want the peak 5", got)
	}
	for round := 0; round < 20; round++ {
		held, misses := use(l, 1+round%5)
		if misses != 0 {
			t.Fatalf("round %d: %d misses with demand under the peak", round, misses)
		}
		putAll(l, held)
		if got := l.parked(); got > 5 {
			t.Fatalf("round %d: the lot holds %d, more than the peak 5", round, got)
		}
	}
}

// TestLotTrimsIdleCycles: at each GC the lot keeps what the last two
// cycles needed. A busy cycle's objects survive the GC that closes it
// and one idle cycle, and go after the second; a cycle that needed
// fewer shrinks the lot to the larger need of the two.
func TestLotTrimsIdleCycles(t *testing.T) {
	l := unhooked()
	held, _ := use(l, 4)
	putAll(l, held)
	l.cycle() // closes the busy cycle
	if got := l.parked(); got != 4 {
		t.Fatalf("after the busy cycle closed the lot holds %d, want 4", got)
	}
	l.cycle() // first idle cycle: the busy one is still one of the last two
	if got := l.parked(); got != 4 {
		t.Fatalf("after one idle cycle the lot holds %d, want 4", got)
	}
	l.cycle() // second idle cycle
	if got := l.parked(); got != 0 {
		t.Fatalf("after two idle cycles the lot holds %d, want 0", got)
	}

	held, _ = use(l, 4)
	putAll(l, held)
	l.cycle()
	held, misses := use(l, 2)
	if misses != 0 {
		t.Fatalf("%d misses on demand 2 after a cycle that needed 4", misses)
	}
	putAll(l, held)
	l.cycle() // last two cycles needed 4 and 2
	if got := l.parked(); got != 4 {
		t.Fatalf("the lot holds %d, want 4", got)
	}
	held, _ = use(l, 2)
	putAll(l, held)
	l.cycle() // last two cycles needed 2 and 2
	if got := l.parked(); got != 2 {
		t.Fatalf("the lot holds %d, want 2", got)
	}

	// What is in use counts: an object out across a GC is not parked
	// but still needed.
	held, _ = use(l, 2)
	l.cycle()
	l.cycle()
	l.cycle()
	putAll(l, held)
	if got := l.parked(); got != 2 {
		t.Fatalf("two objects in use across three cycles: the lot holds %d after they came back, want 2", got)
	}
}

// TestRealGCTrims: the hook runs on real GC cycles. An idle keyed lot
// is emptied and forgotten after the GCs that close its busy cycle and
// two idle ones.
func TestRealGCTrims(t *testing.T) {
	var ls Lots[string, *int]
	x, _ := ls.Take("k")
	if x == nil {
		x = new(int)
	}
	ls.Put("k", x)
	if got := ls.parked(); got != 1 {
		t.Fatalf("the lot holds %d, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	start := cycles.Load()
	for cycles.Load() < start+3 {
		if time.Now().After(deadline) {
			t.Fatalf("the GC hook closed %d cycles in 10 s of forced GCs", cycles.Load()-start)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	ls.mu.Lock()
	_, kept := ls.lots["k"]
	ls.mu.Unlock()
	if kept {
		t.Errorf("an idle, empty key's lot survived three GC cycles")
	}
}

// TestLotConcurrentNeverMisses: goroutines holding one object each
// never miss once every one of them has been built.
func TestLotConcurrentNeverMisses(t *testing.T) {
	l := unhooked()
	const workers = 8
	held, _ := use(l, workers)
	putAll(l, held)
	var wg sync.WaitGroup
	missed := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < 1000; i++ {
				x, ok := l.Take()
				if !ok {
					n++
					x = new(int)
				}
				*x++
				l.Put(x)
			}
			missed <- n
		}()
	}
	wg.Wait()
	close(missed)
	for n := range missed {
		if n != 0 {
			t.Errorf("a worker missed %d times with %d parked for %d workers", n, workers, workers)
		}
	}
}
