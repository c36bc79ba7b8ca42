// Package park keeps idle objects for reuse. It replaces sync.Pool where
// a miss is expensive: rebuilding a parked machine storage or simulation
// session costs megabytes, and sync.Pool misses by design (a Put into
// one P's private slot cannot be taken from another P, and two GC cycles
// empty it).
//
// A Lot is a mutex-guarded free list that counts what is in use — taken
// and not yet put back — and sizes itself by that count:
//
//   - it never misses while demand holds: a Take finds a parked object
//     whenever no more are in use at once than in the last two GC
//     cycles;
//   - it never holds more than the peak number in use at once: a Put
//     that would take in-use plus parked past that peak drops its
//     object;
//   - at each GC it keeps only what the last two cycles needed: the
//     free list is cut to the larger of the two cycles' peaks, less
//     what is in use now. Memory idle for two whole cycles goes, as
//     sync.Pool's victim cache lets it.
//
// An object taken and never put back counts as in use for good; that
// only shifts the peak it is measured against.
package park

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Lot is a free list of idle T's. The zero Lot is empty and ready.
type Lot[T any] struct {
	mu    sync.Mutex
	free  []T
	inUse int
	// peak is the most in use at once since the last GC, prev the same
	// for the cycle before.
	peak, prev int
	// registered records that the GC hook trims this lot (a keyed
	// lot's Lots trims its members instead).
	registered bool
}

// Take returns a parked object and true, or the zero T and false when
// none is parked; either way the caller now has one more in use.
func (l *Lot[T]) Take() (x T, ok bool) {
	l.mu.Lock()
	if !l.registered {
		l.registered = true
		register(l)
	}
	l.inUse++
	l.peak = max(l.peak, l.inUse)
	if n := len(l.free); n > 0 {
		x, ok = l.free[n-1], true
		var zero T
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return x, ok
}

// Put parks x, which its caller no longer uses, for a later Take.
func (l *Lot[T]) Put(x T) {
	l.mu.Lock()
	if l.inUse > 0 {
		l.inUse--
	}
	if len(l.free)+l.inUse < max(l.peak, l.prev) {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// parked reports how many objects the lot holds.
func (l *Lot[T]) parked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

// cycle closes a GC cycle on a lot the GC hook trims directly.
func (l *Lot[T]) cycle() { l.trim() }

// hold takes the lot's free list out of reach and returns what puts it
// back.
func (l *Lot[T]) hold() (restore func()) {
	l.mu.Lock()
	held := l.free
	l.free = nil
	l.mu.Unlock()
	return func() {
		l.mu.Lock()
		l.free = append(l.free, held...)
		l.mu.Unlock()
	}
}

// trim closes a GC cycle: the free list keeps the most recently parked
// objects up to what the last two cycles needed. It reports whether the
// lot is now idle and empty.
func (l *Lot[T]) trim() (idle bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := max(l.peak, l.prev, l.inUse) - l.inUse
	if n := len(l.free); n > keep {
		drop := n - keep
		copy(l.free, l.free[drop:])
		clear(l.free[keep:])
		l.free = l.free[:keep]
		if keep == 0 {
			l.free = nil
		}
	}
	l.prev, l.peak = l.peak, l.inUse
	return l.inUse == 0 && l.prev == 0 && len(l.free) == 0
}

// Lots is one Lot per key. The zero Lots is ready. A key's lot is
// forgotten once it is idle and empty, so keys no longer in use cost
// nothing.
type Lots[K comparable, T any] struct {
	mu   sync.Mutex
	lots map[K]*Lot[T]
}

// of returns k's lot; ls.mu must be held.
func (ls *Lots[K, T]) of(k K) *Lot[T] {
	if ls.lots == nil {
		ls.lots = make(map[K]*Lot[T])
		register(ls)
	}
	l := ls.lots[k]
	if l == nil {
		l = &Lot[T]{registered: true}
		ls.lots[k] = l
	}
	return l
}

// Take is k's Lot.Take.
func (ls *Lots[K, T]) Take(k K) (T, bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.of(k).Take()
}

// Put is k's Lot.Put.
func (ls *Lots[K, T]) Put(k K, x T) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.of(k).Put(x)
}

func (ls *Lots[K, T]) parked() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	n := 0
	for _, l := range ls.lots {
		n += l.parked()
	}
	return n
}

func (ls *Lots[K, T]) hold() (restore func()) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	var undo []func()
	for k, l := range ls.lots {
		undo = append(undo, func() {
			ls.mu.Lock()
			defer ls.mu.Unlock()
			// GC may have forgotten the key's lot meanwhile.
			if ls.lots[k] == nil {
				ls.lots[k] = l
			}
		}, l.hold())
	}
	return func() {
		for _, f := range undo {
			f()
		}
	}
}

// cycle closes a GC cycle for every key's lot.
func (ls *Lots[K, T]) cycle() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for k, l := range ls.lots {
		if l.trim() {
			delete(ls.lots, k)
		}
	}
}

// cycler is what the GC hook trims, Parked counts and Hold holds.
type cycler interface {
	cycle()
	parked() int
	hold() (restore func())
}

// registered returns every lot and keyed lot in use so far.
func registered() []cycler {
	registry.Lock()
	defer registry.Unlock()
	return registry.all
}

// Parked reports how many objects all lots hold together.
func Parked() int {
	n := 0
	for _, c := range registered() {
		n += c.parked()
	}
	return n
}

// Hold takes everything every lot holds out of reach until restore puts
// it back, so that whatever runs in between builds afresh. It is for
// tests that compare a never-used object with a released one.
func Hold() (restore func()) {
	var undo []func()
	for _, c := range registered() {
		undo = append(undo, c.hold())
	}
	return func() {
		for _, f := range undo {
			f()
		}
	}
}

var (
	registry struct {
		sync.Mutex
		all []cycler
	}
	// cycles counts the GC cycles the hook has closed.
	cycles atomic.Int64
)

func register(c cycler) {
	registry.Lock()
	registry.all = append(registry.all, c)
	registry.Unlock()
}

// gcSentinel is allocated and dropped once per GC cycle; its cleanup is
// the hook. It holds a pointer so that it is never a tiny allocation,
// whose cleanup might not run.
type gcSentinel struct{ _ *byte }

func init() { arm() }

// arm drops a fresh sentinel whose cleanup, run once the next GC finds
// it unreachable, closes the cycle on every lot and arms again.
func arm() {
	runtime.AddCleanup(new(gcSentinel), func(struct{}) {
		closeCycle()
		arm()
	}, struct{}{})
}

func closeCycle() {
	for _, c := range registered() {
		c.cycle()
	}
	cycles.Add(1)
}
