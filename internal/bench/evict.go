package bench

// Size-bounded memoization: the admission/eviction half of bench.Cache.
//
// A Cache built with NewCacheSized accounts every admitted entry's
// estimated resident cost (bytes) against one budget, evicting in
// least-recently-used order — whatever stage the entries belong to —
// when an admission would exceed the bound. The map, the LRU list and
// the cost total share the cache's one mutex: a lookup takes it once,
// a computation runs outside it and takes it once more to be admitted.
// Four properties the daemon and its tests rely on:
//
//   - The accounted cost never exceeds the budget: eviction happens
//     inside the admission's critical section, and an entry whose cost
//     alone exceeds the whole budget is computed and returned but never
//     cached (admission control), so one pathological request cannot
//     flush the working set.
//   - Eviction never invalidates an in-flight result. Values are
//     immutable (compiled Programs by design, results by convention)
//     and garbage-collected: eviction only drops the map reference, so
//     a Program handed out before eviction keeps running unaffected.
//   - Errored computations are never cached. A canceled or failed run
//     deletes its entry, so the next request for the same key retries
//     instead of being served a stale context-deadline error.
//   - Panicked computations are captured, not fatal: the compute
//     wrapper converts a panic into a *PanicError, the entry is dropped
//     like any errored compute, and coalesced waiters retry with their
//     own computation rather than inheriting the poison.

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// entry is one key's memoized computation.
type entry struct {
	once sync.Once
	val  any
	err  error
	// Admission state, guarded by the cache's mu: the key and cost the
	// entry was admitted at, and its place on the LRU list (nil until
	// admitted and again once evicted).
	key  key
	cost int64
	elem *list.Element
}

// memo returns the value of k, computing it with f at most once per
// resident entry even under concurrent lookups (a per-key sync.Once; f
// runs outside the cache's lock). A nil cache computes every time — the
// one check, in get, behind every memoized stage.
func memo[V any](c *Cache, k key, f func() (V, error)) (V, error) {
	v, err := c.get(k, func() (any, error) { return f() })
	if err != nil {
		var zero V
		return zero, err
	}
	return v.(V), nil
}

func (c *Cache) get(k key, f func() (any, error)) (any, error) {
	if c == nil {
		return f()
	}
	for {
		v, err, ran := c.getOnce(k, f)
		if err != nil && !ran && (isCancelErr(err) || IsPanic(err)) {
			// We coalesced onto another requester's in-flight computation
			// and inherited ITS failure: a cancellation bound to the
			// config that started the compute (the cancel hook is not
			// ours), or a panic injected into that requester's run. The
			// errored entry has been dropped; retry with our own
			// computation, whose own hooks govern.
			continue
		}
		return v, err
	}
}

// isCancelErr reports whether err is (or wraps) a context cancellation.
func isCancelErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (c *Cache) getOnce(k key, f func() (any, error)) (any, error, bool) {
	c.mu.Lock()
	e, ok := c.m[k]
	if ok {
		c.hits++
		if e.elem != nil {
			c.ll.MoveToFront(e.elem)
		}
	} else {
		e = &entry{}
		c.m[k] = e
		c.computes[k.stage]++
	}
	c.mu.Unlock()
	ran := false
	e.once.Do(func() {
		ran = true
		// A panic inside the compute must not poison the entry: without
		// recovery sync.Once would mark it done with a zero value and a
		// nil error, serving garbage to every later lookup. Capture it
		// as the entry's error so it is dropped for retry.
		defer capturePanic(&e.err)
		e.val, e.err = f()
	})
	if e.err != nil {
		// Errored computations are never cached. Every observer drops,
		// not only the one that ran: a coalesced waiter may get here
		// first, and its retry must not find the errored entry again.
		c.mu.Lock()
		if c.m[k] == e {
			delete(c.m, k)
		}
		c.mu.Unlock()
	} else if ran && c.max > 0 {
		c.admit(k, e)
	}
	return e.val, e.err, ran
}

// admit charges a freshly computed entry against the budget and evicts
// from the cold end until the bound holds again.
func (c *Cache) admit(k key, e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e.key, e.cost = k, max(cost(k, e.val), 1)
	if e.cost > c.max {
		// Admission control: an entry costing more than the whole budget
		// is served but never cached.
		delete(c.m, k)
		return
	}
	e.elem = c.ll.PushFront(e)
	c.cur += e.cost
	for c.cur > c.max {
		// e itself fits the budget, so the loop stops before reaching it.
		v := c.ll.Remove(c.ll.Back()).(*entry)
		v.elem = nil
		c.cur -= v.cost
		c.evictions++
		delete(c.m, v.key)
	}
}
