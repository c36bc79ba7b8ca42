package bench

// Panic isolation: a panic inside a memoized computation or a harness
// stage must cost exactly one request, not the process. Recovery sites
// (the memo compute wrapper in evict.go, the grid worker in
// grid.go) convert the panic into a *PanicError, which travels the
// ordinary error path: the serving layer answers 500 with the error
// envelope, and the cache layer drops the entry so coalesced waiters
// retry with their own computation instead of inheriting the poison.

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// PanicError is a recovered panic carried as an ordinary error.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery site (kept
	// off Error() so HTTP envelopes stay small; diagnostics can reach
	// for it explicitly).
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// IsPanic reports whether err is (or wraps) a recovered panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// capturePanic converts an in-flight panic into a *PanicError stored in
// *errp. Use as `defer capturePanic(&err)` at a recovery boundary.
func capturePanic(errp *error) {
	if v := recover(); v != nil {
		*errp = &PanicError{Value: v, Stack: debug.Stack()}
	}
}
