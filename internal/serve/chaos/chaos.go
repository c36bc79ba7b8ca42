// Package chaos is the daemon's seeded fault-injection plane. An
// Injector implements the bench.Hooks.Fault hook: threaded through
// serve.Options.Fault it fires at the named compute stages ("compile",
// "translate", "baseline", "simulate", "profile") inside the memoized
// closures, deterministically injecting compute panics, delays and
// spurious cancellations from one seeded stream. Because the faults
// land inside the cache's compute path, they exercise the exact
// discipline the robustness layer promises: panicked and canceled
// computations are dropped (never cached, never poisoning coalesced
// waiters), handlers answer clean 500/504 envelopes, and the process
// survives.
//
// Every injected failure is tagged with the "chaos:" marker, which is
// how the load-test harness's retrying client distinguishes an
// injected fault (retry) from a genuine server bug (divergence).
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Plan parameterises one seeded fault-injection run. Rates are
// per-stage-visit probabilities; they are rolled once per visit in
// order panic, delay, cancel from a single seeded stream, so a given
// (seed, visit sequence) is reproducible.
type Plan struct {
	// Seed drives every roll; same seed + same visit order = same
	// faults.
	Seed int64 `json:"seed"`
	// PanicRate is the probability a visit panics (recovered by the
	// serving stack into a 500).
	PanicRate float64 `json:"panic_rate"`
	// DelayRate is the probability a visit sleeps (up to MaxDelay) —
	// the jitter that shakes out ordering assumptions under -race.
	DelayRate float64 `json:"delay_rate"`
	// CancelRate is the probability a visit fails with an injected
	// cancellation (wrapping context.Canceled, so it travels the 504 /
	// drop-from-cache path).
	CancelRate float64 `json:"cancel_rate"`
	// MaxDelay bounds an injected delay (default 2ms).
	MaxDelay time.Duration `json:"max_delay_ns"`
	// Stages, when non-nil, restricts injection to the named stages.
	Stages map[string]bool `json:"stages,omitempty"`
}

// DefaultPlan is the stock mixed-fault plan for the chaos selftest.
func DefaultPlan(seed int64) Plan {
	return Plan{
		Seed:       seed,
		PanicRate:  0.05,
		DelayRate:  0.08,
		CancelRate: 0.05,
		MaxDelay:   2 * time.Millisecond,
	}
}

// Stats counts what an Injector actually did.
type Stats struct {
	// Visits counts Fault calls that were eligible for injection.
	Visits int64 `json:"visits"`
	// Panics/Delays/Cancels count injected faults by kind.
	Panics  int64 `json:"panics"`
	Delays  int64 `json:"delays"`
	Cancels int64 `json:"cancels"`
}

// Injected is the total fault count across kinds.
func (s Stats) Injected() int64 { return s.Panics + s.Delays + s.Cancels }

// Injector is a concurrency-safe fault source for one Plan.
type Injector struct {
	mu    sync.Mutex
	plan  Plan
	rng   *rand.Rand
	stats Stats
}

// New builds an Injector for plan.
func New(plan Plan) *Injector {
	if plan.MaxDelay <= 0 {
		plan.MaxDelay = 2 * time.Millisecond
	}
	return &Injector{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Fault is the bench.Hooks.Fault hook: called at each compute stage,
// it returns nil (no fault, possibly after an injected delay), returns
// an injected cancellation, or panics. The roll and counters happen
// under the injector lock; the panic and the sleep happen outside it.
func (in *Injector) Fault(stage string) error {
	in.mu.Lock()
	if in.plan.Stages != nil && !in.plan.Stages[stage] {
		in.mu.Unlock()
		return nil
	}
	in.stats.Visits++
	roll := in.rng.Float64()
	p := &in.plan
	var delay time.Duration
	const (
		actNone = iota
		actPanic
		actDelay
		actCancel
	)
	act := actNone
	switch {
	case roll < p.PanicRate:
		act = actPanic
		in.stats.Panics++
	case roll < p.PanicRate+p.DelayRate:
		act = actDelay
		in.stats.Delays++
		delay = time.Duration(in.rng.Int63n(int64(p.MaxDelay)) + 1)
	case roll < p.PanicRate+p.DelayRate+p.CancelRate:
		act = actCancel
		in.stats.Cancels++
	}
	in.mu.Unlock()
	switch act {
	case actPanic:
		panic(fmt.Sprintf("chaos: injected panic at %s", stage))
	case actDelay:
		time.Sleep(delay)
	case actCancel:
		return fmt.Errorf("chaos: injected cancellation at %s: %w", stage, context.Canceled)
	}
	return nil
}

// Stats snapshots the injection counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
