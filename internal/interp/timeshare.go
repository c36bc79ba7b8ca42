package interp

import (
	"slices"

	"hsmcc/internal/sccsim"
)

// TimeShare time-shares cores: every thread on one core for the Pthread
// baseline (thesis Chapter 6), several UEs per core for RCCE's
// many-to-one mode (thesis §7.2). A core's occupant keeps it while its
// quantum lasts; then the core rotates by context ID to the next
// runnable context on it, wrapping around. A new occupant starts no
// earlier than the core is free and is charged the switch cycles and,
// if asked, an L1 flush. Across cores the candidate with the earliest
// effective start runs, ties going to the lower ID.
//
// A core's free time is folded from the clock of each context elected
// there, and rotation reads IDs, so when the session compacts its scan
// list changes nothing. Like the min-clock heap it must see every
// spawn, so it is installed before the first. Reset configures it.
type TimeShare struct {
	quantumCycles, switchCycles int
	flushL1                     bool

	// cores is each core's state by core; active lists the cores in use.
	cores  []coreShare
	active []int
	// last is the context Next elected last.
	last     *Proc
	switches uint64
}

// coreShare is one core's state.
type coreShare struct {
	// occ is the context the core ran last; its quantum began at start.
	occ   *Proc
	start sccsim.Time
	// free is the latest clock of a context elected on the core.
	free sccsim.Time
	used bool
	// next (the first runnable context after occ by ID) and first (the
	// first runnable one) are one Next call's scan.
	next, first *Proc
}

// Reset empties t for a session with the given quantum and switch cost
// in core cycles, flushing the L1 on a switch when flushL1 is set. It
// keeps the tables' capacity, so a runtime parks t with its own tables.
func (t *TimeShare) Reset(quantumCycles, switchCycles int, flushL1 bool) {
	clear(t.cores[:cap(t.cores)])
	clear(t.active[:cap(t.active)])
	*t = TimeShare{quantumCycles: quantumCycles, switchCycles: switchCycles, flushL1: flushL1,
		cores: t.cores[:0], active: t.active[:0]}
}

// Switches reports how many times a core changed occupant, the first
// occupant of each core included.
func (t *TimeShare) Switches() uint64 { return t.switches }

// NoteRunnable implements runnableNotifier: a core's first context puts
// it in use.
func (t *TimeShare) NoteRunnable(p *Proc) {
	if p.Core >= len(t.cores) {
		t.cores = slices.Grow(t.cores, p.Core+1-len(t.cores))[:p.Core+1]
	}
	if c := &t.cores[p.Core]; !c.used {
		c.used = true
		t.active = append(t.active, p.Core)
	}
}

// inQuantum reports whether c's occupant is runnable and inside its
// quantum at the core's current period.
func (t *TimeShare) inQuantum(c *coreShare) bool {
	p := c.occ
	return p != nil && p.State == Runnable &&
		p.Clock-c.start < sccsim.Time(t.quantumCycles)*p.timer.Period
}

// Next implements Policy.
func (t *TimeShare) Next(procs []*Proc) *Proc {
	if l := t.last; l != nil {
		c := &t.cores[l.Core]
		c.free = max(c.free, l.Clock)
		// One core: its occupant inside its quantum runs on, unscanned.
		if len(t.active) == 1 && t.inQuantum(c) {
			return l
		}
	}
	for _, i := range t.active {
		t.cores[i].next, t.cores[i].first = nil, nil
	}
	for _, p := range procs { // in ID order
		if p.State != Runnable {
			continue
		}
		c := &t.cores[p.Core]
		if c.first == nil {
			c.first = p
		}
		if c.next == nil && c.occ != nil && p.ID > c.occ.ID {
			c.next = p
		}
	}
	var best *Proc
	var bestEff sccsim.Time
	for _, i := range t.active {
		c := &t.cores[i]
		p := c.next
		if t.inQuantum(c) {
			p = c.occ
		} else if p == nil {
			p = c.first
		}
		if p == nil {
			continue
		}
		if eff := max(p.Clock, c.free); best == nil || eff < bestEff || (eff == bestEff && p.ID < best.ID) {
			best, bestEff = p, eff
		}
	}
	t.last = best
	if best == nil || t.inQuantum(&t.cores[best.Core]) {
		return best
	}
	c := &t.cores[best.Core]
	best.Clock = bestEff
	if best != c.occ {
		t.switches++
		best.Clock += best.mach.ComputeTime(best.Core, t.switchCycles)
		if t.flushL1 {
			best.Clock += best.mach.FlushL1(best.Core)
		}
		c.occ = best
	}
	c.start = best.Clock
	return best
}
