package interp

import "hsmcc/internal/sccsim"

// scheduler is a session's one scheduling policy: it time-shares cores.
// The Pthread baseline runs every thread on one core (thesis Chapter
// 6), RCCE's many-to-one mode several UEs per core (thesis §7.2), and a
// one-to-one RCCE run one context per core, which is the session's
// default: no switch cost, no flush. A core's occupant keeps it while
// its quantum lasts, measured at the core's current period; then the
// core rotates by context ID to the next runnable context on it,
// wrapping around. A new occupant starts no earlier than the core is
// free and is charged the switch cycles and, if asked, an L1 flush.
// Across cores the candidate with the earliest effective start runs,
// ties going to the lower ID.
//
// It is indexed. A core's candidate depends only on that core: its
// contexts, its occupant, its free time and its period. Each core lists
// its contexts in ID order (spawn order) and caches its candidate; a
// lazy min-heap holds one entry per cached candidate, keyed on
// (effective start, ID). A core is refreshed at the next decision after
// one of its contexts is spawned or unblocked, after its period
// changes, and after it ran the last elected context, which covers
// every yield, block and exit. Per-core rotation stays a scan of the
// core's list, which drops finished contexts as it passes them.
type scheduler struct {
	quantumCycles, switchCycles int
	flushL1                     bool

	// cores is each core's state by core.
	cores []coreShare
	// heap holds the cached candidates; an entry that no longer matches
	// its core's is stale and discarded when it reaches the top.
	heap []entry
	// dirty lists the cores to refresh at the next decision.
	dirty []int
	// last is the context the last decision elected.
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
	// procs is the core's contexts in ID order; finished ones are
	// dropped by the next rotation scan.
	procs []*Proc
	// cand is the cached candidate, to start at eff; nil when the core
	// has none queued (none runnable, or elected since).
	cand  *Proc
	eff   sccsim.Time
	dirty bool
}

// entry is a heap entry: core's candidate id, to start at eff.
type entry struct {
	eff      sccsim.Time
	id, core int32
}

// TimeShare sets how the session time-shares its cores: a quantum and a
// switch cost in core cycles, and whether a change of occupant flushes
// the core's L1. NewSim's default is the one-to-one case, 0, 0, false.
// Call it before Run.
func (s *Sim) TimeShare(quantumCycles, switchCycles int, flushL1 bool) {
	s.sched.quantumCycles, s.sched.switchCycles, s.sched.flushL1 = quantumCycles, switchCycles, flushL1
}

// Switches reports how many times a core changed occupant, the first
// occupant of each core included.
func (s *Sim) Switches() uint64 { return s.sched.switches }

// SetDomainMHz changes the clock of a voltage domain's cores, as
// sccsim.Machine.SetDomainMHz does. A quantum is counted at the core's
// current period, so the domain's cores are refreshed too.
func (s *Sim) SetDomainMHz(domain, mhz int) error {
	if err := s.Machine.SetDomainMHz(domain, mhz); err != nil {
		return err
	}
	lo := domain * sccsim.VoltageDomainCores
	for c := lo; c < min(lo+sccsim.VoltageDomainCores, len(s.sched.cores)); c++ {
		s.sched.mark(c)
	}
	return nil
}

// reset empties t for the next session, keeping every table's capacity:
// each is empty and zero up to its capacity, and so is each core's list.
func (t *scheduler) reset() {
	for i := range t.cores {
		c := &t.cores[i]
		clear(c.procs)
		*c = coreShare{procs: c.procs[:0]}
	}
	clear(t.heap[:cap(t.heap)])
	clear(t.dirty[:cap(t.dirty)])
	*t = scheduler{cores: t.cores[:0], heap: t.heap[:0], dirty: t.dirty[:0]}
}

// add lists a spawned context on its core.
func (t *scheduler) add(p *Proc) {
	c := &t.cores[p.Core]
	c.procs = append(c.procs, p)
	t.mark(p.Core)
}

// mark queues a core for refresh at the next decision.
func (t *scheduler) mark(core int) {
	if c := &t.cores[core]; !c.dirty {
		c.dirty = true
		t.dirty = append(t.dirty, core)
	}
}

// inQuantum reports whether c's occupant is runnable and inside its
// quantum at the core's current period. Without a quantum it reads
// neither the occupant nor its core's timer.
func (t *scheduler) inQuantum(c *coreShare) bool {
	p := c.occ
	return t.quantumCycles > 0 && p != nil && p.State == Runnable &&
		p.Clock-c.start < sccsim.Time(t.quantumCycles)*p.timer.Period
}

// next elects the context to run next, or nil when none is runnable,
// and charges a change of occupant.
func (t *scheduler) next() *Proc {
	if l := t.last; l != nil {
		c := &t.cores[l.Core]
		c.free = max(c.free, l.Clock)
		// An occupant inside its quantum runs on unless another core
		// is due for a refresh or has a candidate that goes first.
		if t.inQuantum(c) && t.keeps(l, c.free) {
			return l
		}
		t.refresh(l.Core)
	}
	for _, i := range t.dirty {
		t.refresh(i)
	}
	t.dirty = t.dirty[:0]
	p := t.pop()
	t.last = p
	if p != nil {
		t.occupy(p)
	}
	return p
}

// occupy starts the elected p on its core: unless p is the occupant
// inside its quantum, p starts no earlier than the core is free, and a
// change of occupant is charged.
func (t *scheduler) occupy(p *Proc) {
	c := &t.cores[p.Core]
	if t.inQuantum(c) {
		return
	}
	p.Clock = max(p.Clock, c.free)
	if p != c.occ {
		t.switches++
		p.Clock += p.mach.ComputeTime(p.Core, t.switchCycles)
		if t.flushL1 {
			p.Clock += p.mach.FlushL1(p.Core)
		}
		c.occ = p
	}
	c.start = p.Clock
}

// keeps reports whether l, to start at eff, goes before every other
// core's candidate: no other core is due for a refresh, and the heap's
// top (a live candidate, or a stale entry) does not go first.
func (t *scheduler) keeps(l *Proc, eff sccsim.Time) bool {
	if len(t.dirty) > 1 || len(t.dirty) == 1 && t.dirty[0] != l.Core {
		return false
	}
	return len(t.heap) == 0 || !less(t.heap[0], entry{eff, int32(l.ID), 0})
}

// refresh caches core i's candidate and queues it when it changed.
func (t *scheduler) refresh(i int) {
	c := &t.cores[i]
	c.dirty = false
	p := c.occ
	if !t.inQuantum(c) {
		p = c.rotate()
	}
	if p == nil {
		c.cand = nil
		return
	}
	if eff := max(p.Clock, c.free); p != c.cand || eff != c.eff {
		c.cand, c.eff = p, eff
		t.push(entry{eff, int32(p.ID), int32(i)})
	}
}

// rotate returns the core's first runnable context after its occupant by
// ID, wrapping around, and drops the finished contexts it passes.
func (c *coreShare) rotate() *Proc {
	var first, next *Proc
	live := 0
	for i, p := range c.procs {
		if p.State == Done {
			continue
		}
		if live != i {
			c.procs[live] = p
		}
		live++
		if p.State != Runnable {
			continue
		}
		if first == nil {
			first = p
		}
		if next == nil && c.occ != nil && p.ID > c.occ.ID {
			next = p
		}
	}
	if live < len(c.procs) {
		clear(c.procs[live:])
		c.procs = c.procs[:live]
	}
	if next != nil {
		return next
	}
	return first
}

// pop takes the earliest live candidate off the heap, discarding the
// stale entries above it. A core's cached candidate always has an entry
// in the heap, so discarding the others loses none.
func (t *scheduler) pop() *Proc {
	for len(t.heap) > 0 {
		e := t.heap[0]
		t.down()
		c := &t.cores[e.core]
		if p := c.cand; p != nil && c.eff == e.eff && int32(p.ID) == e.id {
			c.cand = nil
			return p
		}
	}
	return nil
}

// less orders entries by (effective start, ID).
func less(a, b entry) bool {
	return a.eff < b.eff || (a.eff == b.eff && a.id < b.id)
}

// push and down sift with a hole instead of pairwise swaps: the moving
// entry stays in a register-resident local while displaced entries
// shift one slot, so each level costs one store rather than three. At
// 1024 cores the heap is ten levels deep and every decision of a
// one-to-one run pays one push and at least one pop.
func (t *scheduler) push(e entry) {
	t.heap = append(t.heap, e)
	t.up(len(t.heap)-1, e)
}

// up sifts e up from the hole at i.
func (t *scheduler) up(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, t.heap[parent]) {
			break
		}
		t.heap[i] = t.heap[parent]
		i = parent
	}
	t.heap[i] = e
}

// down removes the top entry. The root hole moves down to a leaf along
// the smaller children, one comparison per level, and the last entry
// sifts up from there: it came from the bottom, so it rarely climbs.
func (t *scheduler) down() {
	n := len(t.heap) - 1
	e := t.heap[n]
	t.heap = t.heap[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		small := 2*i + 1
		if small >= n {
			break
		}
		if r := small + 1; r < n && less(t.heap[r], t.heap[small]) {
			small = r
		}
		t.heap[i] = t.heap[small]
		i = small
	}
	t.up(i, e)
}
