package interp

// YieldHorizonPs exposes the clock-skew horizon to the external tests.
const YieldHorizonPs = yieldHorizonPs

// ElectLinear makes every session elect with linearTimeShare, the
// scheduler's rule without its index, until the returned func restores
// the index. Not safe to call while another test's sessions run.
func ElectLinear() (restore func()) { return electBy(linearTimeShare) }

// ElectMinClock makes every session elect with minClock until the
// returned func restores the index: the same rule as the scheduler's
// when every core has one context and no switch cost.
func ElectMinClock() (restore func()) {
	return electBy(func(_ *scheduler, procs []*Proc) *Proc { return minClock(procs) })
}

func electBy(f func(*scheduler, []*Proc) *Proc) func() {
	old := linearNext
	linearNext = f
	return func() { linearNext = old }
}

// Elect makes one scheduling decision of s.
func (s *Sim) Elect() *Proc { return s.pickNext() }
