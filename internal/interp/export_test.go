package interp

import "math"

// YieldHorizonPs exposes the clock-skew horizon to the external tests.
const YieldHorizonPs = yieldHorizonPs

// DisableCompaction stops every session from compacting its scan list
// until the returned func restores the default. Not safe to call while
// another test's sessions run.
func DisableCompaction() (restore func()) {
	old := compactMin
	compactMin = math.MaxInt
	return func() { compactMin = old }
}
