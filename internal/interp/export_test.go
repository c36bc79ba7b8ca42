package interp

// YieldHorizonPs exposes the clock-skew horizon to the external tests.
const YieldHorizonPs = yieldHorizonPs
