package synth

import (
	"math"
	"math/rand"
)

// opKind classifies one operation of a round's loop body. The kinds are
// exactly the instruction-mix buckets the parameter vector requests and
// CountMix accounts for.
type opKind int

const (
	opNonMem opKind = iota
	opPrivLoad
	opPrivStore
	opSharedLoad
	opSharedStore
)

// op is one scheduled operation: a kind plus the seeded constants that
// individuate it (index stride/offset, arithmetic constants, and for
// shared loads whether the source is the read-only table or the
// opposite-parity write buffer).
type op struct {
	kind   opKind
	stride int // index stride multiplier (≥1)
	off    int // index offset (≥0)
	c1, c2 int // int arithmetic constants
	f1, f2 int // double constant selectors (indices into fixed tables)
	fromSW bool
}

// maxBodyOps caps the emitted loop-body length; larger Ops budgets are
// realised by iterating the body (Graphite replays a fixed random
// instruction sequence the same way).
const maxBodyOps = 12

// schedule is the complete seeded operation plan: one body per compute
// round, iterated iters times.
type schedule struct {
	rounds [][]op
	iters  int
	counts mixCounts
}

// mixCounts is the integer realisation of the requested fractions over
// one loop body.
type mixCounts struct {
	body                    int
	nonMem                  int
	privLoad, privStore     int
	sharedLoad, sharedStore int
}

// splitCounts rounds the requested fractions to integer counts over a
// body of n operations. Rounding is nested (mem first, then load within
// mem, then shared within each of load/store) so every bucket is within
// half a unit of its exact value at its own denominator.
func splitCounts(p Params, n int) mixCounts {
	c := mixCounts{body: n}
	mem := roundClamp(float64(n)*p.MemFrac, n)
	load := roundClamp(float64(mem)*p.LoadFrac, mem)
	store := mem - load
	c.sharedLoad = roundClamp(float64(load)*p.SharedFrac, load)
	c.privLoad = load - c.sharedLoad
	c.sharedStore = roundClamp(float64(store)*p.SharedFrac, store)
	c.privStore = store - c.sharedStore
	c.nonMem = n - mem
	return c
}

func roundClamp(v float64, hi int) int {
	n := int(math.Round(v))
	if n < 0 {
		n = 0
	}
	if n > hi {
		n = hi
	}
	return n
}

// plan derives the seeded operation schedule from the vector. The plan
// depends only on Params — never on the thread count — so one vector
// runs the same logical program at every cores value of a sweep.
func (p Params) plan() *schedule {
	rng := rand.New(rand.NewSource(p.Seed ^ 0x73796e7468)) // distinct stream from ParamsForSeed
	body := p.Ops
	if body > maxBodyOps {
		body = maxBodyOps
	}
	s := &schedule{iters: p.Ops / body, counts: splitCounts(p, body)}
	for r := 0; r < p.Rounds; r++ {
		s.rounds = append(s.rounds, p.roundBody(rng, s.counts))
	}
	return s
}

// roundBody lays out one round's loop body: the counted kinds in a
// seeded order, each with seeded constants. Shared loads alternate
// between the read-only table and the opposite-parity write buffer
// (when stores populate one), starting with the table so it is always
// live when shared loads exist.
func (p Params) roundBody(rng *rand.Rand, c mixCounts) []op {
	kinds := make([]opKind, 0, c.body)
	for i := 0; i < c.nonMem; i++ {
		kinds = append(kinds, opNonMem)
	}
	for i := 0; i < c.privLoad; i++ {
		kinds = append(kinds, opPrivLoad)
	}
	for i := 0; i < c.privStore; i++ {
		kinds = append(kinds, opPrivStore)
	}
	for i := 0; i < c.sharedLoad; i++ {
		kinds = append(kinds, opSharedLoad)
	}
	for i := 0; i < c.sharedStore; i++ {
		kinds = append(kinds, opSharedStore)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	swLive := c.sharedStore > 0
	sharedLoads := 0
	ops := make([]op, 0, len(kinds))
	for _, k := range kinds {
		o := op{
			kind:   k,
			stride: 1 + rng.Intn(7),
			off:    rng.Intn(8),
			c1:     2 + rng.Intn(4),
			c2:     rng.Intn(10),
			f1:     rng.Intn(len(doubleScales)),
			f2:     rng.Intn(len(doubleOffsets)),
		}
		if k == opSharedLoad {
			o.fromSW = swLive && sharedLoads%2 == 1
			sharedLoads++
		}
		ops = append(ops, o)
	}
	return ops
}

// Double-kind constant tables. Scales are < 1 and offsets small so
// accumulator and element values stay bounded (see emit.go's invariant
// note); values are exact in binary so both backends print identical
// %.6f checksums trivially.
var (
	doubleScales  = []float64{0.25, 0.5, 0.75}
	doubleOffsets = []float64{0.5, 1.0, 1.5, 2.0, 2.5}
)

// usage reports which data arrays the schedule touches, which decides
// what the emitter declares, initialises and checksums.
type usage struct {
	priv, table, swap bool
}

func (s *schedule) usage() usage {
	var u usage
	for _, body := range s.rounds {
		for _, o := range body {
			switch o.kind {
			case opPrivLoad, opPrivStore:
				u.priv = true
			case opSharedStore:
				u.swap = true
			case opSharedLoad:
				if o.fromSW {
					u.swap = true
				} else {
					u.table = true
				}
			}
		}
	}
	return u
}
