package main

// Seeded op lists. Each list is a draw from a continuous population —
// the discrete axes (key, core count, policy) are enumerated so every
// combination appears equally often, the continuous axis (scale, or the
// UE count on mesh1024) is a jittered stratified sample of its range,
// and the seed sets the jitter and the order. Latencies therefore form
// one smooth distribution, and two seeds give lists whose cost differs
// only by the jitter: that is what lets percentiles and the simulated
// speed-up repeat across seeds. A list is sized so that the measured
// phase runs through it about five times: every op's latency is then a
// median over passes (see runMeasured).

import (
	"fmt"
	"math/rand"
	"time"

	"hsmcc/internal/conformance"
	"hsmcc/internal/synth"
)

// simOp is one RunBothBackends cell. Source is set for compile_many
// only, where the kernel text is fixed and Key merely labels it.
type simOp struct {
	Key     string  `json:"key"`
	Machine string  `json:"machine"`
	Threads int     `json:"threads"`
	Scale   float64 `json:"scale"`
	Policy  string  `json:"policy"`
	Source  string  `json:"source,omitempty"`
}

// gridOp is one 12-cell mini-grid.
type gridOp struct {
	Key   string  `json:"key"`
	Cores int     `json:"cores"`
	Scale float64 `json:"scale"`
}

// serveReq is one daemon request.
type serveReq struct {
	Endpoint string `json:"endpoint"` // translate, compile, simulate
	Key      string `json:"key"`
	Cores    int    `json:"cores"`
	Policy   string `json:"policy"`
}

// quickOps is the list length under -quick.
const quickOps = 5

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// stratified returns n values in [lo, hi): value i is uniform within
// the middle half of the i-th of n equal strata. Keeping clear of the
// stratum edges halves what the jitter alone moves between two seeds.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	w := (hi - lo) / float64(n)
	for i := range out {
		out[i] = lo + (float64(i)+0.25+0.5*rng.Float64())*w
	}
	return out
}

// finish shuffles a list with the seed's stream and truncates it for
// -quick.
func finish[T any](rng *rand.Rand, ops []T, quick bool) []T {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	if quick && len(ops) > quickOps {
		ops = ops[:quickOps]
	}
	return ops
}

// interval is a scale (or UE-count) range.
type interval struct{ lo, hi float64 }

// drawSimPrivate: keys whose simulated accesses are almost all private
// and cached. kmeans runs four iterations over its points, hence ÷ 4.
func drawSimPrivate(seed int64, quick bool) []simOp {
	rng := newRand(seed)
	const strata = 4
	var ops []simOp
	for _, key := range []string{"pi", "sum35", "primes", "kmeans"} {
		for _, cores := range []int{8, 16, 32} {
			for _, s := range stratified(rng, strata, 0.15, 0.35) {
				if key == "kmeans" {
					s /= 4
				}
				ops = append(ops, simOp{Key: key, Machine: "scc48", Threads: cores, Scale: s, Policy: "size"})
			}
		}
	}
	return finish(rng, ops, quick)
}

// sharedScales are sim_shared's scale ranges, one per key, calibrated so
// every key's ops cost some 30-90 ms of host time: long enough that the
// front end stays under 5% of the op, and — lu and matmul grow faster
// than linearly in scale — close enough that no op costs more than ~4x
// the workload's median.
var sharedScales = map[string]interval{
	"stream":   {0.5, 0.9},
	"dot":      {0.7, 1.0},
	"hist":     {0.15, 0.35},
	"matmul":   {0.2, 0.3},
	"lu":       {0.15, 0.22},
	"prodcons": {0.7, 1.0},
}

// drawSimShared: the paper's headline cells.
func drawSimShared(seed int64, quick bool) []simOp {
	rng := newRand(seed)
	const strata = 2
	var ops []simOp
	for _, key := range []string{"stream", "dot", "hist", "matmul", "lu", "prodcons"} {
		r := sharedScales[key]
		for _, cores := range []int{16, 32} {
			for _, policy := range []string{"offchip", "size"} {
				for _, s := range stratified(rng, strata, r.lo, r.hi) {
					ops = append(ops, simOp{Key: key, Machine: "scc48", Threads: cores, Scale: s, Policy: policy})
				}
			}
		}
	}
	return finish(rng, ops, quick)
}

// drawSimWide: hundreds of contexts on mesh1024. At these widths the
// problem sizes sit on their per-thread floor, so scale barely moves the
// cost; the UE count is the continuous axis. prodcons grows O(n^2) in
// UEs and stays below 320; lu alone reaches 1024.
func drawSimWide(seed int64, quick bool) []simOp {
	rng := newRand(seed)
	const strata = 12
	ues := map[string]interval{"prodcons": {160, 320}, "lu": {256, 1024}, "stream": {256, 640}, "matmul": {256, 640}}
	var ops []simOp
	for _, key := range []string{"prodcons", "lu", "stream", "matmul"} {
		scales := stratified(rng, strata, 0.02, 0.05)
		rng.Shuffle(strata, func(i, j int) { scales[i], scales[j] = scales[j], scales[i] })
		for i, n := range stratified(rng, strata, ues[key].lo, ues[key].hi) {
			ops = append(ops, simOp{Key: key, Machine: "mesh1024", Threads: int(n), Scale: scales[i], Policy: "size"})
		}
	}
	return finish(rng, ops, quick)
}

// compileManyOps is the compile_many list length.
const compileManyOps = 500

// drawCompileMany: one distinct generated kernel per op at 4 cores, even
// ops from the conformance grammar, odd ops from the synthetic generator,
// policy cycling. confMs and synthMs report the time spent in each
// generator.
func drawCompileMany(seed int64, quick bool) (ops []simOp, confMs, synthMs float64) {
	n := compileManyOps
	if quick {
		n = quickOps
	}
	policies := []string{"offchip", "size", "freq"}
	gen := conformance.DefaultGenOptions()
	for i := 0; i < n; i++ {
		s := seed*1_000_003 + int64(i)
		op := simOp{Machine: "scc48", Threads: 4, Scale: 1, Policy: policies[i%len(policies)]}
		start := time.Now()
		if i%2 == 0 {
			op.Key = fmt.Sprintf("gen%d", s)
			op.Source = conformance.SpecForSeed(s, gen).Source(4)
			confMs += ms(time.Since(start))
		} else {
			op.Key = fmt.Sprintf("synth%d", s)
			op.Source = synth.ParamsForSeed(s).Scaled(0.05).Source(4)
			synthMs += ms(time.Since(start))
		}
		ops = append(ops, op)
	}
	return ops, confMs, synthMs
}

// drawGridSweep: one key x one core count per mini-grid.
func drawGridSweep(seed int64, quick bool) []gridOp {
	rng := newRand(seed)
	const strata = 2
	var ops []gridOp
	for _, key := range []string{"pi", "stream", "dot", "lu", "hist", "prodcons"} {
		for _, cores := range []int{4, 8, 16} {
			for _, s := range stratified(rng, strata, 0.03, 0.06) {
				ops = append(ops, gridOp{Key: key, Cores: cores, Scale: s})
			}
		}
	}
	return finish(rng, ops, quick)
}

// serveScale is the scale of every serve_warm request.
const serveScale = 0.02

// serveBlocks x 240 is the serve_warm list length: each block holds
// every hot cell ten times — six translate, three compile, one simulate.
const serveBlocks = 20

// drawServeWarm: the daemon's hot set, a balanced deck shuffled by the
// seed, so the 60/30/10 endpoint mix and the uniform key choice hold
// exactly and only the order is random. Under -quick the deck is one
// cell's ten requests, which keeps the mix.
func drawServeWarm(seed int64, quick bool) []serveReq {
	rng := newRand(seed)
	slots := []string{"translate", "translate", "translate", "translate", "translate", "translate", "compile", "compile", "compile", "simulate"}
	blocks, keys, cores, policies := serveBlocks, []string{"pi", "stream", "dot", "lu", "hist", "prodcons"}, []int{4, 8}, []string{"size", "offchip"}
	if quick {
		blocks, keys, cores, policies = 1, keys[:1], cores[:1], policies[:1]
	}
	var reqs []serveReq
	for b := 0; b < blocks; b++ {
		for _, key := range keys {
			for _, n := range cores {
				for _, policy := range policies {
					for _, ep := range slots {
						reqs = append(reqs, serveReq{Endpoint: ep, Key: key, Cores: n, Policy: policy})
					}
				}
			}
		}
	}
	return finish(rng, reqs, false)
}
