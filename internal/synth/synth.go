// Package synth is the parameterized synthetic-workload generator: a
// seeded, deterministic emitter of race-free Pthread C kernels driven
// by a continuous parameter vector instead of a discrete kernel
// grammar. Where internal/conformance explores program *shapes*, synth
// explores the *memory-behaviour plane* the paper's placement question
// actually lives on — fraction of memory operations, load/store ratio,
// degree of sharing per address, shared-vs-private address counts and
// per-thread footprint — the tunable axes of Graphite's synthetic
// benchmark, lifted to whole pthread programs.
//
// A Params value is a complete workload identity: its canonical Key()
// string round-trips through ParseKey, serves as the bench workload key
// (so every baseline/translation/profile cache entry and grid cell is
// keyed by the full parameter vector), and is the repro handle printed
// by hsmconf -synth. Emission is a pure function of (Params, threads):
// the same vector always yields byte-identical C source.
//
// Race freedom is by construction, the same discipline the conformance
// generator uses: every store in a compute round targets the storing
// thread's own slice (private slots, or the thread's own window of the
// round-parity write buffer), shared reads touch only arrays no thread
// writes in the same round (the read-only table, or the opposite-parity
// buffer), and rounds are separated by pthread_join barriers.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Params is the synthetic-workload parameter vector. Fractions are in
// [0,1]; counts are positive. The vector (not the seed alone) is the
// workload identity — Seed only picks the concrete operation schedule
// and constants within the requested mix.
type Params struct {
	Seed int64 `json:"seed"`
	// Ops is the per-thread operation budget of each compute round (the
	// instruction-mix denominator; Graphite's total_instructions_per_core).
	Ops int `json:"ops"`
	// MemFrac is the fraction of operations that access memory.
	MemFrac float64 `json:"mem_frac"`
	// LoadFrac is the fraction of memory operations that are loads (the
	// rest are stores).
	LoadFrac float64 `json:"load_frac"`
	// SharedFrac is the fraction of memory operations that touch shared
	// addresses (the rest touch the thread's private footprint).
	SharedFrac float64 `json:"shared_frac"`
	// Sharing is the degree of sharing: how many threads share one
	// window of shared addresses (clamped to the thread count at
	// emission; Graphite's degree_of_sharing).
	Sharing int `json:"sharing"`
	// SharedAddrs is the shared addresses per sharing group.
	SharedAddrs int `json:"shared_addrs"`
	// PrivateAddrs is the per-thread private footprint in elements.
	PrivateAddrs int `json:"private_addrs"`
	// Rounds is the number of barrier-separated compute launch/join
	// rounds (each becomes one RCCE phase after translation).
	Rounds int `json:"rounds"`
	// Double selects double-typed data arrays (int otherwise).
	Double bool `json:"double"`
}

// Bounds enforced by Validate. MaxOps keeps a single kernel affordable
// under the full conformance matrix; MaxSharing matches the SCC's 48
// cores.
const (
	MinOps     = 4
	MaxOps     = 1 << 16
	MaxSharing = 48
	MaxAddrs   = 1 << 12
	MaxRounds  = 8
	keyPrefix  = "synth:"
	fracGrid   = 20 // ParamsForSeed draws fractions on a 1/20 grid
	intModulus = 9973
)

// Corners returns the four corners of the MemFrac×Sharing plane —
// compute-bound or memory-bound, private or widely shared — over one
// otherwise fixed vector: the cells a host-cost surface is read off.
func Corners() []Params {
	var out []Params
	for _, mem := range []float64{0.1, 0.9} {
		for _, sharing := range []int{1, 8} {
			out = append(out, Params{Seed: 1, Ops: 4096, MemFrac: mem, LoadFrac: 0.5, SharedFrac: 0.5,
				Sharing: sharing, SharedAddrs: 64, PrivateAddrs: 64, Rounds: 2})
		}
	}
	return out
}

// Validate rejects vectors outside the generator's contract.
func (p Params) Validate() error {
	switch {
	case p.Ops < MinOps || p.Ops > MaxOps:
		return fmt.Errorf("synth: ops %d out of range [%d,%d]", p.Ops, MinOps, MaxOps)
	case p.MemFrac < 0 || p.MemFrac > 1:
		return fmt.Errorf("synth: mem_frac %v out of range [0,1]", p.MemFrac)
	case p.LoadFrac < 0 || p.LoadFrac > 1:
		return fmt.Errorf("synth: load_frac %v out of range [0,1]", p.LoadFrac)
	case p.SharedFrac < 0 || p.SharedFrac > 1:
		return fmt.Errorf("synth: shared_frac %v out of range [0,1]", p.SharedFrac)
	case p.Sharing < 1 || p.Sharing > MaxSharing:
		return fmt.Errorf("synth: sharing %d out of range [1,%d]", p.Sharing, MaxSharing)
	case p.SharedAddrs < 1 || p.SharedAddrs > MaxAddrs:
		return fmt.Errorf("synth: shared_addrs %d out of range [1,%d]", p.SharedAddrs, MaxAddrs)
	case p.PrivateAddrs < 1 || p.PrivateAddrs > MaxAddrs:
		return fmt.Errorf("synth: private_addrs %d out of range [1,%d]", p.PrivateAddrs, MaxAddrs)
	case p.Rounds < 1 || p.Rounds > MaxRounds:
		return fmt.Errorf("synth: rounds %d out of range [1,%d]", p.Rounds, MaxRounds)
	}
	return nil
}

// Key renders the canonical workload key: a `synth:`-prefixed, fully
// self-describing encoding of the parameter vector. Because the key IS
// the spec digest, anything keyed by workload key — bench baseline,
// translation, profile and placement caches, grid cell identities,
// report rows — distinguishes synthetic cells from corpus workloads and
// from each other by construction.
func (p Params) Key() string {
	kind := "i"
	if p.Double {
		kind = "f"
	}
	return fmt.Sprintf("%ss%d:o%d:m%s:l%s:h%s:d%d:a%d:p%d:r%d:k%s",
		keyPrefix, p.Seed, p.Ops,
		fracText(p.MemFrac), fracText(p.LoadFrac), fracText(p.SharedFrac),
		p.Sharing, p.SharedAddrs, p.PrivateAddrs, p.Rounds, kind)
}

func fracText(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// IsKey reports whether key names a synthetic workload.
func IsKey(key string) bool { return strings.HasPrefix(key, keyPrefix) }

// ParseKey decodes a canonical synth key back into its parameter
// vector, validating it. Key and ParseKey are exact inverses for every
// valid vector.
func ParseKey(key string) (Params, error) {
	var p Params
	if !IsKey(key) {
		return p, fmt.Errorf("synth: %q is not a synth: workload key", key)
	}
	fields := strings.Split(strings.TrimPrefix(key, keyPrefix), ":")
	if len(fields) != 10 {
		return p, fmt.Errorf("synth: key %q has %d fields, want 10", key, len(fields))
	}
	var err error
	getInt := func(f, tag string) int {
		if err != nil {
			return 0
		}
		if !strings.HasPrefix(f, tag) {
			err = fmt.Errorf("synth: key %q: field %q is not %s<value>", key, f, tag)
			return 0
		}
		v, convErr := strconv.Atoi(f[len(tag):])
		if convErr != nil {
			err = fmt.Errorf("synth: key %q: %v", key, convErr)
		}
		return v
	}
	getFrac := func(f, tag string) float64 {
		if err != nil {
			return 0
		}
		if !strings.HasPrefix(f, tag) {
			err = fmt.Errorf("synth: key %q: field %q is not %s<value>", key, f, tag)
			return 0
		}
		v, convErr := strconv.ParseFloat(f[len(tag):], 64)
		if convErr != nil {
			err = fmt.Errorf("synth: key %q: %v", key, convErr)
		}
		return v
	}
	seed := getInt(fields[0], "s")
	p.Seed = int64(seed)
	p.Ops = getInt(fields[1], "o")
	p.MemFrac = getFrac(fields[2], "m")
	p.LoadFrac = getFrac(fields[3], "l")
	p.SharedFrac = getFrac(fields[4], "h")
	p.Sharing = getInt(fields[5], "d")
	p.SharedAddrs = getInt(fields[6], "a")
	p.PrivateAddrs = getInt(fields[7], "p")
	p.Rounds = getInt(fields[8], "r")
	switch fields[9] {
	case "ki":
		p.Double = false
	case "kf":
		p.Double = true
	default:
		err = fmt.Errorf("synth: key %q: bad kind field %q", key, fields[9])
	}
	if err != nil {
		return p, err
	}
	return p, p.Validate()
}

// ParamsForSeed deterministically derives a valid parameter vector from
// a single seed — the conformance-mode sampler, sized so a full default
// matrix check per kernel stays cheap. Fractions land on a 1/20 grid
// (keeps keys short and shrink steps meaningful).
func ParamsForSeed(seed int64) Params {
	rng := rand.New(rand.NewSource(seed))
	frac := func() float64 { return float64(rng.Intn(fracGrid+1)) / fracGrid }
	return Params{
		Seed:         seed,
		Ops:          12 * (1 + rng.Intn(6)),
		MemFrac:      frac(),
		LoadFrac:     frac(),
		SharedFrac:   frac(),
		Sharing:      1 + rng.Intn(8),
		SharedAddrs:  2 + rng.Intn(31),
		PrivateAddrs: 1 + rng.Intn(32),
		Rounds:       1 + rng.Intn(3),
		Double:       rng.Intn(2) == 1,
	}
}

// Scaled returns the vector with the operation budget scaled by the
// bench harness's problem-size factor (floored at MinOps). Scale acts
// on Ops only: the sharing/footprint shape of the workload is the axis
// under study and must not drift with problem size.
func (p Params) Scaled(scale float64) Params {
	if scale > 0 && scale != 1.0 {
		p.Ops = int(math.Round(float64(p.Ops) * scale))
	}
	if p.Ops < MinOps {
		p.Ops = MinOps
	}
	if p.Ops > MaxOps {
		p.Ops = MaxOps
	}
	return p
}

// Name is the human-readable workload title used in reports.
func (p Params) Name() string {
	kind := "int"
	if p.Double {
		kind = "double"
	}
	return fmt.Sprintf("synthetic %s mix (mem %.2f, load %.2f, shared %.2f, sharing %d, footprint %d+%d, %d rounds)",
		kind, p.MemFrac, p.LoadFrac, p.SharedFrac, p.Sharing, p.SharedAddrs, p.PrivateAddrs, p.Rounds)
}
