package conformance

import "hsmcc/internal/synth"

// Synthetic-workload conformance: the same differential oracle the spec
// generator runs under, driven by internal/synth's continuous parameter
// vectors instead of the discrete kernel grammar. A synth seed maps to
// a vector (synth.ParamsForSeed), the vector emits one kernel per UE
// count, and the kernel is checked across the engine's full matrix.
// Failures shrink in parameter space — synth.Reductions moves the
// vector toward the trivial corner while the failing cell keeps
// reproducing — which is delta debugging over the memory-behaviour
// plane rather than over AST structure.

// SynthKernel is a synthetic parameter vector as a Kernel. A divergence
// it causes is marked synthetic and carries the vector's canonical key,
// which for a shrunken vector is no longer seed-derived.
type SynthKernel struct{ synth.Params }

// Synthetic is the synthetic family's seed→kernel function (hsmconf
// -synth): kernel i of a sweep reproduces directly via
// `hsmconf -synth -seed base+i -n 1`.
func Synthetic(seed int64) Kernel { return SynthKernel{synth.ParamsForSeed(seed)} }

func (k SynthKernel) size() int { return k.Complexity() }

func (k SynthKernel) label() (int64, string) { return k.Seed, k.Key() }

func (k SynthKernel) reductions() []Kernel {
	var out []Kernel
	for _, c := range synth.Reductions(k.Params) {
		out = append(out, SynthKernel{c})
	}
	return out
}
