// Package interp executes the C subset of internal/cc directly from the
// AST on a simulated SCC (internal/sccsim). It is the experimental
// substitute for the paper's icc-compiled binaries: the same program runs
// under the Pthread baseline runtime (32 threads on one core) and the
// translated RCCE runtime (one process per core), with identical
// per-operation compute costs, so runtime ratios reflect the memory
// system and the parallel structure rather than interpreter artifacts.
//
// Execution contexts (threads or core processes) are stackless
// coroutines stepped from one scheduler loop with zero goroutines and
// zero channel operations per switch (coro.go). Exactly one context runs
// at a time and all virtual-time decisions are deterministic
// (DESIGN.md §8). The tree-walk evaluator survives in package
// interpref (interpref.Compile) as the reference Program tests compare
// the compiled form against.
package interp

import "hsmcc/internal/cc/types"

// Value is one C rvalue: integers and pointers ride in I, floats in F.
// The type tag drives arithmetic and memory encoding.
type Value struct {
	T *types.Type
	I int64
	F float64
}

// IntValue wraps an int in a typed Value.
func IntValue(t *types.Type, v int64) Value { return Value{T: t, I: v} }

// FloatValue wraps a float in a typed Value.
func FloatValue(t *types.Type, v float64) Value { return Value{T: t, F: v} }

// PtrValue wraps a simulated address as a typed pointer value.
func PtrValue(t *types.Type, addr uint32) Value { return Value{T: t, I: int64(addr)} }

// IsFloat reports whether the value carries its payload in F.
func (v Value) IsFloat() bool {
	return v.T != nil && (v.T.Kind == types.Float || v.T.Kind == types.Double)
}

// Int returns the value as an integer, converting floats.
func (v Value) Int() int64 {
	if v.IsFloat() {
		return int64(v.F)
	}
	return v.I
}

// Float returns the value as a float64, converting integers.
func (v Value) Float() float64 {
	if v.IsFloat() {
		return v.F
	}
	return float64(v.I)
}

// Addr returns the value as a simulated address.
func (v Value) Addr() uint32 { return uint32(v.Int()) }

// Bool returns C truthiness.
func (v Value) Bool() bool {
	if v.IsFloat() {
		return v.F != 0
	}
	return v.I != 0
}

// Convert coerces v to type t, truncating integers to the destination
// width and converting between integer and floating representations.
func Convert(v Value, t *types.Type) Value {
	if t == nil || t.Kind == types.Void {
		return Value{T: types.VoidType}
	}
	switch t.Kind {
	case types.Float:
		return Value{T: t, F: float64(float32(v.Float()))}
	case types.Double:
		return Value{T: t, F: v.Float()}
	case types.Char:
		return Value{T: t, I: int64(int8(v.Int()))}
	case types.Short:
		return Value{T: t, I: int64(int16(v.Int()))}
	case types.Int, types.Long:
		return Value{T: t, I: int64(int32(v.Int()))}
	case types.UInt:
		return Value{T: t, I: int64(uint32(v.Int()))}
	case types.Pointer, types.Array, types.Opaque, types.Func:
		return Value{T: t, I: int64(uint32(v.Int()))}
	default:
		return Value{T: t, I: v.Int()}
	}
}
