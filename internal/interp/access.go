package interp

import (
	"math"

	"hsmcc/internal/cc/types"
)

// Typed memory accessors, selected once per compiled site. The stored
// type fixes everything about an access at lowering time — its width,
// how the word's bits become a Value and back — so each variant is one
// Machine.LoadWord or StoreWord plus a constant decode: the same access,
// the same noteMemOp cadence and the same resulting bits as the generic
// loadValue/storeValue, minus the per-operation size computation and
// kind switches. Kinds outside the table fall back to the generic
// routines, preserving their exact behaviour (including error messages
// and panics on malformed types).
//
// Every accessor is a coroutine-protocol leaf: the machine access and
// the decode/encode complete before the memory-op cadence can yield, so
// on errYield the returned Value is the real result and the caller
// resumes after the access without re-issuing it.

// typedLoad reads a value of a fixed type from simulated memory.
type typedLoad func(p *Proc, addr uint32) (Value, error)

// typedStore writes v (converting it to the fixed type first) and
// returns the converted value, which assignment expressions yield.
type typedStore func(p *Proc, addr uint32, v Value) (Value, error)

// intWord describes an integer-like stored type: its width in bytes and
// the shift (below 64) that sign-extends its zero-extended word, 0 for
// the unsigned and address kinds, which stay zero-extended.
func intWord(t *types.Type) (size int, sext uint, ok bool) {
	switch t.Kind {
	case types.Char:
		return 1, 56, true
	case types.Short:
		return 2, 48, true
	case types.Int, types.Long:
		return 4, 32, true
	case types.UInt, types.Pointer, types.Opaque:
		return 4, 0, true
	}
	return 0, 0, false
}

func makeLoad(t *types.Type) typedLoad {
	if t == nil {
		return genericLoad(t)
	}
	if size, sext, ok := intWord(t); ok {
		return func(p *Proc, addr uint32) (Value, error) {
			w, lat := p.mach.LoadWord(p.Core, addr, size, p.Clock)
			p.Clock += lat
			return Value{T: t, I: int64(w<<(sext&63)) >> (sext & 63)}, p.noteMemOp(addr, false)
		}
	}
	switch t.Kind {
	case types.Float:
		return func(p *Proc, addr uint32) (Value, error) {
			w, lat := p.mach.LoadWord(p.Core, addr, 4, p.Clock)
			p.Clock += lat
			return Value{T: t, F: float64(math.Float32frombits(uint32(w)))}, p.noteMemOp(addr, false)
		}
	case types.Double:
		return func(p *Proc, addr uint32) (Value, error) {
			w, lat := p.mach.LoadWord(p.Core, addr, 8, p.Clock)
			p.Clock += lat
			return Value{T: t, F: math.Float64frombits(w)}, p.noteMemOp(addr, false)
		}
	}
	return genericLoad(t)
}

func genericLoad(t *types.Type) typedLoad {
	return func(p *Proc, addr uint32) (Value, error) { return p.loadValue(addr, t) }
}

func makeStore(t *types.Type) typedStore {
	if t == nil {
		return genericStore(t)
	}
	if size, sext, ok := intWord(t); ok {
		if sext == 0 {
			return func(p *Proc, addr uint32, v Value) (Value, error) {
				cv := Value{T: t, I: int64(uint32(v.Int()))}
				p.Clock += p.mach.StoreWord(p.Core, addr, 4, uint64(cv.I), p.Clock)
				return cv, p.noteMemOp(addr, true)
			}
		}
		return func(p *Proc, addr uint32, v Value) (Value, error) {
			cv := Value{T: t, I: v.Int() << (sext & 63) >> (sext & 63)}
			p.Clock += p.mach.StoreWord(p.Core, addr, size, uint64(cv.I), p.Clock)
			return cv, p.noteMemOp(addr, true)
		}
	}
	switch t.Kind {
	case types.Float:
		return func(p *Proc, addr uint32, v Value) (Value, error) {
			cv := Value{T: t, F: float64(float32(v.Float()))}
			p.Clock += p.mach.StoreWord(p.Core, addr, 4, uint64(math.Float32bits(float32(cv.F))), p.Clock)
			return cv, p.noteMemOp(addr, true)
		}
	case types.Double:
		return func(p *Proc, addr uint32, v Value) (Value, error) {
			cv := Value{T: t, F: v.Float()}
			p.Clock += p.mach.StoreWord(p.Core, addr, 8, math.Float64bits(cv.F), p.Clock)
			return cv, p.noteMemOp(addr, true)
		}
	}
	return genericStore(t)
}

func genericStore(t *types.Type) typedStore {
	return func(p *Proc, addr uint32, v Value) (Value, error) {
		cv := Convert(v, t)
		return cv, p.storeValue(addr, t, cv)
	}
}
