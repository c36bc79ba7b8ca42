package interp

import (
	"fmt"
	"math"

	"hsmcc/internal/cc/types"
)

// Typed memory access. The stored type of a scalar fixes everything
// about an access at lowering time — its width, the shift that
// sign-extends the loaded word, and how the word becomes a Value and
// back — and that is the type's codec. loadWord and storeWord are the
// interpreter's one timed typed access: a fused closure moves the word
// itself, and every Value-level load or store (LoadTyped, StoreTyped,
// boxed) is one of them plus the codec's box or unbox. A type without a
// codec (a struct or an array moved whole, void) fails with noWord's
// error and touches no memory.
//
// loadWord and storeWord are coroutine-protocol leaves: the machine
// access completes before the memory-op cadence can yield, so on
// errYield the returned word is the real result and the caller resumes
// after the access without re-issuing it.

// codec is how a value of one scalar kind rides in a word.
type codec struct {
	size int
	// sext is the shift (below 64) that sign-extends the zero-extended
	// word a load returns; 0 for the kinds that stay zero-extended.
	sext uint
	// box is the Value of type t a load of w yields; unbox is the word a
	// store of v writes, of which only the low size bytes reach memory.
	box   func(t *types.Type, w uint64) Value
	unbox func(v Value) uint64
}

// codecs is the codec of each scalar kind, indexed by kind; a zero size
// marks a kind with none.
var codecs = func() (cs [types.Opaque + 1]codec) {
	box := func(t *types.Type, w uint64) Value { return Value{T: t, I: int64(w)} }
	unbox := func(v Value) uint64 { return uint64(v.Int()) }
	cs[types.Char] = codec{1, 56, box, unbox}
	cs[types.Short] = codec{2, 48, box, unbox}
	cs[types.Int] = codec{4, 32, box, unbox}
	cs[types.Long] = cs[types.Int]
	cs[types.UInt] = codec{4, 0, box, unbox}
	cs[types.Pointer], cs[types.Opaque] = cs[types.UInt], cs[types.UInt]
	cs[types.Float] = codec{4, 0,
		func(t *types.Type, w uint64) Value { return Value{T: t, F: float64(math.Float32frombits(uint32(w)))} },
		func(v Value) uint64 { return uint64(math.Float32bits(float32(v.Float()))) }}
	cs[types.Double] = codec{8, 0,
		func(t *types.Type, w uint64) Value { return Value{T: t, F: math.Float64frombits(w)} },
		func(v Value) uint64 { return math.Float64bits(v.Float()) }}
	return cs
}()

// wordOf returns the codec of t's kind; ok is false for a type without
// one.
func wordOf(t *types.Type) (k codec, ok bool) {
	if t == nil || int(t.Kind) >= len(codecs) {
		return codec{}, false
	}
	k = codecs[t.Kind]
	return k, k.size != 0
}

// noWord is the error of loading or storing (op) a value of type t,
// which has no codec.
func noWord(op string, t *types.Type) error {
	if size := t.Size(); size <= 0 || size > 8 {
		return fmt.Errorf("%s of %d-byte type %s", op, size, t)
	}
	return fmt.Errorf("interp: cannot %s value of type %s", op, t)
}

// loadWord reads the size-byte word at addr, sign-extended by sext.
func (p *Proc) loadWord(addr uint32, size int, sext uint) (uint64, error) {
	w, lat := p.mach.LoadWord(p.Core, addr, size, p.Clock)
	p.Clock += lat
	return uint64(int64(w<<(sext&63)) >> (sext & 63)), p.noteMemOp(addr, size, false)
}

// storeWord writes the low size bytes of w at addr.
func (p *Proc) storeWord(addr uint32, size int, w uint64) error {
	p.Clock += p.mach.StoreWord(p.Core, addr, size, w, p.Clock)
	return p.noteMemOp(addr, size, true)
}

// LoadTyped reads a value of type t with timing; for runtime packages
// and the Value-level sites of the compiled engine. The coroutine leaf
// convention applies: on a yield the access has completed and the real
// value is returned alongside the sentinel.
func (p *Proc) LoadTyped(addr uint32, t *types.Type) (Value, error) {
	k, ok := wordOf(t)
	if !ok {
		return Value{}, noWord("load", t)
	}
	w, err := p.loadWord(addr, k.size, k.sext)
	return k.box(t, w), err
}

// StoreTyped writes v, converted to type t, with timing. On a yield the
// store has completed.
func (p *Proc) StoreTyped(addr uint32, t *types.Type, v Value) error {
	k, ok := wordOf(t)
	if !ok {
		return noWord("store", t)
	}
	return p.storeWord(addr, k.size, k.unbox(v))
}
