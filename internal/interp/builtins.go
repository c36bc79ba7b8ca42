package interp

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"hsmcc/internal/cc/types"
	"hsmcc/internal/sccsim"
)

// IsBuiltin reports whether name is a builtin's: the common libc
// subset's or a runtime's (pthread_*, RCCE_*). Call sites use it to tell
// a call through a function-valued variable from a builtin call.
func IsBuiltin(name string) bool {
	return commonBuiltinID(name) != bNone ||
		strings.HasPrefix(name, "pthread_") || strings.HasPrefix(name, "RCCE_")
}

// builtinID is an interned common-builtin identity; the compiled engine
// resolves call sites to IDs once so the hot path dispatches on a small
// integer instead of comparing strings.
type builtinID int

// Interned common builtins (bNone means "not a common builtin").
const (
	bNone builtinID = iota
	bPrintf
	bMalloc
	bCalloc
	bFree
	bMemset
	bMemcpy
	bExit
	bAtoi
	bSqrt
	bFabs
	bWallclock
)

// builtinArity is how many arguments a common builtin reads.
var builtinArity = [...]int{bMalloc: 1, bCalloc: 2, bMemset: 3, bMemcpy: 3, bAtoi: 1, bSqrt: 1, bFabs: 1}

// voidPtrType is the type of the pointers malloc and calloc return, built
// once rather than per call.
var voidPtrType = types.PointerTo(types.VoidType)

// commonBuiltinID interns a callee name.
func commonBuiltinID(name string) builtinID {
	switch name {
	case "printf":
		return bPrintf
	case "malloc", "RCCE_malloc_request":
		return bMalloc
	case "calloc":
		return bCalloc
	case "free":
		return bFree
	case "memset":
		return bMemset
	case "memcpy":
		return bMemcpy
	case "exit", "abort":
		return bExit
	case "atoi":
		return bAtoi
	case "sqrt":
		return bSqrt
	case "fabs":
		return bFabs
	case "wallclock":
		return bWallclock
	}
	return bNone
}

// CallBuiltin dispatches a call of name, which is no function of the
// program, by name: the runtime's builtins first, then the common libc
// subset. handled=false means neither knows the name. A compiled call
// site resolves the same dispatch once (compileCall); the tree-walk
// reference calls this on every call, and its contexts never re-enter a
// builtin, so the runtime always starts at step 0 with no state.
func (p *Proc) CallBuiltin(name string, args []Value) (v Value, handled bool, err error) {
	if rt := p.Sim.Runtime; rt != nil {
		if v, handled, err = rt.CallBuiltin(p, name, args, 0, 0); err != nil || handled {
			return v, handled, err
		}
	}
	return p.commonBuiltinByID(commonBuiltinID(name), args)
}

// commonBuiltinByID dispatches an interned common builtin. Every builtin
// follows the coroutine resumption protocol: all side effects that must
// not repeat (output formatting, heap allocation, machine accesses)
// happen before the single trailing charge, and a frame carries whatever
// the post-charge epilogue needs (the allocated address, the computed
// result; printf's text waits in the context's buffer). A builtin whose
// result is known before the charge returns it with the charge's
// outcome; a yield discards it.
func (p *Proc) commonBuiltinByID(id builtinID, args []Value) (Value, bool, error) {
	if int(id) < len(builtinArity) && len(args) < builtinArity[id] {
		return Value{}, true, fmt.Errorf("builtin called with %d arguments, wants %d", len(args), builtinArity[id])
	}
	var fr kframe
	if p.coResuming {
		fr = p.popK()
	}
	switch id {
	case bPrintf:
		if fr.step == 0 {
			if len(args) == 0 {
				return Value{}, true, fmt.Errorf("printf without format")
			}
			// The format, then the text after it, in the context's
			// buffer, which keeps the text across a yield.
			format := p.appendCString(p.text[:0], args[0].Addr())
			n := len(format)
			var err error
			if p.text, err = p.formatC(format, format[:n:n], args[1:]); err != nil {
				return Value{}, true, err
			}
			p.text = p.text[:copy(p.text, p.text[n:])]
		}
		// I/O cost proportional to text.
		if err := p.chargeStep(fr.step, CostCall+len(p.text), kframe{}); err != nil {
			return Value{}, true, err
		}
		p.Sim.Out.Write(p.text)
		return IntValue(types.IntType, int64(len(p.text))), true, nil

	case bMalloc: // private heap (also RCCE_malloc_request)
		addr := fr.a
		if fr.step == 0 {
			var err error
			if addr, err = p.heapAlloc("malloc", args[0].Int(), 1); err != nil {
				return Value{}, true, err
			}
		}
		return PtrValue(voidPtrType, addr), true, p.chargeStep(fr.step, CostCall*4, kframe{a: addr})

	case bCalloc:
		addr := fr.a
		if fr.step == 0 {
			var err error
			if addr, err = p.heapAlloc("calloc", args[0].Int(), args[1].Int()); err != nil {
				return Value{}, true, err
			}
		}
		// PageMem zero-fills fresh pages; the bump allocator never
		// reuses, so the region is already zero.
		n := CostCall*4 + int(args[0].Int()*args[1].Int())/8
		return PtrValue(voidPtrType, addr), true, p.chargeStep(fr.step, n, kframe{a: addr})

	case bFree:
		return Value{T: types.VoidType}, true, p.chargeStep(fr.step, CostCall, kframe{})

	case bMemset:
		n := int(args[2].Int())
		if fr.step == 0 {
			addr, val := args[0].Addr(), byte(args[1].Int())
			if err := p.CheckSpan("memset", addr, args[2].Int()); err != nil {
				return Value{}, true, err
			}
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = val
			}
			p.Clock += p.Sim.Machine.Store(p.Core, addr, buf, p.Clock)
			// One timed machine access, one profiler report (mirrors
			// the Machine's own per-call accounting); the store has
			// completed, so a yield below never re-issues it.
			if p.prof != nil {
				p.prof.NoteAccess(p.Core, addr, true)
			}
		}
		return args[0], true, p.chargeStep(fr.step, n/4, kframe{})

	case bMemcpy:
		n := int(args[2].Int())
		if fr.step == 0 {
			dst, src := args[0].Addr(), args[1].Addr()
			for _, a := range []uint32{src, dst} {
				if err := p.CheckSpan("memcpy", a, args[2].Int()); err != nil {
					return Value{}, true, err
				}
			}
			buf := make([]byte, n)
			p.Clock += p.Sim.Machine.Load(p.Core, src, buf, p.Clock)
			p.Clock += p.Sim.Machine.Store(p.Core, dst, buf, p.Clock)
			if p.prof != nil {
				p.prof.NoteAccess(p.Core, src, false)
				p.prof.NoteAccess(p.Core, dst, true)
			}
		}
		return args[0], true, p.chargeStep(fr.step, n/4, kframe{})

	case bExit:
		return Value{}, true, errThreadExit

	case bAtoi:
		v, cost := fr.n, 0
		if fr.step == 0 {
			p.text = p.appendCString(p.text[:0], args[0].Addr())
			iv, _ := strconv.Atoi(string(bytes.TrimSpace(p.text)))
			v, cost = int64(iv), CostCall+4*len(p.text)
		}
		return IntValue(types.IntType, v), true, p.chargeStep(fr.step, cost, kframe{n: v})

	case bSqrt: // P54C FSQRT
		return FloatValue(types.DoubleType, math.Sqrt(args[0].Float())), true, p.chargeStep(fr.step, 70, kframe{})

	case bFabs:
		return FloatValue(types.DoubleType, math.Abs(args[0].Float())), true, p.chargeStep(fr.step, CostFAdd, kframe{})

	case bWallclock:
		if err := p.chargeStep(fr.step, CostCall, kframe{}); err != nil {
			return Value{}, true, err
		}
		return FloatValue(types.DoubleType, p.Seconds()), true, nil
	}
	return Value{}, false, nil
}

// heapLimit is where a core's heap must stop: the upper half of the
// private range is the stack slots Sim.Spawn hands out.
const heapLimit = sccsim.PrivateBase + (sccsim.PrivateLimit-sccsim.PrivateBase)/2

// CheckSpan rejects the n-byte span at addr of the builtin name before
// anything is copied, charged or allocated for it: a negative length, or
// one reaching past the end of the address class it starts in (the
// private range splitting at heapLimit, since nothing a program owns
// straddles it; an MPB span need only be no longer than the MPB). Where
// a span lies in the memory map is the machine's fault to report. The
// error names the builtin, the size and the address. Runtime packages
// call it for their own bulk builtins.
func (p *Proc) CheckSpan(name string, addr uint32, n int64) error {
	end := uint64(heapLimit)
	switch {
	case addr >= sccsim.MPBBase:
		end = uint64(addr) + uint64(p.mach.Config().MPBTotal())
	case addr >= sccsim.SharedBase:
		end = uint64(sccsim.SharedLimit)
	case addr >= heapLimit:
		end = uint64(sccsim.PrivateLimit)
	}
	switch {
	case n < 0:
		return fmt.Errorf("%s of %d bytes at %#x: negative length", name, n, addr)
	case n > 0 && uint64(addr)+uint64(n) > end:
		return fmt.Errorf("%s of %d bytes at %#x: reaches past the memory it starts in (ends at %#x)", name, n, addr, end)
	}
	return nil
}

// formatC appends the text of a C printf format with the given
// arguments to dst. The plain %d, %i, %u, %f, %.Nf, %c, %s and %p append
// without fmt; any other spec takes fmt.Appendf.
func (p *Proc) formatC(dst, format []byte, args []Value) ([]byte, error) {
	ai := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			dst = append(dst, c)
			continue
		}
		// Collect the spec: flags, width, precision, length modifiers.
		j := i + 1
		for j < len(format) && strings.IndexByte("-+ #0123456789.", format[j]) >= 0 {
			j++
		}
		for j < len(format) && (format[j] == 'l' || format[j] == 'h') {
			j++
		}
		if j >= len(format) {
			dst = append(dst, '%')
			break
		}
		var sb [16]byte
		spec := sb[:0]
		for _, b := range format[i+1 : j] {
			if b != 'l' && b != 'h' {
				spec = append(spec, b)
			}
		}
		verb := format[j]
		i = j
		if verb == '%' {
			dst = append(dst, '%')
			continue
		}
		if strings.IndexByte("diuxXocfFeEgGsp", verb) < 0 {
			return dst, fmt.Errorf("printf: unsupported verb %%%c", verb)
		}
		if ai >= len(args) {
			return dst, fmt.Errorf("printf: missing argument %d for %q", ai, string(format))
		}
		v := args[ai]
		ai++
		prec, plain := precision(spec)
		switch verb {
		case 'd', 'i':
			if len(spec) == 0 {
				dst = strconv.AppendInt(dst, v.Int(), 10)
			} else {
				dst = fmt.Appendf(dst, "%"+string(spec)+"d", v.Int())
			}
		case 'u':
			if len(spec) == 0 {
				dst = strconv.AppendUint(dst, uint64(uint32(v.Int())), 10)
			} else {
				dst = fmt.Appendf(dst, "%"+string(spec)+"d", uint32(v.Int()))
			}
		case 'x', 'X', 'o':
			dst = fmt.Appendf(dst, "%"+string(spec)+string(verb), uint32(v.Int()))
		case 'c':
			dst = append(dst, byte(v.Int()))
		case 'f', 'F', 'e', 'E', 'g', 'G':
			if verb == 'f' && plain {
				dst = strconv.AppendFloat(dst, v.Float(), 'f', prec, 64)
			} else {
				dst = fmt.Appendf(dst, "%"+string(spec)+string(verb), v.Float())
			}
		case 's':
			if len(spec) == 0 {
				dst = p.appendCString(dst, v.Addr())
			} else {
				s := string(p.appendCString(dst, v.Addr())[len(dst):])
				dst = fmt.Appendf(dst, "%"+string(spec)+"s", s)
			}
		case 'p':
			dst = strconv.AppendUint(append(dst, "0x"...), uint64(uint32(v.Int())), 16)
		}
	}
	return dst, nil
}

// precision reads a spec that is at most a precision: "" (6) or ".N".
func precision(spec []byte) (prec int, plain bool) {
	if len(spec) == 0 {
		return 6, true
	}
	if spec[0] != '.' {
		return 0, false
	}
	for _, d := range spec[1:] {
		if d < '0' || d > '9' {
			return 0, false
		}
		prec = prec*10 + int(d-'0')
	}
	return prec, true
}
