package interp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/sccsim"
)

// evalCall dispatches a call: defined functions first (directly by name
// or through a function pointer), then the runtime's builtins, then the
// interpreter's common libc subset.
func (p *Proc) evalCall(n *ast.CallExpr) (Value, error) {
	name := n.FuncName()

	// Indirect call through an expression or function-valued variable.
	if name == "" || (n.Fun.ResultType() != nil && p.Sim.Program.Funcs[name] == nil && !isKnownBuiltin(name)) {
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Sym != nil && id.Sym.Kind != ast.SymFunc {
			fv, err := p.evalExpr(n.Fun)
			if err != nil {
				return Value{}, err
			}
			if fn := p.Sim.Program.FuncByValue(fv); fn != nil {
				args, err := p.evalArgs(n.Args)
				if err != nil {
					return Value{}, err
				}
				return p.callTree(fn, args)
			}
		}
	}

	if fn, ok := p.Sim.Program.Funcs[name]; ok && fn.Body != nil {
		args, err := p.evalArgs(n.Args)
		if err != nil {
			return Value{}, err
		}
		return p.callTree(fn, args)
	}

	args, err := p.evalArgs(n.Args)
	if err != nil {
		return Value{}, err
	}
	if rt := p.Sim.Runtime; rt != nil {
		v, handled, err := rt.CallBuiltin(p, name, args)
		if err != nil {
			return Value{}, err
		}
		if handled {
			return v, nil
		}
	}
	v, handled, err := p.commonBuiltin(name, args)
	if err != nil {
		return Value{}, err
	}
	if handled {
		return v, nil
	}
	return Value{}, fmt.Errorf("%s: call of unknown function %s", n.Pos(), name)
}

func (p *Proc) evalArgs(exprs []ast.Expr) ([]Value, error) {
	args := make([]Value, len(exprs))
	for i, e := range exprs {
		v, err := p.evalExpr(e)
		if err != nil {
			return nil, err
		}
		args[i] = v
		if err := p.chargeCycles(costALU); err != nil { // argument push
			return nil, err
		}
	}
	return args, nil
}

func isKnownBuiltin(name string) bool {
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

// commonBuiltin implements the runtime-independent libc subset (the
// tree-walk's string-keyed entry point).
func (p *Proc) commonBuiltin(name string, args []Value) (Value, bool, error) {
	return p.commonBuiltinByID(commonBuiltinID(name), args)
}

// commonBuiltinByID dispatches an interned common builtin. Every builtin
// follows the coroutine resumption protocol: all side effects that must
// not repeat (output formatting, heap allocation, machine accesses)
// happen before the single trailing charge, and a frame carries whatever
// the post-charge epilogue needs (the formatted text, the allocated
// address, the computed result).
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
		var out string
		if fr.step == 0 {
			if len(args) == 0 {
				return Value{}, true, fmt.Errorf("printf without format")
			}
			format := p.ReadCString(args[0].Addr())
			var err error
			out, err = p.formatC(format, args[1:])
			if err != nil {
				return Value{}, true, err
			}
			if err := p.chargeCycles(costCall + len(out)); err != nil { // I/O cost proportional to text
				p.pushK(kframe{step: 1, x: out})
				return Value{}, true, err
			}
		} else {
			out = fr.x.(string)
		}
		p.Sim.Out.WriteString(out)
		return IntValue(types.IntType, int64(len(out))), true, nil

	case bMalloc: // private heap (also RCCE_malloc_request)
		addr := fr.a
		if fr.step == 0 {
			var err error
			if addr, err = p.heapAlloc("malloc", args[0].Int(), 1); err != nil {
				return Value{}, true, err
			}
			if err := p.chargeCycles(costCall * 4); err != nil {
				p.pushK(kframe{step: 1, a: addr})
				return Value{}, true, err
			}
		}
		return PtrValue(voidPtrType, addr), true, nil

	case bCalloc:
		addr := fr.a
		if fr.step == 0 {
			var err error
			if addr, err = p.heapAlloc("calloc", args[0].Int(), args[1].Int()); err != nil {
				return Value{}, true, err
			}
			// PageMem zero-fills fresh pages; the bump allocator never
			// reuses, so the region is already zero.
			if err := p.chargeCycles(costCall*4 + int(args[0].Int()*args[1].Int())/8); err != nil {
				p.pushK(kframe{step: 1, a: addr})
				return Value{}, true, err
			}
		}
		return PtrValue(voidPtrType, addr), true, nil

	case bFree:
		if fr.step == 0 {
			if err := p.chargeCycles(costCall); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return Value{T: types.VoidType}, true, nil

	case bMemset:
		if fr.step == 0 {
			addr, val, n := args[0].Addr(), byte(args[1].Int()), int(args[2].Int())
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
			if err := p.chargeCycles(n / 4); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return args[0], true, nil

	case bMemcpy:
		if fr.step == 0 {
			dst, src, n := args[0].Addr(), args[1].Addr(), int(args[2].Int())
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
			if err := p.chargeCycles(n / 4); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return args[0], true, nil

	case bExit:
		return Value{}, true, errThreadExit

	case bAtoi:
		v := fr.n
		if fr.step == 0 {
			s := p.ReadCString(args[0].Addr())
			iv, _ := strconv.Atoi(strings.TrimSpace(s))
			v = int64(iv)
			if err := p.chargeCycles(costCall + 4*len(s)); err != nil {
				p.pushK(kframe{step: 1, n: v})
				return Value{}, true, err
			}
		}
		return IntValue(types.IntType, v), true, nil

	case bSqrt:
		if fr.step == 0 {
			if err := p.chargeCycles(70); err != nil { // P54C FSQRT
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return FloatValue(types.DoubleType, math.Sqrt(args[0].Float())), true, nil

	case bFabs:
		if fr.step == 0 {
			if err := p.chargeCycles(costFAdd); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
		}
		return FloatValue(types.DoubleType, math.Abs(args[0].Float())), true, nil

	case bWallclock:
		if fr.step == 0 {
			if err := p.chargeCycles(costCall); err != nil {
				p.pushK(kframe{step: 1})
				return Value{}, true, err
			}
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
// straddles it; an MPB span need only be no longer than the MPB — where
// it lies is the machine's fault to report). The error names the
// builtin, the size and the address. Runtime packages call it for their
// own bulk builtins.
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

// formatC renders a C printf format with the given arguments.
func (p *Proc) formatC(format string, args []Value) (string, error) {
	var sb strings.Builder
	ai := 0
	next := func() (Value, error) {
		if ai >= len(args) {
			return Value{}, fmt.Errorf("printf: missing argument %d for %q", ai, format)
		}
		v := args[ai]
		ai++
		return v, nil
	}
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		// Collect the spec: flags, width, precision, length modifiers.
		j := i + 1
		for j < len(format) && strings.ContainsRune("-+ #0123456789.", rune(format[j])) {
			j++
		}
		for j < len(format) && (format[j] == 'l' || format[j] == 'h') {
			j++
		}
		if j >= len(format) {
			sb.WriteByte('%')
			break
		}
		spec := strings.Map(func(r rune) rune {
			if r == 'l' || r == 'h' {
				return -1
			}
			return r
		}, format[i+1:j])
		verb := format[j]
		i = j
		switch verb {
		case '%':
			sb.WriteByte('%')
		case 'd', 'i':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+"d", v.Int())
		case 'u':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+"d", uint32(v.Int()))
		case 'x', 'X', 'o':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+string(verb), uint32(v.Int()))
		case 'c':
			v, err := next()
			if err != nil {
				return "", err
			}
			sb.WriteByte(byte(v.Int()))
		case 'f', 'F', 'e', 'E', 'g', 'G':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+string(verb), v.Float())
		case 's':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "%"+spec+"s", p.ReadCString(v.Addr()))
		case 'p':
			v, err := next()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&sb, "0x%x", uint32(v.Int()))
		default:
			return "", fmt.Errorf("printf: unsupported verb %%%c", verb)
		}
	}
	return sb.String(), nil
}
