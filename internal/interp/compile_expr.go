package interp

import (
	"errors"
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Expression lowering (the expression half of the compile pass; the
// statement half and the pass driver live in compile.go). Every closure
// follows the coroutine resumption protocol, with the resume dispatch
// kept off the fresh path: a cold prologue handles non-zero steps —
// small resume-tail closures, bound once at compile time, carry any
// suffix a mid-expression resume re-enters — and the fresh body below
// it is the straight-line pre-coroutine code plus push-on-yield.

func (c *compiler) compileExpr(e ast.Expr) evalFn {
	// A scalar local or lvalue, or an operator or cast over operands, of
	// provable tag lowers fused (fuse.go), boxed for this generic context.
	if o := c.classify(e); o.shape == shSlot || o.shape == shExpr {
		return boxed(c.lower(o), o.tag)
	}
	switch n := e.(type) {
	case *ast.ParenExpr:
		return c.compileExpr(n.X)

	case *ast.IntLit:
		v := IntValue(types.IntType, n.Value)
		return func(p *Proc) (Value, error) { return v, nil }
	case *ast.FloatLit:
		v := FloatValue(types.DoubleType, n.Value)
		return func(p *Proc) (Value, error) { return v, nil }
	case *ast.CharLit:
		v := IntValue(types.CharType, int64(n.Value))
		return func(p *Proc) (Value, error) { return v, nil }

	case *ast.StringLit:
		addr, ok := c.pr.stringAddrs[n]
		if !ok {
			return errEval(fmt.Errorf("%s: string literal not in image", n.Pos()))
		}
		v := PtrValue(types.PointerTo(types.CharType), addr)
		return func(p *Proc) (Value, error) { return v, nil }

	case *ast.Ident:
		return c.compileIdent(n)

	case *ast.BinaryExpr:
		return c.compileBinary(n)

	case *ast.AssignExpr:
		return c.compileAssign(n)

	case *ast.UnaryExpr:
		return c.compileUnary(n)

	case *ast.PostfixExpr:
		return c.compileIncDec(n.X, n.Op == token.MinusMinus, false)

	case *ast.IndexExpr:
		return c.compileLoadOf(c.compileLValue(n))

	case *ast.CallExpr:
		return c.compileCall(n)

	case *ast.CastExpr:
		x := c.compileExpr(n.X)
		to := n.To
		if to == nil {
			c.fail(n.Pos(), "cast to no type")
			return nil
		}
		toInt, toFloat := to.IsInteger(), to.IsFloat()
		return func(p *Proc) (Value, error) {
			if p.coResuming {
				fr := p.popKRef()
				if fr.step != 0 { // conversion charge complete
					return Convert(fr.v, to), nil
				}
			}
			v, err := x(p)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return Value{}, err
			}
			if (v.IsFloat() && toInt) || (!v.IsFloat() && toFloat) {
				if err := p.chargeCycles(CostConv); err != nil {
					p.pushK(kframe{step: 1, v: v})
					return Value{}, err
				}
			}
			return Convert(v, to), nil
		}

	case *ast.SizeofExpr:
		t := n.OfType
		if t == nil && n.X != nil {
			t = n.X.ResultType()
		}
		if t == nil {
			return errEval(fmt.Errorf("%s: sizeof untyped operand", n.Pos()))
		}
		v := IntValue(types.UIntType, int64(t.Size()))
		return func(p *Proc) (Value, error) { return v, nil }

	case *ast.CondExpr:
		cond := c.compileExpr(n.Cond)
		then := c.compileExpr(n.Then)
		els := c.compileExpr(n.Else)
		// branch re-runs the selected arm on resume (charge-yield enters
		// it fresh, arm-yield re-calls it).
		branch := func(p *Proc, cb bool) (Value, error) {
			f := els
			if cb {
				f = then
			}
			v, err := f(p)
			if isYield(err) {
				p.pushK(kframe{step: 1, n: b2i(cb)})
			}
			return v, err
		}
		return func(p *Proc) (Value, error) {
			if p.coResuming {
				fr := p.popKRef()
				if fr.step != 0 {
					return branch(p, fr.n != 0)
				}
			}
			v, err := cond(p)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return Value{}, err
			}
			cb := v.Bool()
			if err := p.chargeCycles(CostALU); err != nil {
				p.pushK(kframe{step: 1, n: b2i(cb)})
				return Value{}, err
			}
			return branch(p, cb)
		}

	case *ast.CommaExpr:
		x := c.compileExpr(n.X)
		y := c.compileExpr(n.Y)
		return func(p *Proc) (Value, error) {
			runX := true
			if p.coResuming {
				fr := p.popKRef()
				runX = fr.step == 0 // step 0: x suspended, re-enter it
			}
			if runX {
				if _, err := x(p); err != nil {
					if isYield(err) {
						p.pushK(kframe{})
					}
					return Value{}, err
				}
			}
			v, err := y(p)
			if isYield(err) {
				p.pushK(kframe{step: 1})
			}
			return v, err
		}

	case *ast.MemberExpr:
		lf, st := c.compileLValue(n)
		if st != nil && st.Kind == types.Array {
			return failing(lf, noWord("load", st)) // an array member does not decay: the reference loads it, and fails
		}
		return c.compileLoadOf(lf, st)

	default:
		return errEval(fmt.Errorf("%s: cannot evaluate %T", e.Pos(), e))
	}
}

// compileIncDec lowers x++/x--/++x/--x (postfix returns the old value,
// prefix the updated one). Units: 0 lvalue, 1 load, 2 post-load charge,
// 3 store, 4 done (result saved).
func (c *compiler) compileIncDec(lhs ast.Expr, minus, prefix bool) evalFn {
	lf, st := c.compileLValue(lhs)
	if st == nil {
		return failing(lf, errUnresolved)
	}
	delta := int64(1)
	if minus {
		delta = -1
	}
	// tail finishes the operation from the post-load charge (step 2)
	// or the store (step 3).
	tail := func(p *Proc, addr uint32, old Value, step int) (Value, error) {
		if step <= 2 {
			if err := p.chargeCycles(CostALU); err != nil {
				p.pushK(kframe{step: 3, a: addr, v: old})
				return Value{}, err
			}
		}
		res := old
		upd := p.StepValue(old, st, delta)
		if prefix {
			res = upd
		}
		if err := p.StoreTyped(addr, st, upd); err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 4, v: res})
			}
			return Value{}, err
		}
		return res, nil
	}
	return func(p *Proc) (Value, error) {
		if p.coResuming {
			fr := p.popKRef()
			switch fr.step {
			case 2, 3:
				return tail(p, fr.a, fr.v, fr.step)
			case 4:
				return fr.v, nil
			}
		}
		addr, _, err := lf(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{})
			}
			return Value{}, err
		}
		old, err := p.LoadTyped(addr, st)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 2, a: addr, v: old})
			}
			return Value{}, err
		}
		return tail(p, addr, old, 2)
	}
}

// StepValue adds delta respecting pointer scaling.
func (p *Proc) StepValue(v Value, t *types.Type, delta int64) Value {
	if t.Kind == types.Pointer && t.Elem != nil {
		return PtrValue(t, uint32(v.Int()+delta*int64(t.Elem.Size())))
	}
	if v.IsFloat() {
		return FloatValue(t, v.F+float64(delta))
	}
	return IntValue(t, v.I+delta)
}

// compileIdent resolves an identifier occurrence once: globals to their
// image address, locals to a frame slot index, functions to their encoded
// value — the reference engine redoes all of this on every occurrence.
func (c *compiler) compileIdent(n *ast.Ident) evalFn {
	if n.Sym == nil {
		switch n.Name {
		case "NULL":
			v := PtrValue(types.PointerTo(types.VoidType), 0)
			return func(p *Proc) (Value, error) { return v, nil }
		case "RCCE_COMM_WORLD":
			v := IntValue(types.OpaqueOf("RCCE_COMM"), 0)
			return func(p *Proc) (Value, error) { return v, nil }
		}
		return errEval(fmt.Errorf("%s: unresolved identifier %s", n.Pos(), n.Name))
	}
	if n.Sym.Kind == ast.SymFunc {
		fn, ok := c.pr.Funcs[n.Name]
		if !ok {
			return errEval(fmt.Errorf("%s: undefined function %s", n.Pos(), n.Name))
		}
		v := c.pr.FuncValue(fn)
		return func(p *Proc) (Value, error) { return v, nil }
	}
	typ := n.Sym.Type
	if typ == nil {
		c.fail(n.Pos(), n.Name+" has no type")
		return nil
	}
	idx, local := c.slotIdx[n.Sym]
	addr, global := c.pr.GlobalAddr(n.Sym)
	switch {
	case !local && !global:
		return errEval(fmt.Errorf("%s: no storage for %s", n.Pos(), n.Name))
	case typ.Kind != types.Array:
		// A scalar is classified, loaded and boxed before it gets here.
		return errEval(noWord("load", typ))
	}
	pt := types.PointerTo(typ.Elem)
	return func(p *Proc) (Value, error) {
		if p.coResuming {
			p.popKRef()
		} else if err := p.chargeCycles(CostALU); err != nil {
			p.pushK(kframe{step: 1})
			return Value{}, err
		}
		if local {
			return PtrValue(pt, p.slotAddr(idx)), nil
		}
		return PtrValue(pt, addr), nil
	}
}

// compileLoadOf turns a compiled lvalue into an rvalue closure: a
// scalar is a word load plus a box, an array decays to its element
// pointer, and any other type fails once the lvalue resolves.
func (c *compiler) compileLoadOf(lf lvalFn, st *types.Type) evalFn {
	if st == nil {
		return failing(lf, errUnresolved)
	}
	if k, ok := wordOf(st); ok {
		return boxed(rawLoadOf(lf, k.size, k.sext), st)
	}
	if st.Kind != types.Array {
		return failing(lf, noWord("load", st))
	}
	pt := types.PointerTo(st.Elem)
	// Transparent: the decay after the lvalue resolves is pure.
	return func(p *Proc) (Value, error) {
		addr, _, err := lf(p)
		if err != nil {
			return Value{}, err
		}
		return PtrValue(pt, addr), nil
	}
}

// errUnresolved is the use of an lvalue whose stored type lowering could
// not resolve, should its resolver ever produce an address.
var errUnresolved = errors.New("interp: lvalue of unresolved type")

// failing lowers a use of an lvalue that resolves but cannot be used:
// err is the use's outcome once the resolver has run (every nil-typed
// return of compileLValue itself fails at run time, after evaluating
// what the reference evaluates first, and that error wins).
// Transparent.
func failing(lf lvalFn, err error) evalFn {
	return func(p *Proc) (Value, error) {
		if _, _, lerr := lf(p); lerr != nil {
			return Value{}, lerr
		}
		return Value{}, err
	}
}

// compileLValue lowers e to an address resolver. The second result is
// the stored type, which every resolver that can succeed knows at
// lowering time; nil marks one that always fails (see failing).
func (c *compiler) compileLValue(e ast.Expr) (lvalFn, *types.Type) {
	switch n := e.(type) {
	case *ast.ParenExpr:
		return c.compileLValue(n.X)

	case *ast.Ident:
		if n.Sym == nil {
			err := fmt.Errorf("%s: %s is not assignable", n.Pos(), n.Name)
			return func(p *Proc) (uint32, *types.Type, error) { return 0, nil, err }, nil
		}
		typ := n.Sym.Type
		if idx, ok := c.slotIdx[n.Sym]; ok {
			return func(p *Proc) (uint32, *types.Type, error) {
				return p.slotAddr(idx), typ, nil
			}, typ
		}
		if addr, ok := c.pr.GlobalAddr(n.Sym); ok {
			return func(p *Proc) (uint32, *types.Type, error) {
				return addr, typ, nil
			}, typ
		}
		err := fmt.Errorf("%s: no storage for %s", n.Pos(), n.Name)
		return func(p *Proc) (uint32, *types.Type, error) { return 0, nil, err }, nil

	case *ast.UnaryExpr:
		if n.Op != token.Star {
			err := fmt.Errorf("%s: %s is not an lvalue", e.Pos(), n.Op)
			return func(p *Proc) (uint32, *types.Type, error) { return 0, nil, err }, nil
		}
		x := c.compileExpr(n.X)
		t := n.X.ResultType()
		var elem *types.Type
		if t != nil && t.IsPointerLike() {
			elem = t.Decay().Elem
		}
		if elem == nil {
			elem = types.IntType
		}
		// Transparent: only the pointer expression can suspend. A null
		// or wild pointer is the machine's fault to report.
		return func(p *Proc) (uint32, *types.Type, error) {
			v, err := x(p)
			if err != nil {
				return 0, nil, err
			}
			return v.Addr(), elem, nil
		}, elem

	case *ast.IndexExpr:
		return c.fuseIndex(n)

	case *ast.MemberExpr:
		return c.compileMemberLValue(n)

	default:
		err := fmt.Errorf("%s: %T is not an lvalue", e.Pos(), e)
		return func(p *Proc) (uint32, *types.Type, error) { return 0, nil, err }, nil
	}
}

// compileMemberLValue lowers x.f and x->f: the base is x's address or
// x's value, the field offset is resolved at compile time.
// Units: 0 base, 2 offset charged (a = base).
func (c *compiler) compileMemberLValue(n *ast.MemberExpr) (lvalFn, *types.Type) {
	var base lvalFn
	var st *types.Type
	var err error
	if n.Arrow {
		x := c.compileExpr(n.X)
		base = func(p *Proc) (uint32, *types.Type, error) { // transparent
			v, err := x(p)
			return v.Addr(), nil, err
		}
		if t := n.X.ResultType(); t != nil && t.Elem != nil {
			st = t.Elem
		} else {
			err = fmt.Errorf("%s: -> on non-pointer", n.Pos())
		}
	} else if base, st = c.compileLValue(n.X); st == nil {
		return base, nil
	}
	var f types.Field
	if err == nil {
		var ok bool
		if f, ok = st.Field(n.Name); !ok {
			err = fmt.Errorf("%s: no field %s in %s", n.Pos(), n.Name, st)
		}
	}
	if err != nil {
		// The reference evaluates the base for its effects, then fails.
		return func(p *Proc) (uint32, *types.Type, error) { // transparent
			if _, _, e := base(p); e != nil {
				return 0, nil, e
			}
			return 0, nil, err
		}, nil
	}
	off := uint32(f.Offset)
	ft := f.Type
	return func(p *Proc) (uint32, *types.Type, error) {
		if p.coResuming {
			fr := p.popKRef()
			if fr.step != 0 { // 2: offset charge complete
				return fr.a + off, ft, nil
			}
		}
		base, _, err := base(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{})
			}
			return 0, nil, err
		}
		if err := p.chargeCycles(CostALU); err != nil {
			p.pushK(kframe{step: 2, a: base})
			return 0, nil, err
		}
		return base + off, ft, nil
	}, ft
}

func (c *compiler) compileUnary(n *ast.UnaryExpr) evalFn {
	switch n.Op {
	case token.Amp:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			if id.Sym != nil && id.Sym.Kind == ast.SymFunc {
				return c.compileIdent(id)
			}
			if id.Sym == nil && id.Name == "RCCE_COMM_WORLD" {
				v := PtrValue(types.PointerTo(types.OpaqueOf("RCCE_COMM")), 0)
				return func(p *Proc) (Value, error) { return v, nil }
			}
		}
		lf, st := c.compileLValue(n.X)
		// The pointer type is built here, once; an lvalue whose run-time
		// type is not its static one gets its own.
		var pt *types.Type
		if st != nil {
			pt = types.PointerTo(st)
		}
		return func(p *Proc) (Value, error) {
			if p.coResuming {
				fr := p.popKRef()
				if fr.step != 0 { // address charge complete
					return fr.v, nil
				}
			}
			addr, t, err := lf(p)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return Value{}, err
			}
			ptr := pt
			if t != st {
				ptr = types.PointerTo(t)
			}
			v := PtrValue(ptr, addr)
			if err := p.chargeCycles(CostALU); err != nil {
				p.pushK(kframe{step: 1, v: v})
				return Value{}, err
			}
			return v, nil
		}

	case token.Star:
		return c.compileLoadOf(c.compileLValue(n))

	case token.PlusPlus, token.MinusMinus:
		return c.compileIncDec(n.X, n.Op == token.MinusMinus, true)
	}

	x := c.compileExpr(n.X)
	// apply is the operator's pure half and its charge.
	var apply func(v Value) (Value, int)
	switch n.Op {
	case token.Minus:
		apply = func(v Value) (Value, int) {
			if v.IsFloat() {
				return FloatValue(v.T, -v.F), CostFAdd
			}
			return IntValue(v.T, -v.I), CostALU
		}
	case token.Plus:
		return x
	case token.Bang:
		apply = func(v Value) (Value, int) { return IntValue(types.IntType, b2i(!v.Bool())), CostALU }
	case token.Tilde:
		apply = func(v Value) (Value, int) { return IntValue(v.T, int64(int32(^uint32(v.Int())))), CostALU }
	default:
		err := fmt.Errorf("%s: unary %s unsupported", n.Pos(), n.Op)
		return func(p *Proc) (Value, error) { // transparent
			if _, e := x(p); e != nil {
				return Value{}, e
			}
			return Value{}, err
		}
	}
	// Units: 0 operand, 1 charged (the result saved).
	return func(p *Proc) (Value, error) {
		if p.coResuming {
			fr := p.popKRef()
			if fr.step != 0 {
				return fr.v, nil
			}
		}
		v, err := x(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{})
			}
			return Value{}, err
		}
		res, cost := apply(v)
		if err := p.chargeCycles(cost); err != nil {
			p.pushK(kframe{step: 1, v: res})
			return Value{}, err
		}
		return res, nil
	}
}

func (c *compiler) compileAssign(n *ast.AssignExpr) evalFn {
	lf, st := c.compileLValue(n.LHS)
	if st == nil {
		return failing(lf, errUnresolved)
	}
	rf := c.compileExpr(n.RHS)
	if n.Op == token.Assign {
		// Units: 0 lvalue, 1 RHS (a = address), 3 stored (the converted
		// value saved).
		return func(p *Proc) (Value, error) {
			var addr uint32
			step := 0
			if p.coResuming {
				fr := p.popKRef()
				if fr.step == 3 {
					return fr.v, nil
				}
				step, addr = fr.step, fr.a
			}
			if step == 0 {
				var err error
				if addr, _, err = lf(p); err != nil {
					if isYield(err) {
						p.pushK(kframe{})
					}
					return Value{}, err
				}
			}
			rhs, err := rf(p)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{step: 1, a: addr})
				}
				return Value{}, err
			}
			cv := Convert(rhs, st)
			if err := p.StoreTyped(addr, st, cv); err != nil {
				if isYield(err) {
					p.pushK(kframe{step: 3, v: cv})
				}
				return Value{}, err
			}
			return cv, nil
		}
	}
	op, ok := compoundOps[n.Op]
	if !ok {
		c.fail(n.Pos(), "assignment op "+n.Op.String()+" unsupported")
		return nil
	}
	// applyTail re-enters from the binary op (step 3 passes empty
	// operands — a suspended apply saved its own outcome); rhsTail
	// from the RHS (step 2); a store-yield saves the result (step 5).
	applyTail := func(p *Proc, addr uint32, old, rhs Value) (Value, error) {
		res, err := p.ApplyBinary(op, old, rhs, st)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 3, a: addr})
			}
			return Value{}, err
		}
		sv := Convert(res, st)
		if err := p.StoreTyped(addr, st, sv); err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 5, v: sv})
			}
			return Value{}, err
		}
		return sv, nil
	}
	rhsTail := func(p *Proc, addr uint32, old Value) (Value, error) {
		rhs, err := rf(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 2, a: addr, v: old})
			}
			return Value{}, err
		}
		return applyTail(p, addr, old, rhs)
	}
	return func(p *Proc) (Value, error) {
		if p.coResuming {
			fr := p.popKRef()
			switch fr.step {
			case 2:
				return rhsTail(p, fr.a, fr.v)
			case 3:
				return applyTail(p, fr.a, Value{}, Value{})
			case 5:
				return fr.v, nil
			}
		}
		addr, _, err := lf(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{})
			}
			return Value{}, err
		}
		old, err := p.LoadTyped(addr, st)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 2, a: addr, v: old})
			}
			return Value{}, err
		}
		return rhsTail(p, addr, old)
	}
}

// compileBinary lowers a binary operator whose operands' tags are only
// known at run time (&&, || and every provable shape lower in fuse.go).
// Units: 0 x, 1 y (v = x), 2 apply (a suspended apply saved its own
// outcome, so its re-entry passes empty operands).
func (c *compiler) compileBinary(n *ast.BinaryExpr) evalFn {
	x := c.compileExpr(n.X)
	y := c.compileExpr(n.Y)
	op, rt := n.Op, n.Typ
	return func(p *Proc) (Value, error) {
		var xv Value
		step := 0
		if p.coResuming {
			fr := p.popKRef()
			if fr.step == 2 {
				return p.ApplyBinary(op, Value{}, Value{}, rt)
			}
			step, xv = fr.step, fr.v
		}
		if step == 0 {
			var err error
			if xv, err = x(p); err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return Value{}, err
			}
		}
		yv, err := y(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 1, v: xv})
			}
			return Value{}, err
		}
		v, err := p.ApplyBinary(op, xv, yv, rt)
		if isYield(err) {
			p.pushK(kframe{step: 2})
		}
		return v, err
	}
}

// compileCall classifies the call site once — direct (callee resolved to
// its compiled form), indirect (function-pointer variable), or builtin
// (runtime dispatch by name, then the interned common-libc subset) — the
// exact classification evalCall re-derives on every execution. The
// argument arena stays extended across a suspension (evaluated arguments
// live there), so the frame only records the arena base to re-slice.
func (c *compiler) compileCall(n *ast.CallExpr) evalFn {
	pr := c.pr
	name := n.FuncName()
	argFns := make([]evalFn, len(n.Args))
	for i, a := range n.Args {
		argFns[i] = c.compileExpr(a)
	}
	nargs := len(argFns)
	cid := commonBuiltinID(name)
	unknownErr := fmt.Errorf("%s: call of unknown function %s", n.Pos(), name)
	// builtinTail dispatches runtime-then-common builtins, resumable at
	// either: step 0 re-enters the runtime builtin with the step and
	// state of the frame it saved, step 1 skips the runtime (it
	// declined without side effects) and re-enters the common builtin.
	builtinTail := func(p *Proc, argv []Value) (Value, error) {
		step, rstep, rstate := 0, 0, int64(0)
		if p.coResuming {
			step = p.popKRef().step
			if step == 0 && p.coResuming {
				fr := p.popKRef()
				rstep, rstate = fr.step, fr.n
			}
		}
		if step <= 0 {
			if rt := p.Sim.Runtime; rt != nil {
				v, handled, err := rt.CallBuiltin(p, name, argv, rstep, rstate)
				if err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 0})
					}
					return Value{}, err
				}
				if handled {
					return v, nil
				}
			}
		}
		v, handled, err := p.commonBuiltinByID(cid, argv)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 1})
			}
			return Value{}, err
		}
		if handled {
			return v, nil
		}
		return Value{}, unknownErr
	}

	indirect := false
	if name == "" || (n.Fun.ResultType() != nil && pr.Funcs[name] == nil && !IsBuiltin(name)) {
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Sym != nil && id.Sym.Kind != ast.SymFunc {
			indirect = true
		}
	}
	if indirect {
		funFn := c.compileExpr(n.Fun)
		invoke := func(p *Proc, fv Value, base int, argv []Value) (Value, error) {
			cf := p.Sim.Program.compiledByValue(fv)
			var v Value
			var err error
			if cf != nil {
				v, err = p.callCompiled(cf, argv)
			} else {
				v, err = builtinTail(p, argv)
			}
			if isYield(err) {
				p.pushK(kframe{step: 2, v: fv, a: uint32(base)})
				return Value{}, err
			}
			p.argArena = p.argArena[:base]
			return v, err
		}
		argsTail := func(p *Proc, fv Value) (Value, error) {
			argv, base, err := p.evalCompiledArgs(argFns)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{step: 1, v: fv})
				}
				return Value{}, err
			}
			return invoke(p, fv, base, argv)
		}
		return func(p *Proc) (Value, error) {
			if p.coResuming {
				fr := p.popKRef()
				switch fr.step {
				case 1:
					return argsTail(p, fr.v)
				case 2:
					base := int(fr.a)
					return invoke(p, fr.v, base, p.argArena[base:base+nargs:base+nargs])
				}
			}
			fv, err := funFn(p)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return Value{}, err
			}
			return argsTail(p, fv)
		}
	}
	// A direct call and a builtin call differ only in the callee.
	call := builtinTail
	if fn := pr.Funcs[name]; fn != nil && fn.Body != nil {
		cf := pr.compiled[fn]
		call = func(p *Proc, argv []Value) (Value, error) { return p.callCompiled(cf, argv) }
	}
	// Units: 0 arguments, 1 the call (a = the arena base).
	return func(p *Proc) (Value, error) {
		var argv []Value
		base := -1
		if p.coResuming {
			if fr := p.popKRef(); fr.step != 0 {
				base = int(fr.a)
				argv = p.argArena[base : base+nargs : base+nargs]
			}
		}
		if base < 0 {
			var err error
			if argv, base, err = p.evalCompiledArgs(argFns); err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return Value{}, err
			}
		}
		v, err := call(p, argv)
		if isYield(err) {
			p.pushK(kframe{step: 1, a: uint32(base)})
			return Value{}, err
		}
		p.argArena = p.argArena[:base]
		return v, err
	}
}
