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
	// A local, or an operator or cast over operands, of provable tag
	// lowers fused (fuse.go), boxed for this generic context.
	if o := c.classify(e); o.shape == shSlot || o.shape == shExpr && !o.lvalue {
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
				if err := p.chargeCycles(costConv); err != nil {
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
			if err := p.chargeCycles(costALU); err != nil {
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
		if st == nil {
			return failing(lf)
		}
		return loadThrough(lf, st) // an array member does not decay: the reference loads it, and fails

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
		return failing(lf)
	}
	delta := int64(1)
	if minus {
		delta = -1
	}
	ld, sf := makeLoad(st), makeStore(st)
	// tail finishes the operation from the post-load charge (step 2)
	// or the store (step 3).
	tail := func(p *Proc, addr uint32, old Value, step int) (Value, error) {
		if step <= 2 {
			if err := p.chargeCycles(costALU); err != nil {
				p.pushK(kframe{step: 3, a: addr, v: old})
				return Value{}, err
			}
		}
		res := old
		upd := p.stepValue(old, st, delta)
		if prefix {
			res = upd
		}
		if _, err := sf(p, addr, upd); err != nil {
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
		old, err := ld(p, addr)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 2, a: addr, v: old})
			}
			return Value{}, err
		}
		return tail(p, addr, old, 2)
	}
}

// stepValue adds delta respecting pointer scaling.
func (p *Proc) stepValue(v Value, t *types.Type, delta int64) Value {
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
	if idx, ok := c.slotIdx[n.Sym]; ok {
		if typ.Kind == types.Array {
			pt := types.PointerTo(typ.Elem)
			return func(p *Proc) (Value, error) {
				if p.coResuming {
					p.popKRef()
				} else if err := p.chargeCycles(costALU); err != nil {
					p.pushK(kframe{step: 1})
					return Value{}, err
				}
				return PtrValue(pt, p.slotAddr(idx)), nil
			}
		}
		ld := makeLoad(typ)
		return func(p *Proc) (Value, error) {
			if p.coResuming {
				return p.popKRef().v, nil
			}
			v, err := ld(p, p.slotAddr(idx))
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{v: v})
				}
				return Value{}, err
			}
			return v, nil
		}
	}
	if addr, ok := c.pr.GlobalAddr(n.Sym); ok {
		if typ.Kind == types.Array {
			v := PtrValue(types.PointerTo(typ.Elem), addr)
			return func(p *Proc) (Value, error) {
				if p.coResuming {
					p.popKRef()
				} else if err := p.chargeCycles(costALU); err != nil {
					p.pushK(kframe{step: 1})
					return Value{}, err
				}
				return v, nil
			}
		}
		ld := makeLoad(typ)
		return func(p *Proc) (Value, error) {
			if p.coResuming {
				return p.popKRef().v, nil
			}
			v, err := ld(p, addr)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{v: v})
				}
				return Value{}, err
			}
			return v, nil
		}
	}
	return errEval(fmt.Errorf("%s: no storage for %s", n.Pos(), n.Name))
}

// compileLoadOf turns a compiled lvalue into an rvalue closure: arrays
// decay to element pointers, everything else loads through the typed
// accessor.
func (c *compiler) compileLoadOf(lf lvalFn, st *types.Type) evalFn {
	if st == nil {
		return failing(lf)
	}
	if st.Kind == types.Array {
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
	return loadThrough(lf, st)
}

// loadThrough loads a value of type st at the address lf resolves.
// Units: 0 lvalue, 1 loaded (the value saved).
func loadThrough(lf lvalFn, st *types.Type) evalFn {
	ld := makeLoad(st)
	return func(p *Proc) (Value, error) {
		if p.coResuming {
			fr := p.popKRef()
			if fr.step != 0 {
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
		v, err := ld(p, addr)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 1, v: v})
			}
			return Value{}, err
		}
		return v, nil
	}
}

// failing lowers a use of an lvalue whose stored type lowering could not
// resolve. Such a resolver never produces an address — every nil-typed
// return of compileLValue fails at run time, after evaluating what the
// reference evaluates first — so its error is the use's outcome.
// Transparent.
func failing(lf lvalFn) evalFn {
	return func(p *Proc) (Value, error) {
		_, _, err := lf(p)
		if err == nil {
			err = errors.New("interp: lvalue of unresolved type")
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
		nullErr := fmt.Errorf("%s: null pointer dereference", e.Pos())
		// Transparent: only the pointer expression can suspend.
		return func(p *Proc) (uint32, *types.Type, error) {
			v, err := x(p)
			if err != nil {
				return 0, nil, err
			}
			if v.Addr() == 0 {
				return 0, nil, nullErr
			}
			return v.Addr(), elem, nil
		}, elem

	case *ast.IndexExpr:
		return c.compileIndexLValue(n)

	case *ast.MemberExpr:
		return c.compileMemberLValue(n)

	default:
		err := fmt.Errorf("%s: %T is not an lvalue", e.Pos(), e)
		return func(p *Proc) (uint32, *types.Type, error) { return 0, nil, err }, nil
	}
}

// compileIndexLValue lowers x[i], replicating indexBase: array-typed
// bases use their storage address, pointer bases load the pointer first.
// Units: 0 base resolve, 1 index eval (a = base), 2 address charge
// (a = base, n = index), 3 done.
func (c *compiler) compileIndexLValue(n *ast.IndexExpr) (lvalFn, *types.Type) {
	if lf, elem := c.fuseIndex(n); lf != nil {
		return lf, elem
	}
	idxFn := c.compileExpr(n.Index)
	bt := n.X.ResultType()
	var elem *types.Type
	var baseFn lvalFn
	if bt != nil && bt.Kind == types.Array {
		var staticT *types.Type
		if baseFn, staticT = c.compileLValue(n.X); staticT == nil {
			return baseFn, nil
		}
		if elem = staticT.Elem; elem == nil {
			c.fail(n.Pos(), "indexed array has no element type")
			return nil, nil
		}
	} else {
		xFn := c.compileExpr(n.X)
		nullErr := fmt.Errorf("%s: indexing a null pointer", n.Pos())
		baseFn = func(p *Proc) (uint32, *types.Type, error) { // transparent
			bv, err := xFn(p)
			if err == nil && bv.Addr() == 0 {
				err = nullErr
			}
			return bv.Addr(), nil, err
		}
		if bt != nil && bt.IsPointerLike() {
			elem = bt.Decay().Elem
		}
		if elem == nil {
			elem = types.IntType
		}
	}
	elemSize := int64(elem.Size())
	return func(p *Proc) (uint32, *types.Type, error) {
		var base uint32
		step := 0
		if p.coResuming {
			fr := p.popKRef()
			if fr.step == 3 {
				return fr.a + uint32(fr.n*elemSize), elem, nil
			}
			step, base = fr.step, fr.a
		}
		if step == 0 {
			var err error
			if base, _, err = baseFn(p); err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return 0, nil, err
			}
		}
		v, err := idxFn(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 1, a: base})
			}
			return 0, nil, err
		}
		iv := v.Int()
		if err := p.chargeCycles(costALU); err != nil {
			p.pushK(kframe{step: 3, a: base, n: iv})
			return 0, nil, err
		}
		return base + uint32(iv*elemSize), elem, nil
	}, elem
}

// compileMemberLValue lowers x.f / x->f with the field offset resolved
// at compile time whenever the struct type is statically known.
// Units: 0 base, 1 offset charge (a = base), 2 done.
func (c *compiler) compileMemberLValue(n *ast.MemberExpr) (lvalFn, *types.Type) {
	// evalThenErr preserves the reference error flow: evaluate the inner
	// expression for its effects, then report the structural error.
	evalThenErr := func(x evalFn, err error) lvalFn {
		return func(p *Proc) (uint32, *types.Type, error) { // transparent
			if _, e := x(p); e != nil {
				return 0, nil, e
			}
			return 0, nil, err
		}
	}
	if n.Arrow {
		t := n.X.ResultType()
		if t == nil || t.Elem == nil {
			return evalThenErr(c.compileExpr(n.X), fmt.Errorf("%s: -> on non-pointer", n.Pos())), nil
		}
		st := t.Elem
		f, ok := st.Field(n.Name)
		if !ok {
			return evalThenErr(c.compileExpr(n.X), fmt.Errorf("%s: no field %s in %s", n.Pos(), n.Name, st)), nil
		}
		x := c.compileExpr(n.X)
		off := uint32(f.Offset)
		ft := f.Type
		return func(p *Proc) (uint32, *types.Type, error) {
			if p.coResuming {
				fr := p.popKRef()
				if fr.step != 0 { // 2: offset charge complete
					return fr.a + off, ft, nil
				}
			}
			v, err := x(p)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{})
				}
				return 0, nil, err
			}
			base := v.Addr()
			if err := p.chargeCycles(costALU); err != nil {
				p.pushK(kframe{step: 2, a: base})
				return 0, nil, err
			}
			return base + off, ft, nil
		}, ft
	}
	baseFn, staticT := c.compileLValue(n.X)
	if staticT == nil {
		return baseFn, nil
	}
	f, ok := staticT.Field(n.Name)
	if !ok {
		err := fmt.Errorf("%s: no field %s in %s", n.Pos(), n.Name, staticT)
		return func(p *Proc) (uint32, *types.Type, error) { // transparent
			if _, _, e := baseFn(p); e != nil {
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
		base, _, err := baseFn(p)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{})
			}
			return 0, nil, err
		}
		if err := p.chargeCycles(costALU); err != nil {
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
			if err := p.chargeCycles(costALU); err != nil {
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
				return FloatValue(v.T, -v.F), costFAdd
			}
			return IntValue(v.T, -v.I), costALU
		}
	case token.Plus:
		return x
	case token.Bang:
		apply = func(v Value) (Value, int) { return IntValue(types.IntType, b2i(!v.Bool())), costALU }
	case token.Tilde:
		apply = func(v Value) (Value, int) { return IntValue(v.T, int64(int32(^uint32(v.Int())))), costALU }
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
		return failing(lf)
	}
	rf := c.compileExpr(n.RHS)
	sf := makeStore(st)
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
			cv, err := sf(p, addr, rhs)
			if err != nil {
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
	ld := makeLoad(st)
	// applyTail re-enters from the binary op (step 3 passes empty
	// operands — a suspended apply saved its own outcome); rhsTail
	// from the RHS (step 2); a store-yield saves the result (step 5).
	applyTail := func(p *Proc, addr uint32, old, rhs Value) (Value, error) {
		res, err := p.applyBinary(op, old, rhs, st)
		if err != nil {
			if isYield(err) {
				p.pushK(kframe{step: 3, a: addr})
			}
			return Value{}, err
		}
		sv, err := sf(p, addr, res)
		if err != nil {
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
		old, err := ld(p, addr)
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
				return p.applyBinary(op, Value{}, Value{}, rt)
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
		v, err := p.applyBinary(op, xv, yv, rt)
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
	// either: step 0 re-enters the runtime builtin, step 1 skips the
	// runtime (it declined without side effects) and re-enters the
	// common builtin.
	builtinTail := func(p *Proc, argv []Value) (Value, error) {
		step := 0
		if p.coResuming {
			step = p.popKRef().step
		}
		if step <= 0 {
			if rt := p.Sim.Runtime; rt != nil {
				v, handled, err := rt.CallBuiltin(p, name, argv)
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
	if name == "" || (n.Fun.ResultType() != nil && pr.Funcs[name] == nil && !isKnownBuiltin(name)) {
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
