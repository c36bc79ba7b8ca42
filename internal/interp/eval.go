package interp

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// evalExpr evaluates e to an rvalue (tree-walk reference; runs only on
// a reference context's goroutine, so the yield-capable primitives park
// internally and the propagated errors here are always real failures).
func (p *Proc) evalExpr(e ast.Expr) (Value, error) {
	switch n := e.(type) {
	case *ast.ParenExpr:
		return p.evalExpr(n.X)

	case *ast.IntLit:
		return IntValue(types.IntType, n.Value), nil
	case *ast.FloatLit:
		return FloatValue(types.DoubleType, n.Value), nil
	case *ast.CharLit:
		return IntValue(types.CharType, int64(n.Value)), nil
	case *ast.StringLit:
		addr, ok := p.Sim.Program.stringAddrs[n]
		if !ok {
			return Value{}, fmt.Errorf("%s: string literal not in image", n.Pos())
		}
		return PtrValue(types.PointerTo(types.CharType), addr), nil

	case *ast.Ident:
		return p.evalIdent(n)

	case *ast.BinaryExpr:
		return p.evalBinary(n)

	case *ast.AssignExpr:
		return p.evalAssign(n)

	case *ast.UnaryExpr:
		return p.evalUnary(n)

	case *ast.PostfixExpr:
		addr, t, err := p.evalLValue(n.X)
		if err != nil {
			return Value{}, err
		}
		old, err := p.loadValue(addr, t)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if n.Op == token.MinusMinus {
			delta = -1
		}
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		upd := p.stepValue(old, t, delta)
		if err := p.storeValue(addr, t, upd); err != nil {
			return Value{}, err
		}
		return old, nil

	case *ast.IndexExpr:
		addr, t, err := p.evalLValue(n)
		if err != nil {
			return Value{}, err
		}
		if t.Kind == types.Array {
			// Array element of array type decays to a pointer.
			return PtrValue(types.PointerTo(t.Elem), addr), nil
		}
		return p.loadValue(addr, t)

	case *ast.CallExpr:
		return p.evalCall(n)

	case *ast.CastExpr:
		v, err := p.evalExpr(n.X)
		if err != nil {
			return Value{}, err
		}
		if (v.IsFloat() && n.To.IsInteger()) || (!v.IsFloat() && n.To.IsFloat()) {
			if err := p.chargeCycles(costConv); err != nil {
				return Value{}, err
			}
		}
		return Convert(v, n.To), nil

	case *ast.SizeofExpr:
		t := n.OfType
		if t == nil && n.X != nil {
			t = n.X.ResultType()
		}
		if t == nil {
			return Value{}, fmt.Errorf("%s: sizeof untyped operand", n.Pos())
		}
		return IntValue(types.UIntType, int64(t.Size())), nil

	case *ast.CondExpr:
		cond, err := p.evalExpr(n.Cond)
		if err != nil {
			return Value{}, err
		}
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		if cond.Bool() {
			return p.evalExpr(n.Then)
		}
		return p.evalExpr(n.Else)

	case *ast.CommaExpr:
		if _, err := p.evalExpr(n.X); err != nil {
			return Value{}, err
		}
		return p.evalExpr(n.Y)

	case *ast.MemberExpr:
		addr, t, err := p.evalLValue(n)
		if err != nil {
			return Value{}, err
		}
		return p.loadValue(addr, t)

	default:
		return Value{}, fmt.Errorf("%s: cannot evaluate %T", e.Pos(), e)
	}
}

// evalIdent resolves an identifier occurrence as an rvalue.
func (p *Proc) evalIdent(n *ast.Ident) (Value, error) {
	if n.Sym == nil {
		// sema leaves NULL and runtime handles unresolved.
		switch n.Name {
		case "NULL":
			return PtrValue(types.PointerTo(types.VoidType), 0), nil
		case "RCCE_COMM_WORLD":
			return IntValue(types.OpaqueOf("RCCE_COMM"), 0), nil
		}
		return Value{}, fmt.Errorf("%s: unresolved identifier %s", n.Pos(), n.Name)
	}
	if n.Sym.Kind == ast.SymFunc {
		fn, ok := p.Sim.Program.Funcs[n.Name]
		if !ok {
			return Value{}, fmt.Errorf("%s: undefined function %s", n.Pos(), n.Name)
		}
		return p.Sim.Program.FuncValue(fn), nil
	}
	addr, ok := p.addrOfSymbol(n.Sym)
	if !ok {
		return Value{}, fmt.Errorf("%s: no storage for %s", n.Pos(), n.Name)
	}
	if n.Sym.Type.Kind == types.Array {
		if err := p.chargeCycles(costALU); err != nil { // address formation only
			return Value{}, err
		}
		return PtrValue(types.PointerTo(n.Sym.Type.Elem), addr), nil
	}
	return p.loadValue(addr, n.Sym.Type)
}

// evalLValue resolves e to (address, stored type).
func (p *Proc) evalLValue(e ast.Expr) (uint32, *types.Type, error) {
	switch n := e.(type) {
	case *ast.ParenExpr:
		return p.evalLValue(n.X)

	case *ast.Ident:
		if n.Sym == nil {
			return 0, nil, fmt.Errorf("%s: %s is not assignable", n.Pos(), n.Name)
		}
		addr, ok := p.addrOfSymbol(n.Sym)
		if !ok {
			return 0, nil, fmt.Errorf("%s: no storage for %s", n.Pos(), n.Name)
		}
		return addr, n.Sym.Type, nil

	case *ast.UnaryExpr:
		if n.Op != token.Star {
			return 0, nil, fmt.Errorf("%s: %s is not an lvalue", e.Pos(), n.Op)
		}
		v, err := p.evalExpr(n.X)
		if err != nil {
			return 0, nil, err
		}
		t := n.X.ResultType()
		var elem *types.Type
		if t != nil && t.IsPointerLike() {
			elem = t.Decay().Elem
		}
		if elem == nil {
			elem = types.IntType
		}
		if v.Addr() == 0 {
			return 0, nil, fmt.Errorf("%s: null pointer dereference", e.Pos())
		}
		return v.Addr(), elem, nil

	case *ast.IndexExpr:
		base, elem, err := p.indexBase(n)
		if err != nil {
			return 0, nil, err
		}
		idx, err := p.evalExpr(n.Index)
		if err != nil {
			return 0, nil, err
		}
		if err := p.chargeCycles(costALU); err != nil { // address arithmetic
			return 0, nil, err
		}
		return base + uint32(idx.Int()*int64(elem.Size())), elem, nil

	case *ast.MemberExpr:
		var base uint32
		var st *types.Type
		if n.Arrow {
			v, err := p.evalExpr(n.X)
			if err != nil {
				return 0, nil, err
			}
			base = v.Addr()
			t := n.X.ResultType()
			if t == nil || t.Elem == nil {
				return 0, nil, fmt.Errorf("%s: -> on non-pointer", e.Pos())
			}
			st = t.Elem
		} else {
			a, t, err := p.evalLValue(n.X)
			if err != nil {
				return 0, nil, err
			}
			base, st = a, t
		}
		f, ok := st.Field(n.Name)
		if !ok {
			return 0, nil, fmt.Errorf("%s: no field %s in %s", e.Pos(), n.Name, st)
		}
		if err := p.chargeCycles(costALU); err != nil {
			return 0, nil, err
		}
		return base + uint32(f.Offset), f.Type, nil

	default:
		return 0, nil, fmt.Errorf("%s: %T is not an lvalue", e.Pos(), e)
	}
}

// indexBase resolves the base address and element type of x[i]: arrays
// use their storage directly, pointers load the pointer value first.
func (p *Proc) indexBase(n *ast.IndexExpr) (uint32, *types.Type, error) {
	bt := n.X.ResultType()
	if bt != nil && bt.Kind == types.Array {
		addr, t, err := p.evalLValue(n.X)
		if err != nil {
			return 0, nil, err
		}
		return addr, t.Elem, nil
	}
	v, err := p.evalExpr(n.X)
	if err != nil {
		return 0, nil, err
	}
	var elem *types.Type
	if bt != nil && bt.IsPointerLike() {
		elem = bt.Decay().Elem
	}
	if elem == nil {
		elem = types.IntType
	}
	if v.Addr() == 0 {
		return 0, nil, fmt.Errorf("%s: indexing a null pointer", n.Pos())
	}
	return v.Addr(), elem, nil
}

// evalUnary handles prefix operators.
func (p *Proc) evalUnary(n *ast.UnaryExpr) (Value, error) {
	switch n.Op {
	case token.Amp:
		// &x: no memory access, just address formation. Function names
		// appear here too (`&tf`), as does the synthetic communicator
		// handle `&RCCE_COMM_WORLD` (storage-less; the barrier builtin
		// ignores its argument, matching RCCE's global communicator).
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			if id.Sym != nil && id.Sym.Kind == ast.SymFunc {
				return p.evalIdent(id)
			}
			if id.Sym == nil && id.Name == "RCCE_COMM_WORLD" {
				return PtrValue(types.PointerTo(types.OpaqueOf("RCCE_COMM")), 0), nil
			}
		}
		addr, t, err := p.evalLValue(n.X)
		if err != nil {
			return Value{}, err
		}
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		return PtrValue(types.PointerTo(t), addr), nil

	case token.Star:
		addr, t, err := p.evalLValue(n)
		if err != nil {
			return Value{}, err
		}
		if t.Kind == types.Array {
			return PtrValue(types.PointerTo(t.Elem), addr), nil
		}
		return p.loadValue(addr, t)

	case token.PlusPlus, token.MinusMinus:
		addr, t, err := p.evalLValue(n.X)
		if err != nil {
			return Value{}, err
		}
		old, err := p.loadValue(addr, t)
		if err != nil {
			return Value{}, err
		}
		delta := int64(1)
		if n.Op == token.MinusMinus {
			delta = -1
		}
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		upd := p.stepValue(old, t, delta)
		if err := p.storeValue(addr, t, upd); err != nil {
			return Value{}, err
		}
		return upd, nil
	}

	v, err := p.evalExpr(n.X)
	if err != nil {
		return Value{}, err
	}
	switch n.Op {
	case token.Minus:
		if v.IsFloat() {
			if err := p.chargeCycles(costFAdd); err != nil {
				return Value{}, err
			}
			return FloatValue(v.T, -v.F), nil
		}
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		return IntValue(v.T, -v.I), nil
	case token.Plus:
		return v, nil
	case token.Bang:
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		if v.Bool() {
			return IntValue(types.IntType, 0), nil
		}
		return IntValue(types.IntType, 1), nil
	case token.Tilde:
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		return IntValue(v.T, int64(int32(^uint32(v.Int())))), nil
	default:
		return Value{}, fmt.Errorf("%s: unary %s unsupported", n.Pos(), n.Op)
	}
}

// evalAssign handles = and compound assignments.
func (p *Proc) evalAssign(n *ast.AssignExpr) (Value, error) {
	addr, t, err := p.evalLValue(n.LHS)
	if err != nil {
		return Value{}, err
	}
	if n.Op == token.Assign {
		rhs, err := p.evalExpr(n.RHS)
		if err != nil {
			return Value{}, err
		}
		v := Convert(rhs, t)
		if err := p.storeValue(addr, t, v); err != nil {
			return Value{}, err
		}
		return v, nil
	}
	old, err := p.loadValue(addr, t)
	if err != nil {
		return Value{}, err
	}
	rhs, err := p.evalExpr(n.RHS)
	if err != nil {
		return Value{}, err
	}
	op, ok := compoundOps[n.Op]
	if !ok {
		return Value{}, fmt.Errorf("%s: assignment op %s unsupported", n.Pos(), n.Op)
	}
	res, err := p.applyBinary(op, old, rhs, t)
	if err != nil {
		return Value{}, err
	}
	v := Convert(res, t)
	if err := p.storeValue(addr, t, v); err != nil {
		return Value{}, err
	}
	return v, nil
}

// evalBinary handles binary operators including short-circuit logic and
// pointer arithmetic.
func (p *Proc) evalBinary(n *ast.BinaryExpr) (Value, error) {
	if n.Op == token.AndAnd || n.Op == token.OrOr {
		x, err := p.evalExpr(n.X)
		if err != nil {
			return Value{}, err
		}
		if err := p.chargeCycles(costALU); err != nil {
			return Value{}, err
		}
		if n.Op == token.AndAnd && !x.Bool() {
			return IntValue(types.IntType, 0), nil
		}
		if n.Op == token.OrOr && x.Bool() {
			return IntValue(types.IntType, 1), nil
		}
		y, err := p.evalExpr(n.Y)
		if err != nil {
			return Value{}, err
		}
		if y.Bool() {
			return IntValue(types.IntType, 1), nil
		}
		return IntValue(types.IntType, 0), nil
	}
	x, err := p.evalExpr(n.X)
	if err != nil {
		return Value{}, err
	}
	y, err := p.evalExpr(n.Y)
	if err != nil {
		return Value{}, err
	}
	return p.applyBinary(n.Op, x, y, n.Typ)
}
