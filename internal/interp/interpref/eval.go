package interpref

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/interp"
)

// evalExpr evaluates e to an rvalue. It runs only on the walk's own
// goroutine, where the yield-capable primitives park internally, so the
// propagated errors here are always real failures.
func (p *walk) evalExpr(e ast.Expr) (interp.Value, error) {
	switch n := e.(type) {
	case *ast.ParenExpr:
		return p.evalExpr(n.X)

	case *ast.IntLit:
		return interp.IntValue(types.IntType, n.Value), nil
	case *ast.FloatLit:
		return interp.FloatValue(types.DoubleType, n.Value), nil
	case *ast.CharLit:
		return interp.IntValue(types.CharType, int64(n.Value)), nil
	case *ast.StringLit:
		addr, ok := p.Sim.Program.StringAddr(n)
		if !ok {
			return interp.Value{}, fmt.Errorf("%s: string literal not in image", n.Pos())
		}
		return interp.PtrValue(types.PointerTo(types.CharType), addr), nil

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
			return interp.Value{}, err
		}
		old, err := p.LoadTyped(addr, t)
		if err != nil {
			return interp.Value{}, err
		}
		delta := int64(1)
		if n.Op == token.MinusMinus {
			delta = -1
		}
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		upd := p.StepValue(old, t, delta)
		if err := p.StoreTyped(addr, t, upd); err != nil {
			return interp.Value{}, err
		}
		return old, nil

	case *ast.IndexExpr:
		addr, t, err := p.evalLValue(n)
		if err != nil {
			return interp.Value{}, err
		}
		if t.Kind == types.Array {
			// Array element of array type decays to a pointer.
			return interp.PtrValue(types.PointerTo(t.Elem), addr), nil
		}
		return p.LoadTyped(addr, t)

	case *ast.CallExpr:
		return p.evalCall(n)

	case *ast.CastExpr:
		v, err := p.evalExpr(n.X)
		if err != nil {
			return interp.Value{}, err
		}
		if (v.IsFloat() && n.To.IsInteger()) || (!v.IsFloat() && n.To.IsFloat()) {
			if err := p.ChargeCycles(interp.CostConv); err != nil {
				return interp.Value{}, err
			}
		}
		return interp.Convert(v, n.To), nil

	case *ast.SizeofExpr:
		t := n.OfType
		if t == nil && n.X != nil {
			t = n.X.ResultType()
		}
		if t == nil {
			return interp.Value{}, fmt.Errorf("%s: sizeof untyped operand", n.Pos())
		}
		return interp.IntValue(types.UIntType, int64(t.Size())), nil

	case *ast.CondExpr:
		cond, err := p.evalExpr(n.Cond)
		if err != nil {
			return interp.Value{}, err
		}
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		if cond.Bool() {
			return p.evalExpr(n.Then)
		}
		return p.evalExpr(n.Else)

	case *ast.CommaExpr:
		if _, err := p.evalExpr(n.X); err != nil {
			return interp.Value{}, err
		}
		return p.evalExpr(n.Y)

	case *ast.MemberExpr:
		addr, t, err := p.evalLValue(n)
		if err != nil {
			return interp.Value{}, err
		}
		return p.LoadTyped(addr, t)

	default:
		return interp.Value{}, fmt.Errorf("%s: cannot evaluate %T", e.Pos(), e)
	}
}

// evalIdent resolves an identifier occurrence as an rvalue.
func (p *walk) evalIdent(n *ast.Ident) (interp.Value, error) {
	if n.Sym == nil {
		// sema leaves NULL and runtime handles unresolved.
		switch n.Name {
		case "NULL":
			return interp.PtrValue(types.PointerTo(types.VoidType), 0), nil
		case "RCCE_COMM_WORLD":
			return interp.IntValue(types.OpaqueOf("RCCE_COMM"), 0), nil
		}
		return interp.Value{}, fmt.Errorf("%s: unresolved identifier %s", n.Pos(), n.Name)
	}
	if n.Sym.Kind == ast.SymFunc {
		fn, ok := p.Sim.Program.Funcs[n.Name]
		if !ok {
			return interp.Value{}, fmt.Errorf("%s: undefined function %s", n.Pos(), n.Name)
		}
		return p.Sim.Program.FuncValue(fn), nil
	}
	addr, ok := p.addrOfSymbol(n.Sym)
	if !ok {
		return interp.Value{}, fmt.Errorf("%s: no storage for %s", n.Pos(), n.Name)
	}
	if n.Sym.Type.Kind == types.Array {
		if err := p.ChargeCycles(interp.CostALU); err != nil { // address formation only
			return interp.Value{}, err
		}
		return interp.PtrValue(types.PointerTo(n.Sym.Type.Elem), addr), nil
	}
	return p.LoadTyped(addr, n.Sym.Type)
}

// evalLValue resolves e to (address, stored type).
func (p *walk) evalLValue(e ast.Expr) (uint32, *types.Type, error) {
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
		if err := p.ChargeCycles(interp.CostALU); err != nil { // address arithmetic
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
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return 0, nil, err
		}
		return base + uint32(f.Offset), f.Type, nil

	default:
		return 0, nil, fmt.Errorf("%s: %T is not an lvalue", e.Pos(), e)
	}
}

// indexBase resolves the base address and element type of x[i]: arrays
// use their storage directly, pointers load the pointer value first.
func (p *walk) indexBase(n *ast.IndexExpr) (uint32, *types.Type, error) {
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
	return v.Addr(), elem, nil
}

// evalUnary handles prefix operators.
func (p *walk) evalUnary(n *ast.UnaryExpr) (interp.Value, error) {
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
				return interp.PtrValue(types.PointerTo(types.OpaqueOf("RCCE_COMM")), 0), nil
			}
		}
		addr, t, err := p.evalLValue(n.X)
		if err != nil {
			return interp.Value{}, err
		}
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		return interp.PtrValue(types.PointerTo(t), addr), nil

	case token.Star:
		addr, t, err := p.evalLValue(n)
		if err != nil {
			return interp.Value{}, err
		}
		if t.Kind == types.Array {
			return interp.PtrValue(types.PointerTo(t.Elem), addr), nil
		}
		return p.LoadTyped(addr, t)

	case token.PlusPlus, token.MinusMinus:
		addr, t, err := p.evalLValue(n.X)
		if err != nil {
			return interp.Value{}, err
		}
		old, err := p.LoadTyped(addr, t)
		if err != nil {
			return interp.Value{}, err
		}
		delta := int64(1)
		if n.Op == token.MinusMinus {
			delta = -1
		}
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		upd := p.StepValue(old, t, delta)
		if err := p.StoreTyped(addr, t, upd); err != nil {
			return interp.Value{}, err
		}
		return upd, nil
	}

	v, err := p.evalExpr(n.X)
	if err != nil {
		return interp.Value{}, err
	}
	switch n.Op {
	case token.Minus:
		if v.IsFloat() {
			if err := p.ChargeCycles(interp.CostFAdd); err != nil {
				return interp.Value{}, err
			}
			return interp.FloatValue(v.T, -v.F), nil
		}
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		return interp.IntValue(v.T, -v.I), nil
	case token.Plus:
		return v, nil
	case token.Bang:
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		if v.Bool() {
			return interp.IntValue(types.IntType, 0), nil
		}
		return interp.IntValue(types.IntType, 1), nil
	case token.Tilde:
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		return interp.IntValue(v.T, int64(int32(^uint32(v.Int())))), nil
	default:
		return interp.Value{}, fmt.Errorf("%s: unary %s unsupported", n.Pos(), n.Op)
	}
}

// evalAssign handles = and compound assignments.
func (p *walk) evalAssign(n *ast.AssignExpr) (interp.Value, error) {
	addr, t, err := p.evalLValue(n.LHS)
	if err != nil {
		return interp.Value{}, err
	}
	if n.Op == token.Assign {
		rhs, err := p.evalExpr(n.RHS)
		if err != nil {
			return interp.Value{}, err
		}
		v := interp.Convert(rhs, t)
		if err := p.StoreTyped(addr, t, v); err != nil {
			return interp.Value{}, err
		}
		return v, nil
	}
	old, err := p.LoadTyped(addr, t)
	if err != nil {
		return interp.Value{}, err
	}
	rhs, err := p.evalExpr(n.RHS)
	if err != nil {
		return interp.Value{}, err
	}
	op, ok := interp.CompoundOp(n.Op)
	if !ok {
		return interp.Value{}, fmt.Errorf("%s: assignment op %s unsupported", n.Pos(), n.Op)
	}
	res, err := p.ApplyBinary(op, old, rhs, t)
	if err != nil {
		return interp.Value{}, err
	}
	v := interp.Convert(res, t)
	if err := p.StoreTyped(addr, t, v); err != nil {
		return interp.Value{}, err
	}
	return v, nil
}

// evalBinary handles binary operators including short-circuit logic and
// pointer arithmetic.
func (p *walk) evalBinary(n *ast.BinaryExpr) (interp.Value, error) {
	if n.Op == token.AndAnd || n.Op == token.OrOr {
		x, err := p.evalExpr(n.X)
		if err != nil {
			return interp.Value{}, err
		}
		if err := p.ChargeCycles(interp.CostALU); err != nil {
			return interp.Value{}, err
		}
		if n.Op == token.AndAnd && !x.Bool() {
			return interp.IntValue(types.IntType, 0), nil
		}
		if n.Op == token.OrOr && x.Bool() {
			return interp.IntValue(types.IntType, 1), nil
		}
		y, err := p.evalExpr(n.Y)
		if err != nil {
			return interp.Value{}, err
		}
		if y.Bool() {
			return interp.IntValue(types.IntType, 1), nil
		}
		return interp.IntValue(types.IntType, 0), nil
	}
	x, err := p.evalExpr(n.X)
	if err != nil {
		return interp.Value{}, err
	}
	y, err := p.evalExpr(n.Y)
	if err != nil {
		return interp.Value{}, err
	}
	return p.ApplyBinary(n.Op, x, y, n.Typ)
}

// evalCall dispatches a call: defined functions first (directly by name
// or through a function pointer), then the runtime's builtins, then the
// interpreter's common libc subset.
func (p *walk) evalCall(n *ast.CallExpr) (interp.Value, error) {
	name := n.FuncName()

	// Indirect call through an expression or function-valued variable.
	if name == "" || (n.Fun.ResultType() != nil && p.Sim.Program.Funcs[name] == nil && !interp.IsBuiltin(name)) {
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Sym != nil && id.Sym.Kind != ast.SymFunc {
			fv, err := p.evalExpr(n.Fun)
			if err != nil {
				return interp.Value{}, err
			}
			if fn := p.Sim.Program.FuncByValue(fv); fn != nil {
				args, err := p.evalArgs(n.Args)
				if err != nil {
					return interp.Value{}, err
				}
				return p.callTree(fn, args)
			}
		}
	}

	if fn, ok := p.Sim.Program.Funcs[name]; ok && fn.Body != nil {
		args, err := p.evalArgs(n.Args)
		if err != nil {
			return interp.Value{}, err
		}
		return p.callTree(fn, args)
	}

	args, err := p.evalArgs(n.Args)
	if err != nil {
		return interp.Value{}, err
	}
	v, handled, err := p.CallBuiltin(name, args)
	if err != nil {
		return interp.Value{}, err
	}
	if handled {
		return v, nil
	}
	return interp.Value{}, fmt.Errorf("%s: call of unknown function %s", n.Pos(), name)
}

func (p *walk) evalArgs(exprs []ast.Expr) ([]interp.Value, error) {
	args := make([]interp.Value, len(exprs))
	for i, e := range exprs {
		v, err := p.evalExpr(e)
		if err != nil {
			return nil, err
		}
		args[i] = v
		if err := p.ChargeCycles(interp.CostALU); err != nil { // argument push
			return nil, err
		}
	}
	return args, nil
}
