package interp

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
)

// callTree runs fn(args) to completion in a fresh tree-walk frame. The
// tree-walk only runs on a reference context's goroutine, where the
// yield-capable primitives park internally and never return the yield
// sentinel.
func (p *Proc) callTree(fn *ast.FuncDecl, args []Value) (Value, error) {
	if fn.Body == nil {
		return Value{}, fmt.Errorf("call of undefined function %s", fn.Name)
	}
	p.Calls++
	if err := p.chargeCycles(costCall); err != nil {
		return Value{}, err
	}
	fr, err := p.pushFrame(fn)
	if err != nil {
		return Value{}, err
	}
	defer p.popFrame()
	for i, prm := range fn.Params {
		if prm.Sym == nil {
			continue
		}
		var v Value
		if i < len(args) {
			v = args[i]
		}
		if err := p.storeValue(fr.slots[prm.Sym], prm.Type, v); err != nil {
			return Value{}, err
		}
	}
	var ret Value
	if _, err := p.execBlock(fn.Body, &ret); err != nil {
		return Value{}, err
	}
	if err := p.chargeCycles(costReturn); err != nil {
		return Value{}, err
	}
	return ret, nil
}

func (p *Proc) execBlock(b *ast.BlockStmt, ret *Value) (ctrl, error) {
	for _, s := range b.List {
		c, err := p.execStmt(s, ret)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (p *Proc) execStmt(s ast.Stmt, ret *Value) (ctrl, error) {
	p.Ops++
	switch n := s.(type) {
	case *ast.BlockStmt:
		return p.execBlock(n, ret)

	case *ast.DeclStmt:
		d := n.Decl
		if d.Sym == nil {
			return ctrlNone, nil
		}
		addr, ok := p.addrOfSymbol(d.Sym)
		if !ok {
			return ctrlNone, fmt.Errorf("%s: local %s has no slot", d.Pos(), d.Name)
		}
		if d.Init != nil {
			v, err := p.evalExpr(d.Init)
			if err != nil {
				return ctrlNone, err
			}
			if err := p.storeValue(addr, d.Type, v); err != nil {
				return ctrlNone, err
			}
		}
		for i, e := range d.InitLst {
			elem := d.Type.Elem
			if elem == nil {
				return ctrlNone, fmt.Errorf("%s: aggregate initialiser on scalar %s", d.Pos(), d.Name)
			}
			v, err := p.evalExpr(e)
			if err != nil {
				return ctrlNone, err
			}
			if err := p.storeValue(addr+uint32(i*elem.Size()), elem, v); err != nil {
				return ctrlNone, err
			}
		}
		// `int a[3] = {0}` zero-fills the remainder; PageMem starts
		// zeroed but the slot may be reused stack memory.
		if len(n.Decl.InitLst) > 0 && d.Type.Kind == types.Array {
			elem := d.Type.Elem
			zero := IntValue(types.IntType, 0)
			for i := len(n.Decl.InitLst); i < d.Type.Len; i++ {
				if err := p.storeValue(addr+uint32(i*elem.Size()), elem, zero); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil

	case *ast.ExprStmt:
		_, err := p.evalExpr(n.X)
		return ctrlNone, err

	case *ast.IfStmt:
		cond, err := p.evalExpr(n.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if err := p.chargeCycles(costALU); err != nil {
			return ctrlNone, err
		}
		if cond.Bool() {
			return p.execStmt(n.Then, ret)
		}
		if n.Else != nil {
			return p.execStmt(n.Else, ret)
		}
		return ctrlNone, nil

	case *ast.ForStmt:
		if n.Init != nil {
			if _, err := p.execStmt(n.Init, ret); err != nil {
				return ctrlNone, err
			}
		}
		for {
			// A for without a condition still pays its back-edge branch:
			// an iteration that charges nothing would never reach a
			// scheduling point, and `for (;;);` would hang the host.
			cond := IntValue(types.IntType, 1)
			if n.Cond != nil {
				var err error
				if cond, err = p.evalExpr(n.Cond); err != nil {
					return ctrlNone, err
				}
			}
			if err := p.chargeCycles(costALU); err != nil {
				return ctrlNone, err
			}
			if !cond.Bool() {
				break
			}
			c, err := p.execStmt(n.Body, ret)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return c, nil
			}
			if n.Post != nil {
				if _, err := p.evalExpr(n.Post); err != nil {
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil

	case *ast.WhileStmt:
		for {
			cond, err := p.evalExpr(n.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if err := p.chargeCycles(costALU); err != nil {
				return ctrlNone, err
			}
			if !cond.Bool() {
				return ctrlNone, nil
			}
			c, err := p.execStmt(n.Body, ret)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
		}

	case *ast.DoWhileStmt:
		for {
			c, err := p.execStmt(n.Body, ret)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return c, nil
			}
			cond, err := p.evalExpr(n.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if err := p.chargeCycles(costALU); err != nil {
				return ctrlNone, err
			}
			if !cond.Bool() {
				return ctrlNone, nil
			}
		}

	case *ast.SwitchStmt:
		tag, err := p.evalExpr(n.Tag)
		if err != nil {
			return ctrlNone, err
		}
		if err := p.chargeCycles(costALU); err != nil {
			return ctrlNone, err
		}
		matched := false
		for _, cl := range n.Cases {
			if !matched {
				if cl.Value == nil {
					matched = true // default
				} else {
					cv, err := p.evalExpr(cl.Value)
					if err != nil {
						return ctrlNone, err
					}
					matched = cv.Int() == tag.Int()
				}
			}
			if !matched {
				continue
			}
			for _, cs := range cl.Body {
				c, err := p.execStmt(cs, ret)
				if err != nil {
					return ctrlNone, err
				}
				switch c {
				case ctrlBreak:
					return ctrlNone, nil
				case ctrlReturn, ctrlContinue:
					return c, nil
				}
			}
		}
		return ctrlNone, nil

	case *ast.ReturnStmt:
		if n.Result != nil {
			v, err := p.evalExpr(n.Result)
			if err != nil {
				return ctrlNone, err
			}
			*ret = v
		}
		return ctrlReturn, nil

	case *ast.BreakStmt:
		return ctrlBreak, nil
	case *ast.ContinueStmt:
		return ctrlContinue, nil
	case *ast.EmptyStmt:
		return ctrlNone, nil

	default:
		return ctrlNone, fmt.Errorf("%s: cannot execute %T", s.Pos(), s)
	}
}
