package interpref

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/interp"
)

// ctrl is statement-level control flow.
type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// frame is one activation record.
type frame struct {
	slots map[*ast.Symbol]uint32
	saved uint32 // stack pointer to restore
}

// callTree runs fn(args) to completion in a fresh tree-walk frame. It
// runs only on the walk's own goroutine, where the yield-capable
// primitives park internally and never return the yield sentinel.
func (p *walk) callTree(fn *ast.FuncDecl, args []interp.Value) (interp.Value, error) {
	if fn.Body == nil {
		return interp.Value{}, fmt.Errorf("call of undefined function %s", fn.Name)
	}
	p.Calls++
	if err := p.ChargeCycles(interp.CostCall); err != nil {
		return interp.Value{}, err
	}
	fr, err := p.pushFrame(fn)
	if err != nil {
		return interp.Value{}, err
	}
	defer p.popFrame()
	for i, prm := range fn.Params {
		if prm.Sym == nil {
			continue
		}
		var v interp.Value
		if i < len(args) {
			v = args[i]
		}
		if err := p.StoreTyped(fr.slots[prm.Sym], prm.Type, v); err != nil {
			return interp.Value{}, err
		}
	}
	var ret interp.Value
	if _, err := p.execBlock(fn.Body, &ret); err != nil {
		return interp.Value{}, err
	}
	if err := p.ChargeCycles(interp.CostReturn); err != nil {
		return interp.Value{}, err
	}
	return ret, nil
}

// addrOfSymbol finds a variable's address: innermost frame slot first,
// then the globals image.
func (p *walk) addrOfSymbol(sym *ast.Symbol) (uint32, bool) {
	if len(p.frames) > 0 {
		if a, ok := p.frames[len(p.frames)-1].slots[sym]; ok {
			return a, true
		}
	}
	if a, ok := p.Sim.Program.GlobalAddr(sym); ok {
		return a, true
	}
	return 0, false
}

// pushFrame allocates the activation record for fn: one aligned stack
// slot per parameter and per local declaration anywhere in the body
// (slots are assigned once, like a compiled frame).
func (p *walk) pushFrame(fn *ast.FuncDecl) (*frame, error) {
	if len(p.frames) >= interp.MaxCallDepth {
		return nil, fmt.Errorf("call depth exceeds %d in %s", interp.MaxCallDepth, fn.Name)
	}
	fr := &frame{slots: make(map[*ast.Symbol]uint32), saved: p.sp}
	sp := p.sp
	alloc := func(sym *ast.Symbol, t *types.Type) {
		size := uint32(t.Size())
		if size == 0 {
			size = 4
		}
		a := uint32(t.Align())
		if a == 0 {
			a = 4
		}
		sp -= size
		sp &^= a - 1
		fr.slots[sym] = sp
	}
	for _, prm := range fn.Params {
		if prm.Sym != nil {
			alloc(prm.Sym, prm.Type)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok && d.Decl.Sym != nil {
			alloc(d.Decl.Sym, d.Decl.Type)
		}
		return true
	})
	if p.StackTop()-sp > interp.StackBytes {
		return nil, fmt.Errorf("stack overflow in %s", fn.Name)
	}
	p.sp = sp
	p.frames = append(p.frames, fr)
	return fr, nil
}

func (p *walk) popFrame() {
	fr := p.frames[len(p.frames)-1]
	p.frames = p.frames[:len(p.frames)-1]
	p.sp = fr.saved
}

func (p *walk) execBlock(b *ast.BlockStmt, ret *interp.Value) (ctrl, error) {
	for _, s := range b.List {
		c, err := p.execStmt(s, ret)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (p *walk) execStmt(s ast.Stmt, ret *interp.Value) (ctrl, error) {
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
			if err := p.StoreTyped(addr, d.Type, v); err != nil {
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
			if err := p.StoreTyped(addr+uint32(i*elem.Size()), elem, v); err != nil {
				return ctrlNone, err
			}
		}
		// `int a[3] = {0}` zero-fills the remainder; PageMem starts
		// zeroed but the slot may be reused stack memory.
		if len(n.Decl.InitLst) > 0 && d.Type.Kind == types.Array {
			elem := d.Type.Elem
			zero := interp.IntValue(types.IntType, 0)
			for i := len(n.Decl.InitLst); i < d.Type.Len; i++ {
				if err := p.StoreTyped(addr+uint32(i*elem.Size()), elem, zero); err != nil {
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
		if err := p.ChargeCycles(interp.CostALU); err != nil {
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
			cond := interp.IntValue(types.IntType, 1)
			if n.Cond != nil {
				var err error
				if cond, err = p.evalExpr(n.Cond); err != nil {
					return ctrlNone, err
				}
			}
			if err := p.ChargeCycles(interp.CostALU); err != nil {
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
			if err := p.ChargeCycles(interp.CostALU); err != nil {
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
			if err := p.ChargeCycles(interp.CostALU); err != nil {
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
		if err := p.ChargeCycles(interp.CostALU); err != nil {
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
