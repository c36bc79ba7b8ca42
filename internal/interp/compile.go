package interp

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// The compile pass lowers each function once, at Load time, into the
// closure form of ir.go. Lowering is a transcription of eval.go/exec.go:
// every chargeCycles call, memory access and error message is emitted in
// the same order as the tree-walk reference, so the compiled form produces
// byte-identical output AND identical simulated-time statistics — only
// host-side work (type switches, map lookups, per-call AST walks) is
// resolved ahead of time. A tree the compiler cannot resolve statically
// (a nil type sema would never leave behind) fails the Load.
//
// Every lowered closure additionally follows the coroutine resumption
// protocol of coro.go. Each closure's body is a sequence of units
// separated by suspension sites; the frame it pushes on a yield records
// the unit to continue from plus any locals later units consume. A
// child-yield (the unit's sub-closure suspended and pushed its own
// frame) records the same unit, so re-entry re-calls the child, which
// resumes internally; a leaf-yield (chargeCycles or a typed accessor
// completed its effect and yielded) records the next unit. The two cases
// need no flag: after this closure pops its frame, the resuming bit is
// still set exactly when a deeper frame (the child's) remains.
//
// The resume dispatch is kept OFF the fresh path: closures test the
// resuming bit once, handle non-zero steps in a cold block (small
// resume-tail closures bound at compile time carry any duplicated
// suffix), and fall through to a straight-line fresh body that matches
// the pre-coroutine engine instruction for instruction. A step-0 frame
// ("inside my first child") also falls through — the child pops its own
// frame and resumes internally.

// compileProgram lowers every function of a loaded program; the first
// function that cannot be lowered is the error.
func compileProgram(pr *Program) error {
	pr.compiled = make(map[*ast.FuncDecl]*compiledFunc, len(pr.funcList))
	pr.compiledList = make([]*compiledFunc, len(pr.funcList))
	// Two phases: layouts first, so call sites can reference any callee's
	// shell (recursion, forward calls), then bodies.
	for i, fn := range pr.funcList {
		cf := &compiledFunc{decl: fn, name: fn.Name}
		if err := cf.buildLayout(); err != nil {
			return err
		}
		pr.compiled[fn] = cf
		pr.compiledList[i] = cf
	}
	for _, cf := range pr.compiledList {
		if cf.decl.Body == nil {
			continue
		}
		c := newCompiler(pr, cf)
		cf.body = c.compileBlock(cf.decl.Body, 0)
		if c.err != nil {
			return c.err
		}
	}
	return nil
}

// unlowerable is the Load error for a tree the compiler cannot resolve.
func unlowerable(pos token.Pos, fn, what string) error {
	return fmt.Errorf("%s: interp: cannot lower function %s: %s", pos, fn, what)
}

// buildLayout computes the frame layout exactly as the reference
// pushFrame does: one slot per named parameter, then one per local
// declaration anywhere in the body, in Inspect (source) order.
func (cf *compiledFunc) buildLayout() error {
	fn := cf.decl
	var err error
	add := func(sym *ast.Symbol, t *types.Type, pos token.Pos) int {
		if t == nil {
			if err == nil {
				err = unlowerable(pos, cf.name, sym.Name+" has no type")
			}
			return -1
		}
		size := uint32(t.Size())
		if size == 0 {
			size = 4
		}
		a := uint32(t.Align())
		if a == 0 {
			a = 4
		}
		cf.slots = append(cf.slots, slotDef{sym: sym, size: size, amask: a - 1})
		return len(cf.slots) - 1
	}
	cf.paramSlot = make([]int, len(fn.Params))
	cf.paramType = make([]*types.Type, len(fn.Params))
	cf.paramStore = make([]typedStore, len(fn.Params))
	for i, prm := range fn.Params {
		cf.paramSlot[i] = -1
		cf.paramType[i] = prm.Type
		cf.paramStore[i] = makeStore(prm.Type)
		if prm.Sym != nil {
			cf.paramSlot[i] = add(prm.Sym, prm.Type, prm.Pos())
		}
	}
	if fn.Body == nil {
		return err
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeclStmt); ok && d.Decl.Sym != nil {
			add(d.Decl.Sym, d.Decl.Type, d.Decl.Pos())
		}
		return true
	})
	return err
}

// compiler lowers one function body.
type compiler struct {
	pr      *Program
	cf      *compiledFunc
	slotIdx map[*ast.Symbol]int
	err     error
}

func newCompiler(pr *Program, cf *compiledFunc) *compiler {
	c := &compiler{pr: pr, cf: cf, slotIdx: make(map[*ast.Symbol]int)}
	for i, sd := range cf.slots {
		// Last allocation wins, mirroring the reference frame map.
		c.slotIdx[sd.sym] = i
	}
	return c
}

// fail records why the function cannot be lowered (the first reason
// wins). Lowering carries on with nil closures, which never run because
// the Load fails.
func (c *compiler) fail(pos token.Pos, what string) {
	if c.err == nil {
		c.err = unlowerable(pos, c.cf.name, what)
	}
}

func errEval(err error) evalFn {
	return func(p *Proc) (Value, error) { return Value{}, err }
}

// b2i packs a saved boolean into a frame counter field.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// compileBlock lowers a statement list (no per-block statement count; the
// enclosing BlockStmt node, when there is one, carries its own).
func (c *compiler) compileBlock(b *ast.BlockStmt, tick uint64) execFn {
	list := make([]execFn, len(b.List))
	for i, s := range b.List {
		list[i] = c.compileStmt(s)
	}
	switch len(list) {
	case 0:
		return func(p *Proc, ret *Value) (ctrl, error) { return ctrlNone, nil }
	case 1:
		return list[0]
	}
	return func(p *Proc, ret *Value) (ctrl, error) {
		start := 0
		if !p.coResuming {
			p.Ops += tick
		} else {
			// A fused resume index rides the top frame (always this
			// block's own record: outer frames are already popped, and
			// the descendant frame it fused onto is popped only after
			// this block re-enters it). Clearing the piggy bits here —
			// before the carrier's owner ever pops — is what keeps the
			// general pop free of piggy decoding.
			if n := len(p.kstack) - 1; n >= 0 && p.kstack[n].step&kPiggy != 0 {
				start = int(p.kstack[n].step>>kPiggyShift) & kPiggyMax
				p.kstack[n].step &^= kPiggyBits
			} else {
				start = p.popKRef().step
			}
		}
		for i := start; i < len(list); i++ {
			if ct, err := list[i](p, ret); err != nil || ct != ctrlNone {
				if isYield(err) {
					// Fuse the resume index into the frame the yielding
					// child just pushed instead of pushing one of our
					// own, when that frame has room (no piggy yet, own
					// step within 13 bits). One 8191-way statement list
					// or an already-claimed carrier falls back to a
					// plain frame.
					if n := len(p.kstack) - 1; n >= 0 && i <= kPiggyMax &&
						p.kstack[n].step&kPiggyBits == 0 {
						p.kstack[n].step |= kPiggy | int32(i)<<kPiggyShift
					} else {
						p.pushK(kframe{step: i})
					}
				}
				return ct, err
			}
		}
		return ctrlNone, nil
	}
}

func (c *compiler) compileStmt(s ast.Stmt) execFn {
	switch n := s.(type) {
	// BlockStmt and ExprStmt are TRANSPARENT combinators: single-child
	// pass-throughs whose resume unconditionally re-enters the child and
	// restores no locals. They push no frame — on a re-descent the
	// resuming bit alone routes them straight into the child (skipping
	// the statement count, which already ran on fresh entry) — so every
	// suspension that crosses them saves a frame both ways.
	case *ast.BlockStmt:
		if len(n.List) > 1 {
			return c.compileBlock(n, 1)
		}
		inner := c.compileBlock(n, 0)
		return func(p *Proc, ret *Value) (ctrl, error) {
			if !p.coResuming {
				p.Ops++
			}
			return inner(p, ret)
		}

	case *ast.DeclStmt:
		return c.compileDecl(n)

	case *ast.ExprStmt:
		if f := c.compileEffect(n.X, 1); f != nil {
			return f
		}
		x := c.compileExpr(n.X)
		return func(p *Proc, ret *Value) (ctrl, error) {
			if !p.coResuming {
				p.Ops++
			}
			_, err := x(p)
			return ctrlNone, err
		}

	case *ast.IfStmt:
		cond := c.compileTruth(n.Cond)
		then := c.compileStmt(n.Then)
		var els execFn
		if n.Else != nil {
			els = c.compileStmt(n.Else)
		}
		// Units: 1 condition eval, 2 post-charge branch select (n = the
		// saved condition), 3 inside the taken branch.
		return func(p *Proc, ret *Value) (ctrl, error) {
			step, cb := 0, false
			if p.coResuming {
				fr := p.popKRef()
				step, cb = fr.step, fr.n != 0
			} else {
				p.Ops++
			}
			if step <= 1 {
				w, err := cond(p)
				if err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 1})
					}
					return ctrlNone, err
				}
				cb = w != 0
				if err := p.chargeCycles(costALU); err != nil {
					p.pushK(kframe{step: 2, n: b2i(cb)})
					return ctrlNone, err
				}
			}
			if cb {
				ct, err := then(p, ret)
				if isYield(err) {
					p.pushK(kframe{step: 3, n: 1})
				}
				return ct, err
			}
			if els != nil {
				ct, err := els(p, ret)
				if isYield(err) {
					p.pushK(kframe{step: 3})
				}
				return ct, err
			}
			return ctrlNone, nil
		}

	case *ast.ForStmt:
		var init, post execFn
		if n.Init != nil {
			init = c.compileStmt(n.Init)
		}
		// A for without a condition branches on a constant truth, as the
		// reference does: every iteration reaches a charge.
		cond := rawFn(func(*Proc) (uint64, error) { return 1, nil })
		if n.Cond != nil {
			cond = c.compileTruth(n.Cond)
		}
		if n.Post != nil {
			if post = c.compileEffect(n.Post, 0); post == nil {
				x := c.compileExpr(n.Post)
				post = func(p *Proc, _ *Value) (ctrl, error) { // transparent
					_, err := x(p)
					return ctrlNone, err
				}
			}
		}
		return loop(init, cond, c.compileStmt(n.Body), post, false)

	case *ast.WhileStmt:
		return loop(nil, c.compileTruth(n.Cond), c.compileStmt(n.Body), nil, false)

	case *ast.DoWhileStmt:
		body := c.compileStmt(n.Body)
		return loop(nil, c.compileTruth(n.Cond), body, nil, true)

	case *ast.SwitchStmt:
		tag := c.compileExpr(n.Tag)
		type ccase struct {
			value evalFn // nil => default
			body  []execFn
		}
		cases := make([]ccase, len(n.Cases))
		for i, cl := range n.Cases {
			if cl.Value != nil {
				cases[i].value = c.compileExpr(cl.Value)
			}
			cases[i].body = make([]execFn, len(cl.Body))
			for j, cs := range cl.Body {
				cases[i].body[j] = c.compileStmt(cs)
			}
		}
		// Units: 1 tag eval, 2 post-charge dispatch (n = tag), 3 case-
		// value eval (a = case index), 4 case-body stmt (a = case,
		// n = stmt index — the tag is dead once a body runs, and
		// matched stays true from there on).
		return func(p *Proc, ret *Value) (ctrl, error) {
			var tagI int64
			step, startCase, startStmt := 0, 0, 0
			matched := false
			if p.coResuming {
				fr := p.popKRef()
				step, tagI = fr.step, fr.n
				switch step {
				case 3:
					startCase = int(fr.a)
				case 4:
					startCase = int(fr.a)
					startStmt = int(fr.n)
					matched = true
				}
			} else {
				p.Ops++
			}
			if step <= 1 {
				tv, err := tag(p)
				if err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 1})
					}
					return ctrlNone, err
				}
				tagI = tv.Int()
				if err := p.chargeCycles(costALU); err != nil {
					p.pushK(kframe{step: 2, n: tagI})
					return ctrlNone, err
				}
			}
			for i := startCase; i < len(cases); i++ {
				cl := &cases[i]
				if !matched {
					if cl.value == nil {
						matched = true
					} else {
						cv, err := cl.value(p)
						if err != nil {
							if isYield(err) {
								p.pushK(kframe{step: 3, n: tagI, a: uint32(i)})
							}
							return ctrlNone, err
						}
						matched = cv.Int() == tagI
					}
				}
				if !matched {
					continue
				}
				for j := startStmt; j < len(cl.body); j++ {
					ct, err := cl.body[j](p, ret)
					if err != nil {
						if isYield(err) {
							p.pushK(kframe{step: 4, a: uint32(i), n: int64(j)})
						}
						return ctrlNone, err
					}
					switch ct {
					case ctrlBreak:
						return ctrlNone, nil
					case ctrlReturn, ctrlContinue:
						return ct, nil
					}
				}
				startStmt = 0
			}
			return ctrlNone, nil
		}

	case *ast.ReturnStmt:
		if n.Result == nil {
			return func(p *Proc, ret *Value) (ctrl, error) {
				p.Ops++
				return ctrlReturn, nil
			}
		}
		res := c.compileExpr(n.Result)
		// Transparent: resume re-enters the result expression; nothing
		// happens between its completion and the return.
		return func(p *Proc, ret *Value) (ctrl, error) {
			if !p.coResuming {
				p.Ops++
			}
			v, err := res(p)
			if err != nil {
				return ctrlNone, err
			}
			*ret = v
			return ctrlReturn, nil
		}

	case *ast.BreakStmt:
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.Ops++
			return ctrlBreak, nil
		}
	case *ast.ContinueStmt:
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.Ops++
			return ctrlContinue, nil
		}
	case *ast.EmptyStmt:
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.Ops++
			return ctrlNone, nil
		}

	default:
		err := fmt.Errorf("%s: cannot execute %T", s.Pos(), s)
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.Ops++
			return ctrlNone, err
		}
	}
}

// loop is the one lowering of for, while and do … while: a while is a
// for with no init and no post, and a do … while enters its first
// iteration at the body, a choice fixed here. Units: 1 init, 2 cond
// eval, 3 post-charge test (n = the saved condition), 4 body, 5 post.
func loop(init execFn, cond rawFn, body, post execFn, bodyFirst bool) execFn {
	entry := 1
	switch {
	case bodyFirst:
		entry = 4
	case init == nil:
		entry = 2
	}
	return func(p *Proc, ret *Value) (ctrl, error) {
		step, cbSaved := entry, false
		if p.coResuming {
			fr := p.popKRef()
			step, cbSaved = fr.step, fr.n != 0
		} else {
			p.Ops++
		}
		if step == 1 {
			if _, err := init(p, ret); err != nil {
				if isYield(err) {
					p.pushK(kframe{step: 1})
				}
				return ctrlNone, err
			}
			step = 2
		}
		for {
			if step <= 2 {
				w, err := cond(p)
				if err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 2})
					}
					return ctrlNone, err
				}
				cb := w != 0
				if err := p.chargeCycles(costALU); err != nil {
					p.pushK(kframe{step: 3, n: b2i(cb)})
					return ctrlNone, err
				}
				if !cb {
					return ctrlNone, nil
				}
			} else if step == 3 && !cbSaved {
				return ctrlNone, nil
			}
			if step <= 4 {
				ct, err := body(p, ret)
				if err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 4})
					}
					return ctrlNone, err
				}
				if ct == ctrlBreak {
					return ctrlNone, nil
				}
				if ct == ctrlReturn {
					return ct, nil
				}
			}
			if post != nil {
				if _, err := post(p, ret); err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 5})
					}
					return ctrlNone, err
				}
			}
			step = 2
		}
	}
}

// compileDecl lowers a local declaration: the slot address comes from the
// frame arena, initialisers store with full memory timing, and array
// initialiser lists zero-fill the remainder, all as the reference does.
// Units: 1 init eval, 2 init store done, 3 list element (n = index; a
// leaf-yield at the element store records the next index), 5 zero-fill
// element (n = next index). Slot addresses are resolved per unit — never
// at entry — because cfp still points at the innermost frame while a
// resume is descending.
func (c *compiler) compileDecl(n *ast.DeclStmt) execFn {
	d := n.Decl
	if d.Sym == nil {
		return func(p *Proc, ret *Value) (ctrl, error) {
			p.Ops++
			return ctrlNone, nil
		}
	}
	idx, ok := c.slotIdx[d.Sym]
	if !ok || d.Type == nil {
		c.fail(d.Pos(), "local "+d.Name+" has no frame slot or no type")
		return nil
	}
	typ := d.Type
	var init evalFn
	if d.Init != nil {
		init = c.compileExpr(d.Init)
	}
	var initLst []evalFn
	var elem *types.Type
	var elemSize uint32
	zeroFrom, zeroTo := 0, 0
	if len(d.InitLst) > 0 {
		elem = d.Type.Elem
		if elem == nil {
			// Aggregate initialiser on a scalar: defer the reference error
			// to run time (after the tick, like execStmt).
			err := fmt.Errorf("%s: aggregate initialiser on scalar %s", d.Pos(), d.Name)
			return func(p *Proc, ret *Value) (ctrl, error) {
				step := 0
				if p.coResuming {
					step = p.popKRef().step
				} else {
					p.Ops++
				}
				if init != nil && step <= 1 { // mirrors execStmt order: Init runs first
					v, ierr := init(p)
					if ierr != nil {
						if isYield(ierr) {
							p.pushK(kframe{step: 1})
						}
						return ctrlNone, ierr
					}
					if serr := p.storeValue(p.slotAddr(idx), typ, v); serr != nil {
						if isYield(serr) {
							p.pushK(kframe{step: 2})
						}
						return ctrlNone, serr
					}
				}
				return ctrlNone, err
			}
		}
		elemSize = uint32(elem.Size())
		initLst = make([]evalFn, len(d.InitLst))
		for i, e := range d.InitLst {
			initLst[i] = c.compileExpr(e)
		}
		if d.Type.Kind == types.Array {
			zeroFrom, zeroTo = len(d.InitLst), d.Type.Len
		}
	}
	sf := makeStore(typ)
	var elemStore typedStore
	if elem != nil {
		elemStore = makeStore(elem)
	}
	return func(p *Proc, ret *Value) (ctrl, error) {
		step := 0
		listFrom, zFrom := 0, zeroFrom
		if p.coResuming {
			fr := p.popKRef()
			step = fr.step
			switch step {
			case 3:
				listFrom = int(fr.n)
			case 5:
				zFrom = int(fr.n)
			}
		} else {
			p.Ops++
		}
		if step <= 1 && init != nil {
			v, err := init(p)
			if err != nil {
				if isYield(err) {
					p.pushK(kframe{step: 1})
				}
				return ctrlNone, err
			}
			if _, err := sf(p, p.slotAddr(idx), v); err != nil {
				if isYield(err) {
					p.pushK(kframe{step: 2})
				}
				return ctrlNone, err
			}
		}
		if step <= 3 {
			for i := listFrom; i < len(initLst); i++ {
				v, err := initLst[i](p)
				if err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 3, n: int64(i)})
					}
					return ctrlNone, err
				}
				if _, err := elemStore(p, p.slotAddr(idx)+uint32(i)*elemSize, v); err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 3, n: int64(i + 1)})
					}
					return ctrlNone, err
				}
			}
		}
		if zeroTo > zFrom {
			zero := IntValue(types.IntType, 0)
			for i := zFrom; i < zeroTo; i++ {
				if _, err := elemStore(p, p.slotAddr(idx)+uint32(i)*elemSize, zero); err != nil {
					if isYield(err) {
						p.pushK(kframe{step: 5, n: int64(i + 1)})
					}
					return ctrlNone, err
				}
			}
		}
		return ctrlNone, nil
	}
}
