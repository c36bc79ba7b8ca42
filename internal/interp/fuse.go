package interp

import (
	"errors"
	"fmt"
	"math"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Fused shapes. Where lowering can prove the tag a generic closure's
// Value would carry — a char/short/int/long or double local, a literal,
// an operator or cast over such operands, a load through an lvalue of
// such a type — the expression lowers to a rawFn returning the payload
// word alone (the sign-extended integer, or the double's bits), and each
// operator picks ONE closure for the shape of its operands, decided
// here and never tested at run time: a constant is captured, a local is
// loaded in line, anything else is a rawFn child. A fused closure issues
// the LoadWord/StoreWord, noteMemOp and chargeCycles calls of the
// generic closures it replaces, in their order, and follows the
// coroutine protocol of coro.go with one frame per site: n carries a
// word, a an address. Everything else lowers as before.
type rawFn func(p *Proc) (uint64, error)

// slotRef is a word-typed local: its frame slot, access width and the
// shift that sign-extends its word (0 for a double).
type slotRef struct {
	idx, size int
	sext      uint
}

// wordOf reports how a value of type t rides in a word, for the types
// whose tag a fused closure can prove: char, short, int, long and double,
// which fold, and pointers, which only load (an index base, a truth).
func wordOf(t *types.Type) (size int, sext uint, ok bool) {
	switch {
	case t == nil:
	case t.Kind == types.Double:
		return 8, 0, true
	case sintTag(t) || t.Kind == types.Pointer:
		return intWord(t)
	}
	return 0, 0, false
}

// shape is what lowering knows about an operand.
type shape uint8

const (
	shNone  shape = iota // tag not provable: the generic closure
	shConst              // k
	shSlot               // slot
	shExpr               // e, lowered by compileRaw
)

// operand is an expression classified once for every closure that can
// fuse it; tag is the Value tag its generic closure would produce.
type operand struct {
	shape  shape
	tag    *types.Type
	k      uint64
	slot   slotRef
	e      ast.Expr
	lvalue bool // a shExpr that loads through compileLValue(e)
}

func (o operand) dbl() bool  { return o.tag != nil && o.tag.Kind == types.Double }
func (o operand) sint() bool { return sintTag(o.tag) }

// classify is the one operand classification; it builds nothing.
func (c *compiler) classify(e ast.Expr) operand {
	e = ast.Unparen(e)
	switch n := e.(type) {
	case *ast.IntLit:
		return operand{shape: shConst, tag: types.IntType, k: uint64(n.Value)}
	case *ast.CharLit:
		return operand{shape: shConst, tag: types.CharType, k: uint64(int64(n.Value))}
	case *ast.FloatLit:
		return operand{shape: shConst, tag: types.DoubleType, k: math.Float64bits(n.Value)}
	case *ast.Ident:
		if n.Sym == nil || n.Sym.Kind == ast.SymFunc {
			return operand{}
		}
		size, sext, ok := wordOf(n.Sym.Type)
		if idx, local := c.slotIdx[n.Sym]; ok && local {
			return operand{shape: shSlot, tag: n.Sym.Type, slot: slotRef{idx, size, sext}}
		}
		if _, global := c.pr.GlobalAddr(n.Sym); ok && global {
			return operand{shape: shExpr, tag: n.Sym.Type, e: n, lvalue: true}
		}
	case *ast.BinaryExpr:
		if n.Op == token.AndAnd || n.Op == token.OrOr {
			return operand{shape: shExpr, tag: types.IntType, e: n}
		}
		if _, _, _, _, ok := c.planBinary(n); ok {
			return operand{shape: shExpr, tag: n.Typ, e: n}
		}
	case *ast.CastExpr:
		x := c.classify(n.X)
		if n.To != nil && (n.To.Kind == types.Double && x.sint() ||
			(n.To.Kind == types.Int || n.To.Kind == types.Long) && x.dbl()) {
			return operand{shape: shExpr, tag: n.To, e: n}
		}
	case *ast.UnaryExpr:
		if _, _, ok := wordOf(n.Typ); ok && n.Op == token.Star {
			return operand{shape: shExpr, tag: n.Typ, e: n, lvalue: true}
		}
	case *ast.IndexExpr, *ast.MemberExpr:
		if _, _, ok := wordOf(e.ResultType()); ok {
			return operand{shape: shExpr, tag: e.ResultType(), e: e, lvalue: true}
		}
	}
	return operand{}
}

// fop selects a fold: the operator token, fopDbl when the operands are
// double bits, fopRev when lowering swapped a constant to the right of
// an operator that does not commute.
type fop uint8

const (
	fopDbl  fop = 1 << 6
	fopRev  fop = 1 << 7
	fopConv     = fop(token.LParen) // (double)int; (int)double under fopDbl
)

// foldFn is an operator's pure half over payload words; only integer
// division reports an error, after the charge like foldFast's.
type foldFn func(a, b uint64) (uint64, error)

var errDivZero, errModZero = errors.New("integer division by zero"), errors.New("integer modulo by zero")

func i32(v int64) uint64  { return uint64(int64(int32(v))) }
func fv(w uint64) float64 { return math.Float64frombits(w) }
func fw(f float64) uint64 { return math.Float64bits(f) }
func truth(b bool) uint64 { return uint64(b2i(b)) }
func sx(w uint64) int64   { return int64(w) }

// folds holds foldFast's branch for each provable operand kind with the
// result conversion folded in, as the PR 14 kernels do.
var folds = [256]foldFn{
	fop(token.Plus):    func(a, b uint64) (uint64, error) { return i32(sx(a) + sx(b)), nil },
	fop(token.Minus):   func(a, b uint64) (uint64, error) { return i32(sx(a) - sx(b)), nil },
	fop(token.Star):    func(a, b uint64) (uint64, error) { return i32(sx(a) * sx(b)), nil },
	fop(token.Amp):     func(a, b uint64) (uint64, error) { return i32(sx(a) & sx(b)), nil },
	fop(token.Pipe):    func(a, b uint64) (uint64, error) { return i32(sx(a) | sx(b)), nil },
	fop(token.Caret):   func(a, b uint64) (uint64, error) { return i32(sx(a) ^ sx(b)), nil },
	fop(token.Shl):     func(a, b uint64) (uint64, error) { return i32(sx(a) << (b & 31)), nil },
	fop(token.Shr):     func(a, b uint64) (uint64, error) { return i32(int64(int32(a) >> (b & 31))), nil },
	fop(token.Lt):      func(a, b uint64) (uint64, error) { return truth(sx(a) < sx(b)), nil },
	fop(token.Gt):      func(a, b uint64) (uint64, error) { return truth(sx(a) > sx(b)), nil },
	fop(token.Le):      func(a, b uint64) (uint64, error) { return truth(sx(a) <= sx(b)), nil },
	fop(token.Ge):      func(a, b uint64) (uint64, error) { return truth(sx(a) >= sx(b)), nil },
	fop(token.EqEq):    func(a, b uint64) (uint64, error) { return truth(a == b), nil },
	fop(token.NotEq):   func(a, b uint64) (uint64, error) { return truth(a != b), nil },
	fop(token.Slash):   func(a, b uint64) (uint64, error) { return divmod(sx(a), sx(b), false) },
	fop(token.Percent): func(a, b uint64) (uint64, error) { return divmod(sx(a), sx(b), true) },
	fopConv:            func(a, b uint64) (uint64, error) { return fw(float64(sx(a))), nil },

	fopRev | fop(token.Minus): func(a, b uint64) (uint64, error) { return i32(sx(b) - sx(a)), nil },

	fopDbl | fop(token.Plus):  func(a, b uint64) (uint64, error) { return fw(fv(a) + fv(b)), nil },
	fopDbl | fop(token.Minus): func(a, b uint64) (uint64, error) { return fw(fv(a) - fv(b)), nil },
	fopDbl | fop(token.Star):  func(a, b uint64) (uint64, error) { return fw(fv(a) * fv(b)), nil },
	fopDbl | fop(token.Slash): func(a, b uint64) (uint64, error) { return fw(fv(a) / fv(b)), nil },
	fopDbl | fop(token.Lt):    func(a, b uint64) (uint64, error) { return truth(fv(a) < fv(b)), nil },
	fopDbl | fop(token.Gt):    func(a, b uint64) (uint64, error) { return truth(fv(a) > fv(b)), nil },
	fopDbl | fop(token.Le):    func(a, b uint64) (uint64, error) { return truth(fv(a) <= fv(b)), nil },
	fopDbl | fop(token.Ge):    func(a, b uint64) (uint64, error) { return truth(fv(a) >= fv(b)), nil },
	fopDbl | fop(token.EqEq):  func(a, b uint64) (uint64, error) { return truth(fv(a) == fv(b)), nil },
	fopDbl | fop(token.NotEq): func(a, b uint64) (uint64, error) { return truth(fv(a) != fv(b)), nil },
	fopDbl | fopConv:          func(a, b uint64) (uint64, error) { return i32(int64(fv(a))), nil },

	fopDbl | fopRev | fop(token.Minus): func(a, b uint64) (uint64, error) { return fw(fv(b) - fv(a)), nil },
	fopDbl | fopRev | fop(token.Slash): func(a, b uint64) (uint64, error) { return fw(fv(b) / fv(a)), nil },
}

// mirrored maps a comparison to the one that holds with its operands swapped.
var mirrored = map[token.Kind]token.Kind{token.Lt: token.Gt, token.Gt: token.Lt, token.Le: token.Ge, token.Ge: token.Le}

func divmod(x, y int64, mod bool) (uint64, error) {
	switch {
	case y == 0 && mod:
		return 0, errModZero
	case y == 0:
		return 0, errDivZero
	case mod:
		return i32(x % y), nil
	}
	return i32(x / y), nil
}

// planBinary decides whether n fuses, and as what: the fold, its charge
// and the operands, a left constant moved right where the operator
// commutes, mirrors (a comparison) or has a reversed fold.
func (c *compiler) planBinary(n *ast.BinaryExpr) (fold foldFn, cost int, x, y operand, ok bool) {
	x, y = c.classify(n.X), c.classify(n.Y)
	op, dbl := fop(n.Op), x.dbl()
	if dbl {
		op |= fopDbl
	}
	kinds := x.sint() && y.sint() || dbl && y.dbl()
	resDbl := dbl && (n.Op < token.Lt || n.Op > token.NotEq) // a comparison yields an int
	result := n.Typ != nil && (resDbl && n.Typ.Kind == types.Double ||
		!resDbl && (n.Typ.Kind == types.Int || n.Typ.Kind == types.Long))
	// A literal zero divisor stays generic.
	zeroDiv := (op == fop(token.Slash) || op == fop(token.Percent)) && y.shape == shConst && y.k == 0
	if !kinds || !result || zeroDiv || folds[op] == nil {
		return nil, 0, x, y, false
	}
	if x.shape == shConst && y.shape != shConst {
		switch n.Op {
		case token.Plus, token.Star, token.Amp, token.Pipe, token.Caret, token.EqEq, token.NotEq:
			x, y = y, x
		case token.Lt, token.Gt, token.Le, token.Ge:
			x, y, op = y, x, op&fopDbl|fop(mirrored[n.Op])
		case token.Minus, token.Slash:
			if folds[op|fopRev] != nil {
				x, y, op = y, x, op|fopRev
			}
		}
	}
	return folds[op], binCost(n.Op, dbl), x, y, true
}

// lower builds the rawFn of a classified operand; a constant or a local
// that no shape of its parent takes in line becomes a leaf closure.
func (c *compiler) lower(o operand) rawFn {
	switch o.shape {
	case shConst:
		k := o.k
		return func(*Proc) (uint64, error) { return k, nil }
	case shSlot:
		return rawSlot(o.slot)
	}
	return c.compileRaw(o)
}

// compileRaw lowers a shExpr operand.
func (c *compiler) compileRaw(o operand) rawFn {
	switch n := o.e.(type) {
	case *ast.BinaryExpr:
		if n.Op == token.AndAnd || n.Op == token.OrOr {
			return rawLogic(n.Op == token.AndAnd, c.compileTruth(n.X), c.compileTruth(n.Y))
		}
		fold, cost, x, y, _ := c.planBinary(n)
		return c.fuseBinary(fold, cost, x, y)
	case *ast.CastExpr:
		x := c.classify(n.X)
		op := fopConv
		if x.dbl() {
			op |= fopDbl
		}
		return c.fuseBinary(folds[op], costConv, x, operand{shape: shConst})
	}
	lf, _ := c.compileLValue(o.e)
	size, sext, _ := wordOf(o.tag)
	return rawLoadOf(lf, size, sext)
}

// compileTruth lowers e to its C truth as a word: what a condition, &&
// and || consume, with no boxed 0/1 and no Value.Bool() where e fuses.
func (c *compiler) compileTruth(e ast.Expr) rawFn {
	if o := c.classify(e); o.shape != shNone && !o.dbl() {
		return c.lower(o) // an int or a pointer: the word is the truth
	}
	f := c.compileExpr(e)
	return func(p *Proc) (uint64, error) { // transparent
		v, err := f(p)
		return truth(v.Bool()), err
	}
}

// boxed is a fused expression in a generic context: the Value its
// generic closure would have returned. Transparent.
func boxed(r rawFn, tag *types.Type) evalFn {
	if tag.Kind == types.Double {
		return func(p *Proc) (Value, error) {
			w, err := r(p)
			if err != nil {
				return Value{}, err
			}
			return Value{T: tag, F: fv(w)}, nil
		}
	}
	return func(p *Proc) (Value, error) {
		w, err := r(p)
		if err != nil {
			return Value{}, err
		}
		return Value{T: tag, I: int64(w)}, nil
	}
}

// loadWord and storeWord are a fused closure's timed access: makeLoad's
// and makeStore's word variants over a payload word. Leaves.
func (p *Proc) loadWord(addr uint32, size int, sext uint) (uint64, error) {
	w, lat := p.mach.LoadWord(p.Core, addr, size, p.Clock)
	p.Clock += lat
	return uint64(int64(w<<(sext&63)) >> (sext & 63)), p.noteMemOp(addr, false)
}

func (p *Proc) storeWord(addr uint32, size int, sext uint, w uint64) error {
	w = uint64(int64(w) << (sext & 63) >> (sext & 63))
	p.Clock += p.mach.StoreWord(p.Core, addr, size, w, p.Clock)
	return p.noteMemOp(addr, true)
}

// suspended pushes a fused closure's frame when err is a yield.
func (p *Proc) suspended(err error, step int, a uint32, n uint64) error {
	if isYield(err) {
		p.pushK(kframe{step: step, a: a, n: int64(n)})
	}
	return err
}

// rawSlot reads a local. Step 1: loaded (n).
func rawSlot(s slotRef) rawFn {
	return func(p *Proc) (uint64, error) {
		if p.coResuming {
			return uint64(p.popKRef().n), nil
		}
		w, err := p.loadWord(p.slotMem[p.cfp+s.idx], s.size, s.sext)
		if err != nil {
			return 0, p.suspended(err, 1, 0, w)
		}
		return w, nil
	}
}

// rawLoadOf loads through an lvalue. Steps: 0 in lf, 1 loaded (n).
func rawLoadOf(lf lvalFn, size int, sext uint) rawFn {
	return func(p *Proc) (uint64, error) {
		if p.coResuming {
			if fr := p.popKRef(); fr.step != 0 {
				return uint64(fr.n), nil
			}
		}
		addr, _, err := lf(p)
		if err != nil {
			return 0, p.suspended(err, 0, 0, 0)
		}
		w, err := p.loadWord(addr, size, sext)
		if err != nil {
			return 0, p.suspended(err, 1, 0, w)
		}
		return w, nil
	}
}

// The binary closures share their steps: 0 in x, 1 x in hand (n) and in
// y, 2 folded with the charge pending, 3 charged (2 and 3: n the result
// or x the fold error, a an address the caller threads through).

// binTail folds and charges once both operands are in hand.
func (p *Proc) binTail(fold foldFn, cost int, a, b uint64, addr uint32) (uint64, error) {
	r, ferr := fold(a, b)
	if err := p.chargeCycles(cost); err != nil {
		p.pushK(kframe{step: 3, a: addr, n: int64(r), x: ferr})
		return 0, err
	}
	return r, ferr
}

// binFolded suspends a closure whose last operand was a load that
// yielded: the fold is pure, so the frame carries its outcome.
func (p *Proc) binFolded(err error, fold foldFn, a, b uint64, addr uint32) error {
	if isYield(err) {
		r, ferr := fold(a, b)
		p.pushK(kframe{step: 2, a: addr, n: int64(r), x: ferr})
	}
	return err
}

// binResume re-enters at step 2 or 3.
func (p *Proc) binResume(fr *kframe, cost int) (uint64, error) {
	r, addr := uint64(fr.n), fr.a
	ferr, _ := fr.x.(error)
	if fr.step == 2 {
		if err := p.chargeCycles(cost); err != nil {
			p.pushK(kframe{step: 3, a: addr, n: int64(r), x: ferr})
			return 0, err
		}
	}
	return r, ferr
}

// fuseBinary picks the closure for the operands' shapes.
func (c *compiler) fuseBinary(fold foldFn, cost int, x, y operand) rawFn {
	switch {
	case x.shape == shSlot && y.shape == shConst:
		return binSlotConst(fold, cost, x.slot, y.k)
	case x.shape == shSlot && y.shape == shSlot:
		return binSlotSlot(fold, cost, x.slot, y.slot)
	case x.shape == shSlot:
		return binSlotRaw(fold, cost, x.slot, c.lower(y))
	case y.shape == shConst:
		return binRawConst(fold, cost, c.lower(x), y.k)
	}
	return binRawRaw(fold, cost, c.lower(x), c.lower(y))
}

func binSlotConst(fold foldFn, cost int, x slotRef, k uint64) rawFn {
	return func(p *Proc) (uint64, error) {
		if p.coResuming {
			return p.binResume(p.popKRef(), cost)
		}
		a, err := p.loadWord(p.slotMem[p.cfp+x.idx], x.size, x.sext)
		if err != nil {
			return 0, p.binFolded(err, fold, a, k, 0)
		}
		return p.binTail(fold, cost, a, k, 0)
	}
}

func binSlotSlot(fold foldFn, cost int, x, y slotRef) rawFn {
	return func(p *Proc) (uint64, error) {
		var a uint64
		if p.coResuming {
			fr := p.popKRef()
			if fr.step != 1 {
				return p.binResume(fr, cost)
			}
			a = uint64(fr.n)
		} else {
			var err error
			if a, err = p.loadWord(p.slotMem[p.cfp+x.idx], x.size, x.sext); err != nil {
				return 0, p.suspended(err, 1, 0, a)
			}
		}
		b, err := p.loadWord(p.slotMem[p.cfp+y.idx], y.size, y.sext)
		if err != nil {
			return 0, p.binFolded(err, fold, a, b, 0)
		}
		return p.binTail(fold, cost, a, b, 0)
	}
}

func binSlotRaw(fold foldFn, cost int, x slotRef, y rawFn) rawFn {
	return func(p *Proc) (uint64, error) {
		var a uint64
		if p.coResuming {
			fr := p.popKRef()
			if fr.step != 1 {
				return p.binResume(fr, cost)
			}
			a = uint64(fr.n)
		} else {
			var err error
			if a, err = p.loadWord(p.slotMem[p.cfp+x.idx], x.size, x.sext); err != nil {
				return 0, p.suspended(err, 1, 0, a)
			}
		}
		b, err := y(p)
		if err != nil {
			return 0, p.suspended(err, 1, 0, a)
		}
		return p.binTail(fold, cost, a, b, 0)
	}
}

func binRawConst(fold foldFn, cost int, x rawFn, k uint64) rawFn {
	return func(p *Proc) (uint64, error) {
		if p.coResuming {
			if fr := p.popKRef(); fr.step != 0 {
				return p.binResume(fr, cost)
			}
		}
		a, err := x(p)
		if err != nil {
			return 0, p.suspended(err, 0, 0, 0)
		}
		return p.binTail(fold, cost, a, k, 0)
	}
}

func binRawRaw(fold foldFn, cost int, x, y rawFn) rawFn {
	return func(p *Proc) (uint64, error) {
		var a uint64
		step := 0
		if p.coResuming {
			fr := p.popKRef()
			if fr.step > 1 {
				return p.binResume(fr, cost)
			}
			step, a = fr.step, uint64(fr.n)
		}
		if step == 0 {
			var err error
			if a, err = x(p); err != nil {
				return 0, p.suspended(err, 0, 0, 0)
			}
		}
		b, err := y(p)
		if err != nil {
			return 0, p.suspended(err, 1, 0, a)
		}
		return p.binTail(fold, cost, a, b, 0)
	}
}

// rawLogic is && and ||. Steps: 0 in x, 1 x decided and charged (n its
// truth), y pending or suspended.
func rawLogic(andand bool, x, y rawFn) rawFn {
	return func(p *Proc) (uint64, error) {
		var xb uint64
		step := 0
		if p.coResuming {
			fr := p.popKRef()
			step, xb = fr.step, uint64(fr.n)
		}
		if step == 0 {
			w, err := x(p)
			if err != nil {
				return 0, p.suspended(err, 0, 0, 0)
			}
			xb = truth(w != 0)
			if err := p.chargeCycles(costALU); err != nil {
				return 0, p.suspended(err, 1, 0, xb)
			}
		}
		if (xb != 0) != andand { // x alone decides
			return xb, nil
		}
		w, err := y(p)
		if err != nil {
			return 0, p.suspended(err, 1, 0, xb)
		}
		return truth(w != 0), nil
	}
}

// compileEffect lowers an expression evaluated for its effect alone —
// an expression statement (tick 1) or a for's post (tick 0) — when it is
// x++, x--, x = e or x op= e over a provable target and operand: the
// result Value is never built. nil means it does not fuse. A compound
// update of a local is the plain store of the binary it abbreviates:
// the same load, operand, charge and store in the same order.
func (c *compiler) compileEffect(e ast.Expr, tick uint64) execFn {
	var lhs ast.Expr
	var rhs operand
	var op token.Kind
	switch n := ast.Unparen(e).(type) {
	case *ast.PostfixExpr:
		lhs, op = n.X, n.Op
	case *ast.UnaryExpr:
		lhs, op = n.X, n.Op
	case *ast.AssignExpr:
		lhs, op, rhs = n.LHS, n.Op, c.classify(n.RHS)
	default:
		return nil
	}
	t := c.classify(lhs)
	if t.shape != shSlot && !t.lvalue || !t.sint() && !t.dbl() {
		return nil
	}
	var fold foldFn
	cost := costALU
	if op != token.Assign {
		if op == token.PlusPlus || op == token.MinusMinus {
			// One of the target's kind, added or subtracted under an
			// ALU charge.
			rhs = operand{shape: shConst, tag: t.tag, k: 1}
			if t.dbl() {
				rhs.k = fw(1)
			}
			if op == token.PlusPlus {
				op = token.Plus
			} else {
				op = token.Minus
			}
		} else {
			op = compoundOps[op] // the zero Kind, which has no fold, for any other unary
			cost = binCost(op, t.dbl())
		}
		fo := fop(op)
		if t.dbl() {
			fo |= fopDbl
		}
		if fold = folds[fo]; fold == nil {
			return nil
		}
	}
	if rhs.shape == shNone || rhs.dbl() != t.dbl() || rhs.sint() != t.sint() {
		return nil
	}
	if t.shape == shSlot {
		if fold != nil {
			return effSlot(tick, t.slot, c.fuseBinary(fold, cost, t, rhs))
		}
		return effSlot(tick, t.slot, c.lower(rhs))
	}
	lf, _ := c.compileLValue(lhs)
	size, sext, _ := wordOf(t.tag)
	if fold != nil {
		return effUpdate(tick, fold, cost, lf, size, sext, c.lower(rhs))
	}
	return effStore(tick, lf, size, sext, c.lower(rhs))
}

// effSlot is local = rhs. Steps: 0 in rhs, 1 stored.
func effSlot(tick uint64, s slotRef, rhs rawFn) execFn {
	return func(p *Proc, _ *Value) (ctrl, error) {
		if !p.coResuming {
			p.Ops += tick
		} else if p.popKRef().step != 0 {
			return ctrlNone, nil
		}
		w, err := rhs(p)
		if err != nil {
			return ctrlNone, p.suspended(err, 0, 0, 0)
		}
		if err := p.storeWord(p.slotMem[p.cfp+s.idx], s.size, s.sext, w); err != nil {
			return ctrlNone, p.suspended(err, 1, 0, 0)
		}
		return ctrlNone, nil
	}
}

// effStore is lvalue = rhs. Steps: 0 in lf, 1 in rhs (a the address),
// 2 stored.
func effStore(tick uint64, lf lvalFn, size int, sext uint, rhs rawFn) execFn {
	return func(p *Proc, _ *Value) (ctrl, error) {
		var addr uint32
		step := 0
		if !p.coResuming {
			p.Ops += tick
		} else if fr := p.popKRef(); fr.step == 2 {
			return ctrlNone, nil
		} else {
			step, addr = fr.step, fr.a
		}
		if step == 0 {
			var err error
			if addr, _, err = lf(p); err != nil {
				return ctrlNone, p.suspended(err, 0, 0, 0)
			}
		}
		w, err := rhs(p)
		if err != nil {
			return ctrlNone, p.suspended(err, 1, addr, 0)
		}
		if err := p.storeWord(addr, size, sext, w); err != nil {
			return ctrlNone, p.suspended(err, 2, 0, 0)
		}
		return ctrlNone, nil
	}
}

// effUpdate is lvalue op= rhs: the address resolves once. Steps: 0 in
// lf, 1 old loaded (a, n) and in rhs, 2 and 3 binTail's, 4 stored.
func effUpdate(tick uint64, fold foldFn, cost int, lf lvalFn, size int, sext uint, rhs rawFn) execFn {
	return func(p *Proc, _ *Value) (ctrl, error) {
		var addr uint32
		var old, r uint64
		var err error
		step := 0
		if !p.coResuming {
			p.Ops += tick
		} else {
			fr := p.popKRef()
			step, addr, old = fr.step, fr.a, uint64(fr.n)
			switch step {
			case 2, 3:
				if r, err = p.binResume(fr, cost); err != nil {
					return ctrlNone, err
				}
			case 4:
				return ctrlNone, nil
			}
		}
		if step == 0 {
			if addr, _, err = lf(p); err != nil {
				return ctrlNone, p.suspended(err, 0, 0, 0)
			}
			if old, err = p.loadWord(addr, size, sext); err != nil {
				return ctrlNone, p.suspended(err, 1, addr, old)
			}
		}
		if step <= 1 {
			b, err := rhs(p)
			if err != nil {
				return ctrlNone, p.suspended(err, 1, addr, old)
			}
			if r, err = p.binTail(fold, cost, old, b, addr); err != nil {
				return ctrlNone, err
			}
		}
		if err := p.storeWord(addr, size, sext, r); err != nil {
			return ctrlNone, p.suspended(err, 4, 0, 0)
		}
		return ctrlNone, nil
	}
}

// fuseIndex lowers a[i] where a names an array or a pointer — the
// element scale a lowering-time constant — and i fuses; nil otherwise.
// A global array's base is captured, any other is a rawFn child: a
// local array's slot address, or the pointer's load. Steps: 0 in the
// base, 1 in the index (a the base), 2 index in hand with the address
// charge pending (a the address), 3 charged.
func (c *compiler) fuseIndex(n *ast.IndexExpr) (lvalFn, *types.Type) {
	id, ok := ast.Unparen(n.X).(*ast.Ident)
	i := c.classify(n.Index)
	if !ok || id.Sym == nil || id.Sym.Type == nil || id.Sym.Type.Elem == nil || !i.sint() {
		return nil, nil
	}
	elem, is := id.Sym.Type.Elem, i.slot
	scale := int64(elem.Size())
	var base rawFn
	bs, local := c.slotIdx[id.Sym]
	k, global := c.pr.GlobalAddr(id.Sym)
	switch {
	case id.Sym.Type.Kind == types.Pointer:
		b := c.classify(id)
		if b.shape == shNone {
			return nil, nil
		}
		base = c.lower(b)
	case id.Sym.Type.Kind != types.Array || !local && !global:
		return nil, nil
	case local:
		base = func(p *Proc) (uint64, error) { return uint64(p.slotMem[p.cfp+bs]), nil }
	case i.shape == shSlot:
		return func(p *Proc) (uint32, *types.Type, error) {
			if p.coResuming {
				return p.indexResume(p.popKRef(), elem)
			}
			w, err := p.loadWord(p.slotMem[p.cfp+is.idx], is.size, is.sext)
			return p.indexTail(err, k+uint32(int64(w)*scale), elem)
		}, elem
	default:
		idx := c.lower(i)
		return func(p *Proc) (uint32, *types.Type, error) {
			if p.coResuming {
				if fr := p.popKRef(); fr.step != 1 {
					return p.indexResume(fr, elem)
				}
			}
			w, err := idx(p)
			if err != nil {
				return 0, nil, p.suspended(err, 1, 0, 0)
			}
			return p.indexTail(nil, k+uint32(int64(w)*scale), elem)
		}, elem
	}
	nullErr := fmt.Errorf("%s: indexing a null pointer", n.Pos())
	if i.shape == shSlot {
		return func(p *Proc) (uint32, *types.Type, error) {
			if p.coResuming {
				if fr := p.popKRef(); fr.step != 0 {
					return p.indexResume(fr, elem)
				}
			}
			b, err := base(p)
			if err != nil {
				return 0, nil, p.suspended(err, 0, 0, 0)
			} else if b == 0 {
				return 0, nil, nullErr
			}
			w, err := p.loadWord(p.slotMem[p.cfp+is.idx], is.size, is.sext)
			return p.indexTail(err, uint32(b)+uint32(int64(w)*scale), elem)
		}, elem
	}
	idx := c.lower(i)
	return func(p *Proc) (uint32, *types.Type, error) {
		var b uint64
		step := 0
		if p.coResuming {
			fr := p.popKRef()
			if fr.step > 1 {
				return p.indexResume(fr, elem)
			}
			step, b = fr.step, uint64(fr.a)
		}
		if step == 0 {
			var err error
			if b, err = base(p); err != nil {
				return 0, nil, p.suspended(err, 0, 0, 0)
			} else if b == 0 {
				return 0, nil, nullErr
			}
		}
		w, err := idx(p)
		if err != nil {
			return 0, nil, p.suspended(err, 1, uint32(b), 0)
		}
		return p.indexTail(nil, uint32(b)+uint32(int64(w)*scale), elem)
	}, elem
}

// indexTail charges the address computation once the index is in hand;
// err is the index load's.
func (p *Proc) indexTail(err error, addr uint32, elem *types.Type) (uint32, *types.Type, error) {
	if err != nil {
		return 0, nil, p.suspended(err, 2, addr, 0)
	}
	if err := p.chargeCycles(costALU); err != nil {
		return 0, nil, p.suspended(err, 3, addr, 0)
	}
	return addr, elem, nil
}

// indexResume re-enters at step 2 or 3.
func (p *Proc) indexResume(fr *kframe, elem *types.Type) (uint32, *types.Type, error) {
	if fr.step == 2 {
		return p.indexTail(nil, fr.a, elem)
	}
	return fr.a, elem, nil
}
