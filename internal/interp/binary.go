package interp

import (
	"fmt"

	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// binCost is the cycle charge for one binary operation — the exact
// per-case charges of the original applyBinary/applyBinaryFast pair,
// hoisted to a pure table so each apply has a single charge site (which
// is what makes the pair resumable with one frame under the coroutine
// engine; the charge-then-compute order per case is unchanged).
func binCost(op token.Kind, float bool) int {
	switch op {
	case token.Star:
		if float {
			return costFMul
		}
		return costIMul
	case token.Slash, token.Percent:
		if float {
			return costFDiv
		}
		return costIDiv
	default:
		if float {
			return costFAdd
		}
		return costALU
	}
}

// applyResume finishes a suspended binary apply: the charge completed
// and the pure outcome (value or fold error) was saved in the frame, so
// re-entry returns it without consulting the operands. Both appliers
// push this frame shape, which lets a resume reach either one — the
// zero operands a caller passes on re-entry route to the numeric branch
// regardless of how the original call routed.
func (p *Proc) applyResume() (Value, error) {
	fr := p.popKRef()
	if e, ok := fr.x.(error); ok {
		return Value{}, e
	}
	return fr.v, nil
}

// pushApplyOutcome saves a suspended apply's pure outcome.
func (p *Proc) pushApplyOutcome(v Value, err error) {
	if err != nil {
		p.pushK(kframe{x: err})
	} else {
		p.pushK(kframe{v: v})
	}
}

// applyBinaryFast is the compiled engine's fusion of applyBinary and
// foldBinary: one float/int classification, one charge, the same folds,
// wrap-arounds and error messages as the two-level reference pair (which
// stays as the tree-walk path and the constant folder). Behaviourally
// identical by construction; pinned by the engine-equivalence golden
// tests. Resumable: the only suspension point is the charge, after which
// the computation is pure over the operands, so the yield path computes
// the outcome eagerly and re-entry just returns it.
func (p *Proc) applyBinaryFast(op token.Kind, x, y Value, rt *types.Type) (Value, error) {
	// Pointer arithmetic: rare; route through the reference path.
	if xt := x.T; xt != nil && xt.IsPointerLike() && (op == token.Plus || op == token.Minus) {
		return p.applyBinary(op, x, y, rt)
	}
	if p.coResuming {
		return p.applyResume()
	}
	if err := p.chargeCycles(binCost(op, x.IsFloat() || y.IsFloat())); err != nil {
		p.pushApplyOutcome(foldFast(op, x, y, rt))
		return Value{}, err
	}
	return foldFast(op, x, y, rt)
}

// foldFast is applyBinaryFast's pure compute half.
func foldFast(op token.Kind, x, y Value, rt *types.Type) (Value, error) {
	if x.IsFloat() || y.IsFloat() {
		a, b := x.Float(), y.Float()
		t := types.DoubleType
		var v Value
		switch op {
		case token.Plus:
			v = Value{T: t, F: a + b}
		case token.Minus:
			v = Value{T: t, F: a - b}
		case token.Star:
			v = Value{T: t, F: a * b}
		case token.Slash:
			v = Value{T: t, F: a / b}
		case token.Lt:
			v = boolValue(a < b)
		case token.Gt:
			v = boolValue(a > b)
		case token.Le:
			v = boolValue(a <= b)
		case token.Ge:
			v = boolValue(a >= b)
		case token.EqEq:
			v = boolValue(a == b)
		case token.NotEq:
			v = boolValue(a != b)
		default:
			return Value{}, fmt.Errorf("float operands for %s", op)
		}
		if rt != nil && rt.IsArithmetic() {
			return Convert(v, rt), nil
		}
		return v, nil
	}
	a, b := x.Int(), y.Int()
	t := types.IntType
	uns := x.T != nil && x.T.Kind == types.UInt
	if uns {
		t = types.UIntType
	}
	wrap := func(v int64) Value {
		if uns {
			return Value{T: t, I: int64(uint32(v))}
		}
		return Value{T: t, I: int64(int32(v))}
	}
	var v Value
	switch op {
	case token.Plus:
		v = wrap(a + b)
	case token.Minus:
		v = wrap(a - b)
	case token.Star:
		v = wrap(a * b)
	case token.Slash:
		if b == 0 {
			return Value{}, fmt.Errorf("integer division by zero")
		}
		v = wrap(a / b)
	case token.Percent:
		if b == 0 {
			return Value{}, fmt.Errorf("integer modulo by zero")
		}
		v = wrap(a % b)
	case token.Amp:
		v = wrap(a & b)
	case token.Pipe:
		v = wrap(a | b)
	case token.Caret:
		v = wrap(a ^ b)
	case token.Shl:
		v = wrap(a << (uint(b) & 31))
	case token.Shr:
		if uns {
			v = wrap(int64(uint32(a) >> (uint(b) & 31)))
		} else {
			v = wrap(int64(int32(a) >> (uint(b) & 31)))
		}
	case token.Lt:
		v = boolValue(a < b)
	case token.Gt:
		v = boolValue(a > b)
	case token.Le:
		v = boolValue(a <= b)
	case token.Ge:
		v = boolValue(a >= b)
	case token.EqEq:
		v = boolValue(a == b)
	case token.NotEq:
		v = boolValue(a != b)
	default:
		return Value{}, fmt.Errorf("binary op %s unsupported", op)
	}
	if rt != nil && rt.IsArithmetic() {
		return Convert(v, rt), nil
	}
	return v, nil
}

// Static-type kernels. sema fixes an operator's result type, and with it
// what applyBinaryFast would decide on nearly every execution, so
// compileBinary picks a kernel at lowering time and the closure enters
// it when the operands' runtime tags confirm the guess. The tags, not
// the static operand types, are what foldFast reads, and they can differ
// (an int literal beside an unsigned, a pointer behind an int-typed
// expression): everything else falls through to applyBinaryFast
// untouched. Inside, the charge is binCost's as a constant and the fold
// is foldFast's branch for those tags with the result conversion folded
// in — the same value, tag and cycles (TestBinaryKernelsMatchFold).
type binKernel uint8

const (
	kernNone   binKernel = iota
	kernInt              // + - * < > <= >= == != on signed ints of at most 32 bits, int or long result
	kernDouble           // + - * / on floating operands, double result
)

// pickKernel selects the kernel for op with result type rt, and its
// cycle charge.
func pickKernel(op token.Kind, rt *types.Type) (binKernel, int) {
	arith := op == token.Plus || op == token.Minus || op == token.Star
	compare := op == token.Lt || op == token.Gt || op == token.Le || op == token.Ge || op == token.EqEq || op == token.NotEq
	switch {
	case rt == nil:
	case (rt.Kind == types.Int || rt.Kind == types.Long) && (arith || compare):
		return kernInt, binCost(op, false)
	case rt.Kind == types.Double && (arith || op == token.Slash):
		return kernDouble, binCost(op, true)
	}
	return kernNone, 0
}

// sintTag reports a runtime tag of char, short, int or long: the
// operands foldFast folds as signed 32-bit integers.
func sintTag(t *types.Type) bool {
	return t != nil && t.Kind >= types.Char && t.Kind <= types.Long
}

// applyKernel is applyBinaryFast behind the lowering-time choice, with
// the same contract: on a yield at the charge the outcome is saved and
// the caller pushes its own frame, whose resume (empty operands, which
// no kernel accepts) reaches applyResume.
func (p *Proc) applyKernel(kern binKernel, cost int, op token.Kind, x, y Value, rt *types.Type) (Value, error) {
	var v Value
	switch {
	case kern == kernInt && sintTag(x.T) && sintTag(y.T):
		w, _ := folds[fop(op)](uint64(x.I), uint64(y.I))
		v = Value{T: rt, I: int64(w)}
	case kern == kernDouble && x.IsFloat() && y.IsFloat():
		w, _ := folds[fopDbl|fop(op)](fw(x.F), fw(y.F))
		v = Value{T: rt, F: fv(w)}
	default:
		return p.applyBinaryFast(op, x, y, rt)
	}
	if err := p.chargeCycles(cost); err != nil {
		p.pushApplyOutcome(v, nil)
		return Value{}, err
	}
	return v, nil
}

func boolValue(b bool) Value {
	if b {
		return Value{T: types.IntType, I: 1}
	}
	return Value{T: types.IntType, I: 0}
}
