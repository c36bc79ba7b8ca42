package interp

import (
	"fmt"

	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// C binary arithmetic over Values exists once, here: ApplyBinary charges
// and folds for the generic closures and the tree-walk reference
// (package interpref) alike,
// and foldBinary is the pure core the constant folder shares. The fused
// closures of fuse.go fold payload words instead (folds), and
// TestFoldsMatchFoldBinary pins every one of those to foldBinary.

// binCost is the cycle charge for one binary operation, as a pure table
// so that ApplyBinary has a single charge site (which is what makes it
// resumable with one frame under the coroutine engine).
func binCost(op token.Kind, float bool) int {
	switch op {
	case token.Star:
		if float {
			return CostFMul
		}
		return CostIMul
	case token.Slash, token.Percent:
		if float {
			return CostFDiv
		}
		return CostIDiv
	default:
		if float {
			return CostFAdd
		}
		return CostALU
	}
}

// sintTag reports a runtime tag of char, short, int or long: the
// operands a fused fold (fuse.go) takes as signed 32-bit integers, as
// foldBinary does.
func sintTag(t *types.Type) bool {
	return t != nil && t.Kind >= types.Char && t.Kind <= types.Long
}

// compoundOps maps each compound assignment to its binary operator.
var compoundOps = map[token.Kind]token.Kind{
	token.AddAssign: token.Plus,
	token.SubAssign: token.Minus,
	token.MulAssign: token.Star,
	token.DivAssign: token.Slash,
	token.ModAssign: token.Percent,
	token.AndAssign: token.Amp,
	token.OrAssign:  token.Pipe,
	token.XorAssign: token.Caret,
	token.ShlAssign: token.Shl,
	token.ShrAssign: token.Shr,
}

// CompoundOp returns the binary operator of compound assignment op (+=
// gives +); ok is false for any other kind.
func CompoundOp(op token.Kind) (bin token.Kind, ok bool) {
	bin, ok = compoundOps[op]
	return bin, ok
}

// ApplyBinary computes x op y, charging the operation cost. The single
// charge site is what makes it resumable in compiled contexts: a yield
// at the charge saves the pure outcome (value or fold error) in the
// frame, so re-entry — with any operands; callers pass empty ones —
// just returns it.
func (p *Proc) ApplyBinary(op token.Kind, x, y Value, rt *types.Type) (Value, error) {
	if p.coResuming {
		fr := p.popKRef()
		if e, ok := fr.x.(error); ok {
			return Value{}, e
		}
		return fr.v, nil
	}
	cost := CostALU // pointer arithmetic charges one ALU cycle
	if xt := x.T; xt == nil || !xt.IsPointerLike() || (op != token.Plus && op != token.Minus) {
		cost = binCost(op, x.IsFloat() || y.IsFloat())
	}
	if err := p.chargeCycles(cost); err != nil {
		v, ferr := applyBinaryFold(op, x, y, rt)
		p.pushK(kframe{v: v, x: ferr})
		return Value{}, err
	}
	return applyBinaryFold(op, x, y, rt)
}

// applyBinaryFold is ApplyBinary's pure compute half: pointer
// arithmetic, then the shared numeric fold.
func applyBinaryFold(op token.Kind, x, y Value, rt *types.Type) (Value, error) {
	// Pointer arithmetic: scale the integer side by the element size.
	if xt := x.T; xt != nil && xt.IsPointerLike() && (op == token.Plus || op == token.Minus) {
		elem := xt.Decay().Elem
		size := int64(4)
		if elem != nil && elem.Size() > 0 {
			size = int64(elem.Size())
		}
		if yt := y.T; yt != nil && yt.IsPointerLike() && op == token.Minus {
			return IntValue(types.IntType, (x.Int()-y.Int())/size), nil
		}
		delta := y.Int() * size
		if op == token.Minus {
			delta = -delta
		}
		return PtrValue(xt.Decay(), uint32(x.Int()+delta)), nil
	}
	v, err := foldBinary(op, x, y)
	if err != nil {
		return Value{}, err
	}
	if rt != nil && rt.IsArithmetic() && v.T != nil && v.T.IsArithmetic() {
		return Convert(v, rt), nil
	}
	return v, nil
}

// foldBinary is the pure arithmetic core, shared with the constant folder.
func foldBinary(op token.Kind, x, y Value) (Value, error) {
	float := x.IsFloat() || y.IsFloat()
	boolInt := func(b bool) Value {
		if b {
			return IntValue(types.IntType, 1)
		}
		return IntValue(types.IntType, 0)
	}
	if float {
		a, b := x.Float(), y.Float()
		t := types.DoubleType
		switch op {
		case token.Plus:
			return FloatValue(t, a+b), nil
		case token.Minus:
			return FloatValue(t, a-b), nil
		case token.Star:
			return FloatValue(t, a*b), nil
		case token.Slash:
			return FloatValue(t, a/b), nil
		case token.Lt:
			return boolInt(a < b), nil
		case token.Gt:
			return boolInt(a > b), nil
		case token.Le:
			return boolInt(a <= b), nil
		case token.Ge:
			return boolInt(a >= b), nil
		case token.EqEq:
			return boolInt(a == b), nil
		case token.NotEq:
			return boolInt(a != b), nil
		default:
			return Value{}, fmt.Errorf("float operands for %s", op)
		}
	}
	a, b := x.Int(), y.Int()
	t := types.IntType
	if x.T != nil && x.T.Kind == types.UInt {
		t = types.UIntType
	}
	wrap := func(v int64) Value {
		if t.Kind == types.UInt {
			return IntValue(t, int64(uint32(v)))
		}
		return IntValue(t, int64(int32(v)))
	}
	switch op {
	case token.Plus:
		return wrap(a + b), nil
	case token.Minus:
		return wrap(a - b), nil
	case token.Star:
		return wrap(a * b), nil
	case token.Slash:
		if b == 0 {
			return Value{}, fmt.Errorf("integer division by zero")
		}
		return wrap(a / b), nil
	case token.Percent:
		if b == 0 {
			return Value{}, fmt.Errorf("integer modulo by zero")
		}
		return wrap(a % b), nil
	case token.Amp:
		return wrap(a & b), nil
	case token.Pipe:
		return wrap(a | b), nil
	case token.Caret:
		return wrap(a ^ b), nil
	case token.Shl:
		return wrap(a << (uint(b) & 31)), nil
	case token.Shr:
		if t.Kind == types.UInt {
			return wrap(int64(uint32(a) >> (uint(b) & 31))), nil
		}
		return wrap(int64(int32(a) >> (uint(b) & 31))), nil
	case token.Lt:
		return boolInt(a < b), nil
	case token.Gt:
		return boolInt(a > b), nil
	case token.Le:
		return boolInt(a <= b), nil
	case token.Ge:
		return boolInt(a >= b), nil
	case token.EqEq:
		return boolInt(a == b), nil
	case token.NotEq:
		return boolInt(a != b), nil
	default:
		return Value{}, fmt.Errorf("binary op %s unsupported", op)
	}
}
