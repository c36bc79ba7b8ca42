package ast

// Builders for generated code: the synthetic-workload and conformance
// generators assemble their Pthread programs from these, and the
// translator its RCCE statements, so all print the same shapes the same
// way. The nodes carry no position and no type, but for an integer
// literal's, which is int as the parser gives it.

import (
	"strconv"
	"strings"

	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Id is the identifier name.
func Id(name string) *Ident { return &Ident{Name: name} }

// Int is the decimal literal v.
func Int(v int64) *IntLit {
	return &IntLit{Value: v, Text: strconv.FormatInt(v, 10), Typ: types.IntType}
}

// Float is the shortest literal that reads back as v, always with a
// point or an exponent so C reads it as a double.
func Float(v float64) *FloatLit {
	t := strconv.FormatFloat(v, 'g', -1, 64)
	if !strings.ContainsAny(t, ".eE") {
		t += ".0"
	}
	return &FloatLit{Value: v, Text: t}
}

// Str is the string literal s.
func Str(s string) *StringLit { return &StringLit{Value: s} }

// Bin is x op y.
func Bin(op token.Kind, x, y Expr) *BinaryExpr { return &BinaryExpr{Op: op, X: x, Y: y} }

// Assign is lhs = rhs.
func Assign(lhs, rhs Expr) *AssignExpr { return &AssignExpr{Op: token.Assign, LHS: lhs, RHS: rhs} }

// Eval is the statement e;.
func Eval(e Expr) Stmt { return &ExprStmt{X: e} }

// CallStmt is the statement name(args...);.
func CallStmt(name string, args ...Expr) Stmt { return Eval(&CallExpr{Fun: Id(name), Args: args}) }

// Var declares name of type t, initialised to init when it is non-nil.
func Var(name string, t *types.Type, init Expr) Stmt {
	return &DeclStmt{Decl: &VarDecl{Name: name, Type: t, Init: init}}
}

// Mul is x*k, folded to x when k is 1.
func Mul(x Expr, k int) Expr {
	if k == 1 {
		return x
	}
	return Bin(token.Star, x, Int(int64(k)))
}

// Nest makes list a loop body: one statement stays bare (printed
// without braces), several become a block.
func Nest(list []Stmt) Stmt {
	if len(list) == 1 {
		return list[0]
	}
	return &BlockStmt{List: list}
}

// Loop is for (v = from; v < to; v++) body.
func Loop(v string, from, to Expr, body Stmt) *ForStmt {
	return &ForStmt{
		Init: Eval(Assign(Id(v), from)),
		Cond: Bin(token.Lt, Id(v), to),
		Post: &PostfixExpr{Op: token.PlusPlus, X: Id(v)},
		Body: body,
	}
}

// CreateJoin starts threads threads th[t] running fn(t), then joins
// them all; th and t must be declared.
func CreateJoin(fn string, threads int) []Stmt {
	th := func() Expr { return &IndexExpr{X: Id("th"), Index: Id("t")} }
	return []Stmt{
		Loop("t", Int(0), Int(int64(threads)), CallStmt("pthread_create",
			&UnaryExpr{Op: token.Amp, X: th()}, Id("NULL"), Id(fn),
			&CastExpr{To: types.PointerTo(types.VoidType), X: Id("t")})),
		Loop("t", Int(0), Int(int64(threads)), CallStmt("pthread_join", th(), Id("NULL"))),
	}
}
