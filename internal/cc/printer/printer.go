// Package printer serialises the hsmcc IR back to compilable C source.
// It is the final stage of the paper's source-to-source pipeline: the
// translated RCCE program emitted here is what would be handed to icc on
// the SCC. The simulator runs the tree this prints; that printing and
// re-parsing gives back that tree is tested (bench.TestPrintedIsWhatRuns).
package printer

import (
	"fmt"
	"strings"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Print renders a whole translation unit.
func Print(f *ast.File) string {
	var p printer
	for i, d := range f.Decls {
		switch n := d.(type) {
		case *ast.Include:
			p.line(n.Text)
		case *ast.TypedefDecl:
			p.line("typedef " + declString(n.Type, n.Name) + ";")
		case *ast.StructDecl:
			p.printStructDef(n)
		case *ast.VarDecl:
			p.line(varDeclString(n) + ";")
		case *ast.FuncDecl:
			if i > 0 {
				p.line("")
			}
			p.printFunc(n)
		}
	}
	return p.sb.String()
}

// ExprString renders a single expression (used in tests and diagnostics).
func ExprString(e ast.Expr) string { return exprString(e, precLowest) }

// StmtString renders a single statement at zero indentation.
func StmtString(s ast.Stmt) string {
	var p printer
	p.printStmt(s)
	return strings.TrimRight(p.sb.String(), "\n")
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (p *printer) line(s string) {
	for i := 0; i < p.indent; i++ {
		p.sb.WriteString("    ")
	}
	p.sb.WriteString(s)
	p.sb.WriteByte('\n')
}

func (p *printer) printFunc(f *ast.FuncDecl) {
	var params []string
	for _, prm := range f.Params {
		params = append(params, declString(prm.Type, prm.Name))
	}
	sig := fmt.Sprintf("%s(%s)", declString(f.Result, f.Name), strings.Join(params, ", "))
	if f.Body == nil {
		p.line(sig + ";")
		return
	}
	p.line(sig)
	p.printBlock(f.Body)
}

func (p *printer) printBlock(b *ast.BlockStmt) {
	p.line("{")
	p.indent++
	for _, s := range b.List {
		p.printStmt(s)
	}
	p.indent--
	p.line("}")
}

func (p *printer) printStmt(s ast.Stmt) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		p.printBlock(n)
	case *ast.DeclStmt:
		p.line(varDeclString(n.Decl) + ";")
	case *ast.ExprStmt:
		p.line(exprString(n.X, precLowest) + ";")
	case *ast.IfStmt:
		p.line("if (" + exprString(n.Cond, precLowest) + ")")
		p.printNested(n.Then)
		if n.Else != nil {
			p.line("else")
			p.printNested(n.Else)
		}
	case *ast.ForStmt:
		var init, cond, post string
		switch in := n.Init.(type) {
		case nil:
		case *ast.ExprStmt:
			init = exprString(in.X, precLowest)
		case *ast.DeclStmt:
			init = varDeclString(in.Decl)
		}
		if n.Cond != nil {
			cond = exprString(n.Cond, precLowest)
		}
		if n.Post != nil {
			post = exprString(n.Post, precLowest)
		}
		p.line(fmt.Sprintf("for (%s; %s; %s)", init, cond, post))
		p.printNested(n.Body)
	case *ast.WhileStmt:
		p.line("while (" + exprString(n.Cond, precLowest) + ")")
		p.printNested(n.Body)
	case *ast.DoWhileStmt:
		p.line("do")
		p.printNested(n.Body)
		p.line("while (" + exprString(n.Cond, precLowest) + ");")
	case *ast.SwitchStmt:
		p.line("switch (" + exprString(n.Tag, precLowest) + ") {")
		for _, c := range n.Cases {
			if c.Value != nil {
				p.line("case " + exprString(c.Value, precLowest) + ":")
			} else {
				p.line("default:")
			}
			p.indent++
			for _, cs := range c.Body {
				p.printStmt(cs)
			}
			p.indent--
		}
		p.line("}")
	case *ast.ReturnStmt:
		if n.Result != nil {
			p.line("return " + exprString(n.Result, precLowest) + ";")
		} else {
			p.line("return;")
		}
	case *ast.BreakStmt:
		p.line("break;")
	case *ast.ContinueStmt:
		p.line("continue;")
	case *ast.EmptyStmt:
		p.line(";")
	default:
		p.line(fmt.Sprintf("/* unprintable statement %T */", s))
	}
}

// printNested prints a statement as the body of a control structure,
// keeping blocks flush and indenting single statements.
func (p *printer) printNested(s ast.Stmt) {
	if b, ok := s.(*ast.BlockStmt); ok {
		p.printBlock(b)
		return
	}
	p.indent++
	p.printStmt(s)
	p.indent--
}

// varDeclString renders "int x", "int *p = &y", "double a[64] = {0}".
func varDeclString(d *ast.VarDecl) string {
	s := declString(d.Type, d.Name)
	switch d.Storage {
	case ast.StorageStatic:
		s = "static " + s
	case ast.StorageExtern:
		s = "extern " + s
	}
	if d.Init != nil {
		s += " = " + exprString(d.Init, precAssign)
	} else if d.InitLst != nil {
		var parts []string
		for _, e := range d.InitLst {
			parts = append(parts, exprString(e, precAssign))
		}
		s += " = {" + strings.Join(parts, ", ") + "}"
	}
	return s
}

// declString renders a C declarator: type then name with pointer/array
// syntax, e.g. declString(int**, "p") = "int **p";
// declString(double[3][4], "m") = "double m[3][4]".
func declString(t *types.Type, name string) string {
	// Peel arrays (outermost first) and pointers (innermost last).
	suffix := ""
	for t.Kind == types.Array {
		if t.Len < 0 {
			suffix += "[]"
		} else {
			suffix += fmt.Sprintf("[%d]", t.Len)
		}
		t = t.Elem
	}
	stars := ""
	for t.Kind == types.Pointer {
		stars += "*"
		t = t.Elem
	}
	base := t.String()
	if name == "" {
		return base + stars + suffix
	}
	return base + " " + stars + name + suffix
}

// TypeString renders a type for a cast, e.g. "(int *)".
func TypeString(t *types.Type) string {
	stars := ""
	for t.Kind == types.Pointer {
		stars += " *"
		t = t.Elem
	}
	return t.String() + stars
}

// Operator precedence for minimal-parentheses printing.
const (
	precLowest = iota
	precComma
	precAssign
	precCond
	precLogOr
	precLogAnd
	precBitOr
	precBitXor
	precBitAnd
	precEq
	precRel
	precShift
	precAdd
	precMul
	precCast
	precUnary
	precPostfix
)

func binPrec(op token.Kind) int {
	switch op {
	case token.OrOr:
		return precLogOr
	case token.AndAnd:
		return precLogAnd
	case token.Pipe:
		return precBitOr
	case token.Caret:
		return precBitXor
	case token.Amp:
		return precBitAnd
	case token.EqEq, token.NotEq:
		return precEq
	case token.Lt, token.Gt, token.Le, token.Ge:
		return precRel
	case token.Shl, token.Shr:
		return precShift
	case token.Plus, token.Minus:
		return precAdd
	case token.Star, token.Slash, token.Percent:
		return precMul
	}
	return precLowest
}

func opText(op token.Kind) string { return op.String() }

// exprString renders e; parent is the precedence of the enclosing context,
// used to decide whether parentheses are required.
func exprString(e ast.Expr, parent int) string {
	var s string
	var prec int
	switch n := e.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.IntLit:
		return n.Text
	case *ast.FloatLit:
		return n.Text
	case *ast.StringLit:
		return "\"" + escapeString(n.Value) + "\""
	case *ast.CharLit:
		return "'" + escapeChar(n.Value) + "'"
	case *ast.ParenExpr:
		return "(" + exprString(n.X, precLowest) + ")"
	case *ast.BinaryExpr:
		prec = binPrec(n.Op)
		s = exprString(n.X, prec) + " " + opText(n.Op) + " " + exprString(n.Y, prec+1)
	case *ast.AssignExpr:
		prec = precAssign
		s = exprString(n.LHS, precUnary) + " " + opText(n.Op) + " " + exprString(n.RHS, precAssign)
	case *ast.UnaryExpr:
		prec = precUnary
		op := opText(n.Op)
		inner := exprString(n.X, precUnary)
		// Keep adjacent sign/address operators from merging into a
		// different token: `-(-a)` must not print as `--a` (which would
		// re-lex as a pre-decrement), nor `&(&x)` as `&&x`.
		if len(inner) > 0 && inner[0] == op[len(op)-1] &&
			(op == "-" || op == "+" || op == "&") {
			op += " "
		}
		s = op + inner
	case *ast.PostfixExpr:
		prec = precPostfix
		s = exprString(n.X, precPostfix) + opText(n.Op)
	case *ast.IndexExpr:
		prec = precPostfix
		s = exprString(n.X, precPostfix) + "[" + exprString(n.Index, precLowest) + "]"
	case *ast.CallExpr:
		prec = precPostfix
		var args []string
		for _, a := range n.Args {
			args = append(args, exprString(a, precAssign))
		}
		s = exprString(n.Fun, precPostfix) + "(" + strings.Join(args, ", ") + ")"
	case *ast.CastExpr:
		prec = precCast
		s = "(" + TypeString(n.To) + ")" + exprString(n.X, precCast)
	case *ast.SizeofExpr:
		prec = precUnary
		if n.OfType != nil {
			s = "sizeof(" + TypeString(n.OfType) + ")"
		} else {
			s = "sizeof(" + exprString(n.X, precLowest) + ")"
		}
		return s
	case *ast.CondExpr:
		prec = precCond
		s = exprString(n.Cond, precLogOr) + " ? " + exprString(n.Then, precLowest) +
			" : " + exprString(n.Else, precCond)
	case *ast.CommaExpr:
		prec = precComma
		s = exprString(n.X, precComma) + ", " + exprString(n.Y, precAssign)
	case *ast.MemberExpr:
		prec = precPostfix
		op := "."
		if n.Arrow {
			op = "->"
		}
		s = exprString(n.X, precPostfix) + op + n.Name
	default:
		return fmt.Sprintf("/*?%T*/", e)
	}
	if prec < parent {
		return "(" + s + ")"
	}
	return s
}

func escapeString(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		sb.WriteString(escapeChar(s[i]))
	}
	return sb.String()
}

func escapeChar(c byte) string {
	switch c {
	case '\n':
		return "\\n"
	case '\t':
		return "\\t"
	case '\r':
		return "\\r"
	case 0:
		return "\\0"
	case '\\':
		return "\\\\"
	case '"':
		return "\\\""
	case '\'':
		return "\\'"
	default:
		return string(c)
	}
}

// printStructDef re-emits a struct definition from its laid-out type.
func (p *printer) printStructDef(n *ast.StructDecl) {
	p.line("struct " + n.Type.Name + " {")
	for _, f := range n.Type.Fields {
		p.line("    " + declString(f.Type, f.Name) + ";")
	}
	p.line("};")
}
