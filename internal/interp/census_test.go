package interp

import (
	"fmt"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Census is the test-only lowering census: it asks the compiler's own
// classification (classify, planBinary, compileEffect, fuseIndex) what
// every site of a loaded program lowers to, so it cannot drift from
// what compileProgram builds. Exported for the external test package,
// which may import the corpus.
type Census struct {
	// Sites counts the sites lowered by each fused shape.
	Sites map[string]int
	// Generic lists the statements, conditions and posts of innermost
	// loops with no fused site anywhere inside them.
	Generic []string
}

// LoweringCensus walks every function of pr.
func LoweringCensus(pr *Program) Census {
	cs := Census{Sites: map[string]int{}}
	for _, cf := range pr.compiledList {
		if cf.decl.Body == nil {
			continue
		}
		c := newCompiler(pr, cf)
		ast.Inspect(cf.decl.Body, func(n ast.Node) bool {
			for _, s := range c.sitesAt(n) {
				cs.Sites[s]++
			}
			if body, parts := loopParts(n); body != nil && !hasLoop(body) {
				for _, part := range append(parts, leafStmts(body)...) {
					if part != nil && !c.anySite(part) {
						cs.Generic = append(cs.Generic, fmt.Sprintf("%s %s: %T", cf.name, part.Pos(), part))
					}
				}
			}
			return true
		})
	}
	return cs
}

// pairName names the closure fuseBinary picks.
func pairName(x, y operand) string {
	switch {
	case x.shape == shSlot && y.shape == shConst:
		return "slot∘const"
	case x.shape == shSlot && y.shape == shSlot:
		return "slot∘slot"
	case x.shape == shSlot:
		return "slot∘raw"
	case y.shape == shConst:
		return "raw∘const"
	}
	return "raw∘raw"
}

// sitesAt names the fused sites node n itself lowers to (not its
// children's).
func (c *compiler) sitesAt(n ast.Node) []string {
	var out []string
	branch := func(cond ast.Expr) {
		if b, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok && c.classify(b).shape == shExpr && b.Op >= token.Lt && b.Op <= token.NotEq {
			out = append(out, "compare-and-branch")
		}
	}
	effect := func(e ast.Expr) {
		if e == nil || c.compileEffect(e, 0) == nil {
			return
		}
		var lhs ast.Expr
		kind := "step"
		switch x := ast.Unparen(e).(type) {
		case *ast.PostfixExpr:
			lhs = x.X
		case *ast.UnaryExpr:
			lhs = x.X
		case *ast.AssignExpr:
			lhs, kind = x.LHS, "update"
			if x.Op == token.Assign {
				kind = "store"
			}
		}
		target := "lvalue"
		if c.classify(lhs).shape == shSlot {
			target = "slot"
		}
		out = append(out, kind+" "+target)
	}
	switch x := n.(type) {
	case *ast.BinaryExpr:
		if c.classify(x).shape != shExpr {
			break
		}
		if x.Op == token.AndAnd || x.Op == token.OrOr {
			out = append(out, "logic")
			break
		}
		_, _, l, r, _ := c.planBinary(x)
		out = append(out, "bin "+pairName(l, r))
		if (x.Op == token.Slash || x.Op == token.Percent) && r.shape == shConst && !r.dbl() {
			out = append(out, "div/mod by literal")
		}
	case *ast.CastExpr:
		if c.classify(x).shape == shExpr {
			out = append(out, "cast "+pairName(c.classify(x.X), operand{shape: shConst}))
		}
	case *ast.IndexExpr:
		if lf, _ := c.fuseIndex(x); lf != nil {
			id := ast.Unparen(x.X).(*ast.Ident)
			base, idx := "base", "raw"
			if _, global := c.pr.GlobalAddr(id.Sym); global && id.Sym.Type.Kind == types.Array {
				base = "global"
			}
			if c.classify(x.Index).shape == shSlot {
				idx = "slot"
			}
			out = append(out, fmt.Sprintf("index %s[%s]", base, idx))
		}
	case *ast.ExprStmt:
		effect(x.X)
	case *ast.ForStmt:
		effect(x.Post)
		if x.Cond != nil {
			branch(x.Cond)
		}
	case *ast.IfStmt:
		branch(x.Cond)
	case *ast.WhileStmt:
		branch(x.Cond)
	case *ast.DoWhileStmt:
		branch(x.Cond)
	}
	return out
}

// anySite reports whether any node under n lowers to a fused shape.
func (c *compiler) anySite(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		found = found || len(c.sitesAt(m)) > 0
		return !found
	})
	if e, ok := n.(ast.Expr); ok && !found {
		found = c.compileEffect(e, 0) != nil // a for's post
	}
	return found
}

// loopParts returns a loop's body and its condition and post.
func loopParts(n ast.Node) (ast.Stmt, []ast.Node) {
	switch x := n.(type) {
	case *ast.ForStmt:
		parts := []ast.Node{}
		if x.Cond != nil {
			parts = append(parts, x.Cond)
		}
		if x.Post != nil {
			parts = append(parts, x.Post)
		}
		return x.Body, parts
	case *ast.WhileStmt:
		return x.Body, []ast.Node{x.Cond}
	case *ast.DoWhileStmt:
		return x.Body, []ast.Node{x.Cond}
	}
	return nil, nil
}

func hasLoop(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if body, _ := loopParts(n); body != nil {
			found = true
		}
		return !found
	})
	return found
}

// leafStmts flattens blocks and ifs into the expression statements and
// if-conditions they execute.
func leafStmts(s ast.Stmt) []ast.Node {
	switch x := s.(type) {
	case *ast.BlockStmt:
		var out []ast.Node
		for _, st := range x.List {
			out = append(out, leafStmts(st)...)
		}
		return out
	case *ast.IfStmt:
		out := append([]ast.Node{x.Cond}, leafStmts(x.Then)...)
		if x.Else != nil {
			out = append(out, leafStmts(x.Else)...)
		}
		return out
	case *ast.ExprStmt:
		return []ast.Node{x}
	}
	return nil
}
