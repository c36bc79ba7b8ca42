package parser

import (
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
)

// parseBlock parses "{ stmt* }".
func (p *parser) parseBlock() (*ast.BlockStmt, error) {
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	blk := &ast.BlockStmt{PosInfo: lb.Pos}
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errorf("unexpected EOF inside block")
		}
		if blk.List, err = p.appendStmt(blk.List); err != nil {
			return nil, err
		}
	}
	p.next() // }
	return blk, nil
}

// appendStmt parses one statement of a statement list onto list. A
// declaration's declarators become one DeclStmt each, side by side in
// the list, so every name is declared in the list's own scope.
func (p *parser) appendStmt(list []ast.Stmt) ([]ast.Stmt, error) {
	if p.isTypeStart() {
		decls, err := p.parseLocalDecls()
		if err != nil {
			return nil, err
		}
		return append(list, decls...), nil
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return append(list, s), nil
}

// parseStmt parses one statement.
func (p *parser) parseStmt() (ast.Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		p.next()
		return &ast.EmptyStmt{PosInfo: t.Pos}, nil
	case token.KwIf:
		return p.parseIf()
	case token.KwFor:
		return p.parseFor()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwSwitch:
		return p.parseSwitch()
	case token.KwReturn:
		p.next()
		rs := &ast.ReturnStmt{PosInfo: t.Pos}
		if !p.at(token.Semi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.Result = e
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return rs, nil
	case token.KwBreak:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return &ast.BreakStmt{PosInfo: t.Pos}, nil
	case token.KwContinue:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		return &ast.ContinueStmt{PosInfo: t.Pos}, nil
	}
	if p.isTypeStart() {
		// A declaration where one statement stands (C allows none here):
		// its declarators are scoped to a block of their own.
		decls, err := p.parseLocalDecls()
		if err != nil {
			return nil, err
		}
		if len(decls) == 1 {
			return decls[0], nil
		}
		return &ast.BlockStmt{List: decls, PosInfo: t.Pos}, nil
	}
	// Expression statement.
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return &ast.ExprStmt{X: e, PosInfo: t.Pos}, nil
}

// parseLocalDecls parses one local declaration line into one DeclStmt
// per declarator, in order; a line that declares no variable (a struct
// definition) is one EmptyStmt. The caller puts them in the scope that
// encloses the line.
func (p *parser) parseLocalDecls() ([]ast.Stmt, error) {
	pos := p.cur().Pos
	nodes, err := p.parseDeclOrFunc()
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return []ast.Stmt{&ast.EmptyStmt{PosInfo: pos}}, nil
	}
	stmts := make([]ast.Stmt, len(nodes))
	for i, n := range nodes {
		vd, ok := n.(*ast.VarDecl)
		if !ok {
			return nil, p.errorf("function declarations are not allowed inside blocks")
		}
		stmts[i] = &ast.DeclStmt{Decl: vd, PosInfo: vd.PosInfo}
	}
	return stmts, nil
}

func (p *parser) parseIf() (ast.Stmt, error) {
	pos := p.next().Pos // if
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	is := &ast.IfStmt{Cond: cond, Then: then, PosInfo: pos}
	if p.accept(token.KwElse) {
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		is.Else = els
	}
	return is, nil
}

func (p *parser) parseFor() (ast.Stmt, error) {
	pos := p.next().Pos // for
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	fs := &ast.ForStmt{PosInfo: pos}
	// decls holds a declaration's declarators when there is more than
	// one: for (T a, b; c; n) s is { T a; T b; for (; c; n) s }, which
	// scopes a and b to the loop as C does.
	var decls []ast.Stmt
	if !p.at(token.Semi) {
		if p.isTypeStart() {
			d, err := p.parseLocalDecls()
			if err != nil {
				return nil, err
			}
			if len(d) == 1 {
				fs.Init = d[0]
			} else {
				decls = d
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Init = &ast.ExprStmt{X: e, PosInfo: e.Pos()}
			if _, err := p.expect(token.Semi); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(token.Semi) {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = c
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	if !p.at(token.RParen) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	if decls != nil {
		return &ast.BlockStmt{List: append(decls, fs), PosInfo: pos}, nil
	}
	return fs, nil
}

func (p *parser) parseWhile() (ast.Stmt, error) {
	pos := p.next().Pos // while
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &ast.WhileStmt{Cond: cond, Body: body, PosInfo: pos}, nil
}

func (p *parser) parseDoWhile() (ast.Stmt, error) {
	pos := p.next().Pos // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return &ast.DoWhileStmt{Body: body, Cond: cond, PosInfo: pos}, nil
}

func (p *parser) parseSwitch() (ast.Stmt, error) {
	pos := p.next().Pos // switch
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	sw := &ast.SwitchStmt{Tag: tag, PosInfo: pos}
	for !p.at(token.RBrace) {
		var cc *ast.CaseClause
		cpos := p.cur().Pos
		if p.accept(token.KwCase) {
			v, err := p.parseCondExpr()
			if err != nil {
				return nil, err
			}
			cc = &ast.CaseClause{Value: v, PosInfo: cpos}
		} else if p.accept(token.KwDefault) {
			cc = &ast.CaseClause{PosInfo: cpos}
		} else {
			return nil, p.errorf("expected case or default in switch, found %s", p.cur())
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		for !p.at(token.KwCase) && !p.at(token.KwDefault) && !p.at(token.RBrace) {
			if cc.Body, err = p.appendStmt(cc.Body); err != nil {
				return nil, err
			}
		}
		sw.Cases = append(sw.Cases, cc)
	}
	p.next() // }
	return sw, nil
}
