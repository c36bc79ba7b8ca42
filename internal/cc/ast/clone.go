package ast

// Clone returns a deep copy of f: every node and every node slice is
// new, so a transformation may rewrite the copy in place while other
// goroutines read f. Types are immutable and shared. The sema links
// (Sym, Typ) are copied as they are, so the copy's identifiers still
// name f's symbols until sema runs on the copy and relinks them; a pass
// that matches identifiers by symbol (translate's scalar promotion) can
// therefore run on the copy against f's analysis.
func Clone(f *File) *File {
	out := &File{Name: f.Name, Decls: make([]Node, len(f.Decls))}
	for i, d := range f.Decls {
		out.Decls[i] = cloneDecl(d)
	}
	return out
}

func cloneDecl(d Node) Node {
	switch n := d.(type) {
	case *Include:
		c := *n
		return &c
	case *TypedefDecl:
		c := *n
		return &c
	case *StructDecl:
		c := *n
		return &c
	case *VarDecl:
		return cloneVarDecl(n)
	case *FuncDecl:
		c := *n
		if n.Params != nil {
			c.Params = make([]*Param, len(n.Params))
			for i, p := range n.Params {
				cp := *p
				c.Params[i] = &cp
			}
		}
		if n.Body != nil {
			c.Body = cloneStmt(n.Body).(*BlockStmt)
		}
		return &c
	}
	panic("ast.Clone: unknown declaration")
}

func cloneVarDecl(n *VarDecl) *VarDecl {
	c := *n
	c.Init = cloneExpr(n.Init)
	c.InitLst = cloneExprs(n.InitLst)
	return &c
}

func cloneStmts(list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch n := s.(type) {
	case nil:
		return nil
	case *BlockStmt:
		return &BlockStmt{List: cloneStmts(n.List), PosInfo: n.PosInfo}
	case *DeclStmt:
		return &DeclStmt{Decl: cloneVarDecl(n.Decl), PosInfo: n.PosInfo}
	case *ExprStmt:
		return &ExprStmt{X: cloneExpr(n.X), PosInfo: n.PosInfo}
	case *IfStmt:
		return &IfStmt{Cond: cloneExpr(n.Cond), Then: cloneStmt(n.Then), Else: cloneStmt(n.Else), PosInfo: n.PosInfo}
	case *ForStmt:
		return &ForStmt{Init: cloneStmt(n.Init), Cond: cloneExpr(n.Cond), Post: cloneExpr(n.Post),
			Body: cloneStmt(n.Body), PosInfo: n.PosInfo}
	case *WhileStmt:
		return &WhileStmt{Cond: cloneExpr(n.Cond), Body: cloneStmt(n.Body), PosInfo: n.PosInfo}
	case *DoWhileStmt:
		return &DoWhileStmt{Body: cloneStmt(n.Body), Cond: cloneExpr(n.Cond), PosInfo: n.PosInfo}
	case *SwitchStmt:
		c := &SwitchStmt{Tag: cloneExpr(n.Tag), Cases: make([]*CaseClause, len(n.Cases)), PosInfo: n.PosInfo}
		for i, cl := range n.Cases {
			c.Cases[i] = &CaseClause{Value: cloneExpr(cl.Value), Body: cloneStmts(cl.Body), PosInfo: cl.PosInfo}
		}
		return c
	case *ReturnStmt:
		return &ReturnStmt{Result: cloneExpr(n.Result), PosInfo: n.PosInfo}
	case *BreakStmt:
		c := *n
		return &c
	case *ContinueStmt:
		c := *n
		return &c
	case *EmptyStmt:
		c := *n
		return &c
	}
	panic("ast.Clone: unknown statement")
}

func cloneExprs(list []Expr) []Expr {
	if list == nil {
		return nil
	}
	out := make([]Expr, len(list))
	for i, e := range list {
		out[i] = cloneExpr(e)
	}
	return out
}

// cloneExpr returns a deep copy of e (nil for nil), with the same
// sharing rules as Clone.
func cloneExpr(e Expr) Expr {
	switch n := e.(type) {
	case nil:
		return nil
	case *Ident:
		c := *n
		return &c
	case *IntLit:
		c := *n
		return &c
	case *FloatLit:
		c := *n
		return &c
	case *StringLit:
		c := *n
		return &c
	case *CharLit:
		c := *n
		return &c
	case *BinaryExpr:
		c := *n
		c.X, c.Y = cloneExpr(n.X), cloneExpr(n.Y)
		return &c
	case *AssignExpr:
		c := *n
		c.LHS, c.RHS = cloneExpr(n.LHS), cloneExpr(n.RHS)
		return &c
	case *UnaryExpr:
		c := *n
		c.X = cloneExpr(n.X)
		return &c
	case *PostfixExpr:
		c := *n
		c.X = cloneExpr(n.X)
		return &c
	case *IndexExpr:
		c := *n
		c.X, c.Index = cloneExpr(n.X), cloneExpr(n.Index)
		return &c
	case *CallExpr:
		c := *n
		c.Fun, c.Args = cloneExpr(n.Fun), cloneExprs(n.Args)
		return &c
	case *CastExpr:
		c := *n
		c.X = cloneExpr(n.X)
		return &c
	case *SizeofExpr:
		c := *n
		c.X = cloneExpr(n.X)
		return &c
	case *CondExpr:
		c := *n
		c.Cond, c.Then, c.Else = cloneExpr(n.Cond), cloneExpr(n.Then), cloneExpr(n.Else)
		return &c
	case *CommaExpr:
		c := *n
		c.X, c.Y = cloneExpr(n.X), cloneExpr(n.Y)
		return &c
	case *MemberExpr:
		c := *n
		c.X = cloneExpr(n.X)
		return &c
	case *ParenExpr:
		c := *n
		c.X = cloneExpr(n.X)
		return &c
	}
	panic("ast.Clone: unknown expression")
}
