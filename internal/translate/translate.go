// Package translate implements Stage 5 of the paper's framework: the
// source-to-source translator that converts a well-defined Pthread program
// into an RCCE multiprocess program for the SCC (thesis §4.5 and
// Appendices A-B, Algorithms 4-10).
//
// The translation is organised as a series of passes over the IR, mirroring
// the thesis's CETUS pass structure:
//
//  1. ThreadsToProcesses (Algorithm 4) — replace pthread_create launches
//     with direct calls executed by every core, using the core ID where the
//     thread ID was used; thread-specific launches are wrapped in
//     `if (myID == k)` guards.
//  2. JoinsToBarriers (Algorithm 5, as realised in Example Code 4.2) —
//     remove pthread_join calls; a join loop becomes an RCCE_barrier with
//     the loop's remaining statements hoisted out, their induction variable
//     replaced by the core ID.
//  3. SelfToUE (Algorithm 6) — pthread_self() becomes RCCE_ue().
//  4. MutexToLocks — pthread mutex operations become the SCC's test-and-set
//     register lock API (RCCE_acquire_lock / RCCE_release_lock).
//  5. SharedToExplicit (applies Stage 4) — implicitly shared globals become
//     explicitly shared allocations: arrays turn into pointers initialised
//     with RCCE_shmalloc or RCCE_mpbmalloc according to the partitioner's
//     placement; shared global scalars are promoted to pointers and their
//     uses rewritten to dereferences; shared global pointers receive
//     backing allocations for their pointees (Example 4.2's `ptr`).
//  6. RemovePthreadTypes (Algorithm 7) and RemovePthreadAPI (Algorithm 8) —
//     delete leftover pthread declarations and calls.
//  7. MainToRCCEApp + AddInit/AddFinalize (Algorithms 9-10) — rename main to
//     RCCE_APP, insert RCCE_init/RCCE_finalize and the myID = RCCE_ue()
//     prologue, and swap <pthread.h> for "RCCE.h".
package translate

import (
	"fmt"

	"hsmcc/internal/analysis/pointsto"
	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/partition"
)

// CoreIDName is the variable the translated program reads its rank from
// (Example Code 4.2 names it myID).
const CoreIDName = "myID"

// Options configures the translation.
type Options struct {
	// Cores is the number of UEs the program will run on (informational;
	// the generated code reads its rank at runtime via RCCE_ue()).
	Cores int
}

// Unit carries one translation through the passes.
type Unit struct {
	File   *ast.File
	Points *pointsto.Result
	Part   *partition.Result
	Opts   Options

	// Main is the program's main function (renamed late in the pipeline).
	Main *ast.FuncDecl
	// Log records one line per pass describing what it did.
	Log []string
	// Allocs records the explicit shared allocations SharedToExplicit
	// emitted, in emission order — which is exactly the runtime call
	// order of RCCE_shmalloc/RCCE_mpbmalloc in the translated program
	// (the allocations sit at the top of RCCE_APP and every region
	// counts its own sequence). The access profiler uses this to label
	// the allocator's address ranges with their source variables.
	Allocs []AllocSite

	// mutexIDs assigns lock register indices to mutex variables.
	mutexIDs map[string]int
}

// AllocSite is one emitted shared allocation: the variable whose
// backing store it creates and the region it targets. (Sizes are not
// recorded here — the profiler labels ranges with the sizes the RCCE
// allocator actually observes at runtime.)
type AllocSite struct {
	Var    string
	OnChip bool
}

// Pass is one IR transformation.
type Pass interface {
	Name() string
	Run(u *Unit) error
}

// Passes returns the standard pass pipeline in execution order.
func Passes() []Pass {
	return []Pass{
		threadsToProcesses{},
		joinsToBarriers{},
		selfToUE{},
		mutexToLocks{},
		sharedToExplicit{},
		removePthreadTypes{},
		removePthreadAPI{},
		mainToRCCEApp{},
	}
}

// Translate runs all passes over file, mutating it into the RCCE program.
// points carries the Stage 1-3 results for file — or for the tree file
// was cloned from, as core translates a copy of its analysed tree — and
// part the Stage 4 placements of the shared variables. Neither the
// analysis nor its symbols are written.
func Translate(file *ast.File, points *pointsto.Result, part *partition.Result, opts Options) (*Unit, error) {
	if opts.Cores <= 0 {
		opts.Cores = 32
	}
	u := &Unit{
		File:     file,
		Points:   points,
		Part:     part,
		Opts:     opts,
		mutexIDs: make(map[string]int),
	}
	u.Main = file.FindFunc("main")
	if u.Main == nil {
		return nil, fmt.Errorf("translate: program has no main function")
	}
	for _, p := range Passes() {
		if err := p.Run(u); err != nil {
			return nil, fmt.Errorf("pass %s: %w", p.Name(), err)
		}
	}
	return u, nil
}

func (u *Unit) logf(format string, args ...any) {
	u.Log = append(u.Log, fmt.Sprintf(format, args...))
}

// sharedGlobals returns the shared variables that are globals, in
// declaration order.
func (u *Unit) sharedGlobals() []*scope.VarInfo {
	var out []*scope.VarInfo
	for _, v := range u.Points.Inter.Scope.Vars {
		if v.IsGlobal() && v.Current() == scope.Shared {
			out = append(out, v)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Statement rewriting helpers
// ---------------------------------------------------------------------------

// rewriteStmts maps f over every statement list in the function bodies of
// the file. f receives one statement and returns its replacement list:
// nil removes the statement, a single-element list replaces it, and
// returning the input keeps it. f is applied bottom-up (children first).
func rewriteStmts(file *ast.File, f func(ast.Stmt) []ast.Stmt) {
	for _, fn := range file.Funcs() {
		fn.Body.List = rewriteList(fn.Body.List, f)
	}
}

func rewriteList(list []ast.Stmt, f func(ast.Stmt) []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		rewriteChildren(s, f)
		out = append(out, f(s)...)
	}
	return out
}

func rewriteChildren(s ast.Stmt, f func(ast.Stmt) []ast.Stmt) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		n.List = rewriteList(n.List, f)
	case *ast.IfStmt:
		n.Then = rewriteSingle(n.Then, f)
		if n.Else != nil {
			n.Else = rewriteSingle(n.Else, f)
		}
	case *ast.ForStmt:
		n.Body = rewriteSingle(n.Body, f)
	case *ast.WhileStmt:
		n.Body = rewriteSingle(n.Body, f)
	case *ast.DoWhileStmt:
		n.Body = rewriteSingle(n.Body, f)
	case *ast.SwitchStmt:
		for _, c := range n.Cases {
			c.Body = rewriteList(c.Body, f)
		}
	}
}

// rewriteSingle rewrites a statement in single-statement position (loop or
// branch body): removal yields an empty statement, multiple replacements a
// block.
func rewriteSingle(s ast.Stmt, f func(ast.Stmt) []ast.Stmt) ast.Stmt {
	rewriteChildren(s, f)
	repl := f(s)
	switch len(repl) {
	case 0:
		return &ast.EmptyStmt{PosInfo: s.Pos()}
	case 1:
		return repl[0]
	default:
		return &ast.BlockStmt{List: repl, PosInfo: s.Pos()}
	}
}

// keep returns s unchanged (helper for rewrite callbacks).
func keep(s ast.Stmt) []ast.Stmt { return []ast.Stmt{s} }

// callIn returns the call expression if s is `f(...)` or `x = f(...)` with
// callee name, else nil.
func callIn(s ast.Stmt, name string) *ast.CallExpr {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	switch e := ast.Unparen(es.X).(type) {
	case *ast.CallExpr:
		if e.FuncName() == name {
			return e
		}
	case *ast.AssignExpr:
		if c, ok := ast.Unparen(e.RHS).(*ast.CallExpr); ok && c.FuncName() == name {
			return c
		}
	}
	return nil
}

// containsCall reports whether any statement in the subtree calls name.
func containsCall(s ast.Stmt, name string) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && c.FuncName() == name {
			found = true
			return false
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------------
// Expression rewriting helpers
// ---------------------------------------------------------------------------

// RewriteExpr rebuilds e bottom-up, replacing each node with f(node).
func RewriteExpr(e ast.Expr, f func(ast.Expr) ast.Expr) ast.Expr {
	if e == nil {
		return nil
	}
	switch n := e.(type) {
	case *ast.ParenExpr:
		n.X = RewriteExpr(n.X, f)
	case *ast.BinaryExpr:
		n.X = RewriteExpr(n.X, f)
		n.Y = RewriteExpr(n.Y, f)
	case *ast.AssignExpr:
		n.LHS = RewriteExpr(n.LHS, f)
		n.RHS = RewriteExpr(n.RHS, f)
	case *ast.UnaryExpr:
		n.X = RewriteExpr(n.X, f)
	case *ast.PostfixExpr:
		n.X = RewriteExpr(n.X, f)
	case *ast.IndexExpr:
		n.X = RewriteExpr(n.X, f)
		n.Index = RewriteExpr(n.Index, f)
	case *ast.CallExpr:
		n.Fun = RewriteExpr(n.Fun, f)
		for i := range n.Args {
			n.Args[i] = RewriteExpr(n.Args[i], f)
		}
	case *ast.CastExpr:
		n.X = RewriteExpr(n.X, f)
	case *ast.SizeofExpr:
		if n.X != nil {
			n.X = RewriteExpr(n.X, f)
		}
	case *ast.CondExpr:
		n.Cond = RewriteExpr(n.Cond, f)
		n.Then = RewriteExpr(n.Then, f)
		n.Else = RewriteExpr(n.Else, f)
	case *ast.CommaExpr:
		n.X = RewriteExpr(n.X, f)
		n.Y = RewriteExpr(n.Y, f)
	case *ast.MemberExpr:
		n.X = RewriteExpr(n.X, f)
	}
	return f(e)
}

// rewriteExprsInStmt applies f to every expression in the subtree of s.
func rewriteExprsInStmt(s ast.Stmt, f func(ast.Expr) ast.Expr) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		for _, c := range n.List {
			rewriteExprsInStmt(c, f)
		}
	case *ast.DeclStmt:
		if n.Decl.Init != nil {
			n.Decl.Init = RewriteExpr(n.Decl.Init, f)
		}
		for i := range n.Decl.InitLst {
			n.Decl.InitLst[i] = RewriteExpr(n.Decl.InitLst[i], f)
		}
	case *ast.ExprStmt:
		n.X = RewriteExpr(n.X, f)
	case *ast.IfStmt:
		n.Cond = RewriteExpr(n.Cond, f)
		rewriteExprsInStmt(n.Then, f)
		if n.Else != nil {
			rewriteExprsInStmt(n.Else, f)
		}
	case *ast.ForStmt:
		if n.Init != nil {
			rewriteExprsInStmt(n.Init, f)
		}
		if n.Cond != nil {
			n.Cond = RewriteExpr(n.Cond, f)
		}
		if n.Post != nil {
			n.Post = RewriteExpr(n.Post, f)
		}
		rewriteExprsInStmt(n.Body, f)
	case *ast.WhileStmt:
		n.Cond = RewriteExpr(n.Cond, f)
		rewriteExprsInStmt(n.Body, f)
	case *ast.DoWhileStmt:
		rewriteExprsInStmt(n.Body, f)
		n.Cond = RewriteExpr(n.Cond, f)
	case *ast.SwitchStmt:
		n.Tag = RewriteExpr(n.Tag, f)
		for _, c := range n.Cases {
			if c.Value != nil {
				c.Value = RewriteExpr(c.Value, f)
			}
			for _, cs := range c.Body {
				rewriteExprsInStmt(cs, f)
			}
		}
	case *ast.ReturnStmt:
		if n.Result != nil {
			n.Result = RewriteExpr(n.Result, f)
		}
	}
}

// substIdent replaces every use of the symbol named name in s with a fresh
// copy of repl.
func substIdent(s ast.Stmt, name string, repl func() ast.Expr) {
	rewriteExprsInStmt(s, func(e ast.Expr) ast.Expr {
		if id, ok := e.(*ast.Ident); ok && id.Name == name {
			return repl()
		}
		return e
	})
}

// ident builds an identifier expression.
func ident(name string) *ast.Ident { return &ast.Ident{Name: name} }

// intLit builds an integer literal expression.
func intLit(v int64) *ast.IntLit {
	return &ast.IntLit{Value: v, Text: fmt.Sprintf("%d", v), Typ: types.IntType}
}

// callStmt builds `name(args...);`.
func callStmt(name string, args ...ast.Expr) ast.Stmt {
	return &ast.ExprStmt{X: &ast.CallExpr{Fun: ident(name), Args: args}}
}

// assignStmt builds `lhs = rhs;`.
func assignStmt(lhs, rhs ast.Expr) ast.Stmt {
	return &ast.ExprStmt{X: &ast.AssignExpr{Op: token.Assign, LHS: lhs, RHS: rhs}}
}
