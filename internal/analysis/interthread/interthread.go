// Package interthread implements Stage 2 of the paper's framework:
// inter-thread analysis (thesis §4.2, Algorithm 1). It discovers which
// functions are launched as threads via pthread_create, classifies every
// variable as appearing in no thread, a single thread, or multiple threads,
// and refines the sharing status: variables declared inside functions
// (locals and parameters) become Private, while globals keep their Shared
// status from Stage 1.
package interthread

import (
	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
)

// ThreadLaunch describes one pthread_create site.
type ThreadLaunch struct {
	// Func is the thread function's name (pthread_create argument 3).
	Func string
	// Caller is the function containing the call.
	Caller string
	// InLoop reports whether the call sits inside a loop.
	InLoop bool
	// Arg is the expression passed as the thread argument (argument 4).
	Arg ast.Expr
	// Call is the pthread_create call expression itself.
	Call *ast.CallExpr
}

// Result carries Stage 2's findings on top of the Stage 1 result.
type Result struct {
	Scope *scope.Result
	// Launches lists every pthread_create site in source order.
	Launches []ThreadLaunch
	// ThreadFuncs maps each function launched as a thread to how many
	// static launch sites it has (a site in a loop counts as many).
	ThreadFuncs map[string]int
}

// Analyze runs Stage 2.
func Analyze(sr *scope.Result) *Result {
	r := &Result{
		Scope:       sr,
		ThreadFuncs: make(map[string]int),
	}
	r.findLaunches()
	r.classifyVariables()
	r.refineSharing()
	return r
}

// findLaunches locates pthread_create calls and whether they are in loops.
func (r *Result) findLaunches() {
	for _, fn := range r.Scope.Info.File.Funcs() {
		r.walkStmts(fn.Body.List, fn.Name, false)
	}
}

func (r *Result) walkStmts(list []ast.Stmt, caller string, inLoop bool) {
	for _, s := range list {
		r.walkStmt(s, caller, inLoop)
	}
}

func (r *Result) walkStmt(s ast.Stmt, caller string, inLoop bool) {
	switch n := s.(type) {
	case *ast.BlockStmt:
		r.walkStmts(n.List, caller, inLoop)
	case *ast.ExprStmt:
		r.scanExpr(n.X, caller, inLoop)
	case *ast.DeclStmt:
		if n.Decl.Init != nil {
			r.scanExpr(n.Decl.Init, caller, inLoop)
		}
	case *ast.IfStmt:
		r.scanExpr(n.Cond, caller, inLoop)
		r.walkStmt(n.Then, caller, inLoop)
		if n.Else != nil {
			r.walkStmt(n.Else, caller, inLoop)
		}
	case *ast.ForStmt:
		if n.Init != nil {
			r.walkStmt(n.Init, caller, inLoop)
		}
		r.walkStmt(n.Body, caller, true)
	case *ast.WhileStmt:
		r.walkStmt(n.Body, caller, true)
	case *ast.DoWhileStmt:
		r.walkStmt(n.Body, caller, true)
	case *ast.SwitchStmt:
		for _, cl := range n.Cases {
			r.walkStmts(cl.Body, caller, inLoop)
		}
	case *ast.ReturnStmt:
		if n.Result != nil {
			r.scanExpr(n.Result, caller, inLoop)
		}
	}
}

func (r *Result) scanExpr(e ast.Expr, caller string, inLoop bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.FuncName() != "pthread_create" || len(call.Args) < 4 {
			return true
		}
		fnName := ThreadFuncName(call.Args[2])
		if fnName == "" {
			return true
		}
		r.Launches = append(r.Launches, ThreadLaunch{
			Func:   fnName,
			Caller: caller,
			InLoop: inLoop,
			Arg:    call.Args[3],
			Call:   call,
		})
		if inLoop {
			// A launch inside a loop stands for many threads; weight 2 so
			// Algorithm 1's "seen > 1" test reports multiple threads.
			r.ThreadFuncs[fnName] += 2
		} else {
			r.ThreadFuncs[fnName]++
		}
		return true
	})
}

// ThreadFuncName extracts the function name from pthread_create's third
// argument, stripping casts and a leading &.
func ThreadFuncName(e ast.Expr) string {
	switch n := ast.Unparen(e).(type) {
	case *ast.Ident:
		return n.Name
	case *ast.CastExpr:
		return ThreadFuncName(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.Amp {
			return ThreadFuncName(n.X)
		}
	}
	return ""
}

// VariableInThread is the paper's Algorithm 1: given a variable, report
// whether it appears in no thread, a single thread, or multiple threads.
// A variable "appears in" a thread when a procedure that reads or writes
// it is launched by pthread_create; the launch being inside a loop, or the
// procedure having more than one launch site, means multiple threads.
func (r *Result) VariableInThread(v *scope.VarInfo) scope.ThreadPresence {
	procs := make(map[string]bool)
	for _, fn := range v.UseIn {
		procs[fn] = true
	}
	for _, fn := range v.DefIn {
		procs[fn] = true
	}
	best := scope.NotInThread
	for proc := range procs {
		seen, isThread := r.ThreadFuncs[proc]
		if !isThread {
			continue
		}
		if seen > 1 {
			return scope.InMultipleThreads
		}
		if best < scope.InSingleThread {
			best = scope.InSingleThread
		}
	}
	return best
}

// classifyVariables records Algorithm 1's result for every variable.
func (r *Result) classifyVariables() {
	for _, v := range r.Scope.Vars {
		v.Presence = r.VariableInThread(v)
	}
}

// refineSharing applies Stage 2's status update: locals and parameters are
// per-thread (or per-process after translation) and become Private; global
// variables keep Shared (Table 4.2 column "Stage 2").
func (r *Result) refineSharing() {
	for _, v := range r.Scope.Vars {
		if v.IsGlobal() {
			v.SetStage(2, scope.Shared)
		} else {
			v.SetStage(2, scope.Private)
		}
	}
}
