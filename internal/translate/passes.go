package translate

import (
	"fmt"
	"strings"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
	"hsmcc/internal/partition"
)

// ---------------------------------------------------------------------------
// Pass 1: ThreadsToProcesses (Algorithm 4)
// ---------------------------------------------------------------------------

type threadsToProcesses struct{}

func (threadsToProcesses) Name() string { return "ThreadsToProcesses" }

// Run replaces pthread_create sites with direct calls. A launch in a loop
// stands for "one thread per core": the new call is inserted before the
// loop with the thread-ID argument replaced by the core ID, and the loop
// is dropped if nothing else remains in it. Launches outside loops are
// thread-specific tasks: call k is wrapped in `if (myID == k)` so it
// executes on exactly one core (thesis §4.5's hash-table isolation).
func (threadsToProcesses) Run(u *Unit) error {
	// Launch loops first. rewriteStmts visits children before parents, so
	// a single combined pass would rewrite the pthread_create statement
	// inside the loop before the loop handler could recognise the loop as
	// a launch loop.
	rewriteStmts(u.File, func(s ast.Stmt) []ast.Stmt {
		switch n := s.(type) {
		case *ast.ForStmt:
			return rewriteLaunchLoop(u, n, s)
		case *ast.WhileStmt:
			return rewriteLaunchLoopW(u, n, s)
		}
		return keep(s)
	})
	// Remaining standalone launches are thread-specific tasks: call k runs
	// only on core k (thesis §4.5's hash-table isolation).
	order := 0
	rewriteStmts(u.File, func(s ast.Stmt) []ast.Stmt {
		call := callIn(s, "pthread_create")
		if call == nil {
			return keep(s)
		}
		fnName := launchFuncName(call)
		if fnName == "" {
			return keep(s)
		}
		guarded := &ast.IfStmt{
			Cond: ast.Bin(token.EqEq, ast.Id(CoreIDName), ast.Int(int64(order))),
			Then: &ast.BlockStmt{List: []ast.Stmt{ast.CallStmt(fnName, threadArg(u, call, nil))}},
		}
		u.logf("ThreadsToProcesses: launch of %s -> guarded call on core %d", fnName, order)
		order++
		return []ast.Stmt{guarded}
	})
	// Completeness check: a pthread_create this pass could not translate
	// (a computed function pointer, a call with too few arguments) must
	// fail the translation — the later cleanup passes would otherwise
	// delete the launch and silently change the program's meaning.
	var leftover error
	ast.Inspect(u.File, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && c.FuncName() == "pthread_create" && leftover == nil {
			leftover = fmt.Errorf("%s: cannot translate pthread_create: thread function is not a plain identifier", c.Pos())
		}
		return leftover == nil
	})
	return leftover
}

// rewriteLaunchLoop handles a for-loop containing pthread_create: the
// canonical divide-and-conquer launch pattern. The loop is replaced by the
// direct call with the core ID as the argument; any other statements in
// the loop body are preserved after the call with the induction variable
// substituted by the core ID.
func rewriteLaunchLoop(u *Unit, n *ast.ForStmt, s ast.Stmt) []ast.Stmt {
	if !containsCall(s, "pthread_create") {
		return keep(s)
	}
	indVar := loopIndexName(n)
	var out []ast.Stmt
	var body []ast.Stmt
	if b, ok := n.Body.(*ast.BlockStmt); ok {
		body = b.List
	} else {
		body = []ast.Stmt{n.Body}
	}
	for _, bs := range body {
		if call := callIn(bs, "pthread_create"); call != nil {
			fnName := launchFuncName(call)
			if fnName == "" {
				// Not translatable (e.g. a computed function pointer):
				// keep the call so the completeness check can report it.
				out = append(out, bs)
				continue
			}
			out = append(out, ast.CallStmt(fnName, threadArg(u, call, &indVar)))
			u.logf("ThreadsToProcesses: loop launch of %s -> direct call with core ID", fnName)
			continue
		}
		// Keep other statements, with the induction variable replaced by
		// the core ID (each core performs its own slice of the work).
		if indVar != "" {
			substIdent(bs, indVar, func() ast.Expr { return ast.Id(CoreIDName) })
		}
		out = append(out, bs)
	}
	return out
}

func rewriteLaunchLoopW(u *Unit, n *ast.WhileStmt, s ast.Stmt) []ast.Stmt {
	if !containsCall(s, "pthread_create") {
		return keep(s)
	}
	// While-loop launches are rare; handle like the for case without an
	// induction variable.
	var out []ast.Stmt
	var body []ast.Stmt
	if b, ok := n.Body.(*ast.BlockStmt); ok {
		body = b.List
	} else {
		body = []ast.Stmt{n.Body}
	}
	for _, bs := range body {
		if call := callIn(bs, "pthread_create"); call != nil {
			if fnName := launchFuncName(call); fnName != "" {
				out = append(out, ast.CallStmt(fnName, threadArg(u, call, nil)))
			}
			continue
		}
		out = append(out, bs)
	}
	return out
}

// launchFuncName extracts the thread function from pthread_create arg 3.
func launchFuncName(call *ast.CallExpr) string {
	if len(call.Args) < 4 {
		return ""
	}
	switch n := ast.Unparen(call.Args[2]).(type) {
	case *ast.Ident:
		return n.Name
	case *ast.CastExpr:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			return id.Name
		}
	case *ast.UnaryExpr:
		if n.Op == token.Amp {
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				return id.Name
			}
		}
	}
	return ""
}

// threadArg builds the argument for the direct call. When the original
// argument references the loop induction variable (the thread ID), it is
// replaced by the core ID (Algorithm 4's UseCoreID); otherwise the original
// argument is preserved.
func threadArg(u *Unit, call *ast.CallExpr, indVar *string) ast.Expr {
	arg := call.Args[3]
	usesInd := false
	if indVar != nil && *indVar != "" {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == *indVar {
				usesInd = true
			}
			return true
		})
	}
	if usesInd {
		return &ast.CastExpr{To: types.PointerTo(types.VoidType), X: &ast.ParenExpr{X: ast.Id(CoreIDName)}}
	}
	return arg
}

// loopIndexName extracts the induction variable of a canonical for loop.
func loopIndexName(n *ast.ForStmt) string {
	switch in := n.Init.(type) {
	case *ast.ExprStmt:
		if a, ok := ast.Unparen(in.X).(*ast.AssignExpr); ok {
			if id, ok := ast.Unparen(a.LHS).(*ast.Ident); ok {
				return id.Name
			}
		}
	case *ast.DeclStmt:
		return in.Decl.Name
	}
	return ""
}

// ---------------------------------------------------------------------------
// Pass 2: JoinsToBarriers (Algorithm 5 / Example 4.2)
// ---------------------------------------------------------------------------

type joinsToBarriers struct{}

func (joinsToBarriers) Name() string { return "JoinsToBarriers" }

func (joinsToBarriers) Run(u *Unit) error {
	// Join loops first (see ThreadsToProcesses for why loops must be
	// handled before the standalone case: rewrites run children-first).
	rewriteStmts(u.File, func(s ast.Stmt) []ast.Stmt {
		n, ok := s.(*ast.ForStmt)
		if !ok || !containsCall(s, "pthread_join") {
			return keep(s)
		}
		indVar := loopIndexName(n)
		out := []ast.Stmt{barrierStmt()}
		var body []ast.Stmt
		if b, ok := n.Body.(*ast.BlockStmt); ok {
			body = b.List
		} else {
			body = []ast.Stmt{n.Body}
		}
		for _, bs := range body {
			if callIn(bs, "pthread_join") != nil {
				continue
			}
			if indVar != "" {
				substIdent(bs, indVar, func() ast.Expr { return ast.Id(CoreIDName) })
			}
			out = append(out, bs)
		}
		u.logf("JoinsToBarriers: join loop -> RCCE_barrier + %d hoisted stmts", len(out)-1)
		return out
	})
	// Remaining standalone joins become plain barriers.
	rewriteStmts(u.File, func(s ast.Stmt) []ast.Stmt {
		if callIn(s, "pthread_join") != nil {
			u.logf("JoinsToBarriers: standalone join -> RCCE_barrier")
			return []ast.Stmt{barrierStmt()}
		}
		return keep(s)
	})
	// Collapse consecutive barriers introduced by multiple joins.
	rewriteStmts(u.File, collapseBarriers())
	return nil
}

func barrierStmt() ast.Stmt {
	return ast.CallStmt("RCCE_barrier", &ast.UnaryExpr{Op: token.Amp, X: ast.Id("RCCE_COMM_WORLD")})
}

// collapseBarriers removes a barrier immediately following another barrier.
func collapseBarriers() func(ast.Stmt) []ast.Stmt {
	var prevWasBarrier *bool
	b := false
	prevWasBarrier = &b
	return func(s ast.Stmt) []ast.Stmt {
		isBarrier := callIn(s, "RCCE_barrier") != nil
		if isBarrier && *prevWasBarrier {
			return nil
		}
		*prevWasBarrier = isBarrier
		return keep(s)
	}
}

// ---------------------------------------------------------------------------
// Pass 3: SelfToUE (Algorithm 6)
// ---------------------------------------------------------------------------

type selfToUE struct{}

func (selfToUE) Name() string { return "SelfToUE" }

func (selfToUE) Run(u *Unit) error {
	for _, fn := range u.File.Funcs() {
		rewriteExprsInStmt(fn.Body, func(e ast.Expr) ast.Expr {
			if c, ok := e.(*ast.CallExpr); ok && c.FuncName() == "pthread_self" {
				return &ast.CallExpr{Fun: ast.Id("RCCE_ue"), PosInfo: c.PosInfo}
			}
			return e
		})
	}
	return nil
}

// ---------------------------------------------------------------------------
// Pass 4: MutexToLocks
// ---------------------------------------------------------------------------

type mutexToLocks struct{}

func (mutexToLocks) Name() string { return "MutexToLocks" }

// Run maps each pthread mutex variable to a test-and-set lock index (the
// SCC provides one TAS register per core; mutex k uses core k's register)
// and rewrites lock/unlock calls to RCCE_acquire_lock/RCCE_release_lock.
func (mutexToLocks) Run(u *Unit) error {
	// Assign indices in declaration order.
	for _, d := range u.File.Globals() {
		if isPthreadType(d.Type, "pthread_mutex_t") {
			u.mutexIDs[d.Name] = len(u.mutexIDs)
		}
	}
	for _, fn := range u.File.Funcs() {
		rewriteExprsInStmt(fn.Body, func(e ast.Expr) ast.Expr {
			c, ok := e.(*ast.CallExpr)
			if !ok {
				return e
			}
			switch c.FuncName() {
			case "pthread_mutex_lock", "pthread_mutex_unlock":
				id := 0
				if len(c.Args) == 1 {
					if name := mutexVarName(c.Args[0]); name != "" {
						if idx, ok := u.mutexIDs[name]; ok {
							id = idx
						}
					}
				}
				newName := "RCCE_acquire_lock"
				if c.FuncName() == "pthread_mutex_unlock" {
					newName = "RCCE_release_lock"
				}
				return &ast.CallExpr{Fun: ast.Id(newName), Args: []ast.Expr{ast.Int(int64(id))}, PosInfo: c.PosInfo}
			}
			return e
		})
	}
	if len(u.mutexIDs) > 0 {
		u.logf("MutexToLocks: %d mutexes mapped to TAS lock indices", len(u.mutexIDs))
	}
	return nil
}

func mutexVarName(e ast.Expr) string {
	switch n := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if n.Op == token.Amp {
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
				return id.Name
			}
		}
	case *ast.Ident:
		return n.Name
	}
	return ""
}

func isPthreadType(t *types.Type, names ...string) bool {
	for t.Kind == types.Array || t.Kind == types.Pointer {
		t = t.Elem
	}
	if t.Kind != types.Opaque {
		return false
	}
	if len(names) == 0 {
		return strings.HasPrefix(t.Name, "pthread_")
	}
	for _, n := range names {
		if t.Name == n {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Pass 5: SharedToExplicit (application of Stage 4)
// ---------------------------------------------------------------------------

type sharedToExplicit struct{}

func (sharedToExplicit) Name() string { return "SharedToExplicit" }

// Run converts implicitly shared globals into explicit shared allocations:
//
//   - arrays:  `int sum[3];` -> `int *sum;` + `sum = (int*)RCCE_shmalloc(sizeof(int)*3);`
//   - scalars: `double total;` -> `double *total;` + allocation, with every
//     use of total rewritten to (*total);
//   - pointers: the declaration stays and a pointee backing allocation is
//     emitted (Example 4.2's `ptr=(int*)RCCE_shmalloc(sizeof(int)*1);`).
//
// The allocation call is RCCE_shmalloc for off-chip placements and
// RCCE_mpbmalloc for on-chip placements per the Stage 4 partitioner.
// Allocations are inserted at the top of main, after RCCE_init (which the
// final pass prepends).
func (sharedToExplicit) Run(u *Unit) error {
	var allocs []ast.Stmt
	emit := func(name string, fn string, elem *types.Type, count int) {
		allocs = append(allocs, allocAssign(name, fn, elem, count))
		u.Allocs = append(u.Allocs, AllocSite{Var: name, OnChip: fn == "RCCE_mpbmalloc"})
	}
	// Declarations are found in u.File, not through v.Sym.Decl: the
	// analysis may be of the tree u.File was cloned from, whose symbols
	// u.File still links to (ast.Clone). Symbols are only read; other
	// translations share them.
	decls := make(map[*ast.Symbol]*ast.VarDecl)
	for _, d := range u.File.Globals() {
		decls[d.Sym] = d
	}
	for _, v := range u.sharedGlobals() {
		d, ok := decls[v.Sym]
		if !ok {
			continue
		}
		// Pthread handle types (mutexes and friends) are shared data in
		// the analysis but are lowered to SCC lock registers by
		// MutexToLocks and then removed outright — never allocated.
		if isPthreadType(d.Type) {
			u.logf("SharedToExplicit: %s is a pthread handle, handled by lock lowering", d.Name)
			continue
		}
		placement := partition.OffChip
		if u.Part != nil {
			placement = u.Part.Placement(v)
		}
		allocFn := "RCCE_shmalloc"
		if placement == partition.OnChip {
			allocFn = "RCCE_mpbmalloc"
		}
		switch d.Type.Kind {
		case types.Array:
			elem := d.Type.Elem
			count := d.Type.Len
			// Rewrite the declaration to a pointer; drop initialisers
			// (the region is zeroed by the allocator, matching the
			// benchmarks' `= {0}` initialisers).
			d.Type = types.PointerTo(elem)
			d.Init = nil
			d.InitLst = nil
			emit(d.Name, allocFn, elem, count)
			u.logf("SharedToExplicit: array %s -> %s (%s)", d.Name, allocFn, placement)
		case types.Pointer:
			// Backing store for the pointee.
			emit(d.Name, allocFn, d.Type.Elem, 1)
			u.logf("SharedToExplicit: pointer %s pointee backed by %s (%s)", d.Name, allocFn, placement)
		default:
			// Scalar promotion: T x -> T *x, uses become (*x).
			elem := d.Type
			init := d.Init
			d.Type = types.PointerTo(elem)
			d.Init = nil
			emit(d.Name, allocFn, elem, 1)
			if init != nil {
				allocs = append(allocs, ast.Eval(ast.Assign(
					&ast.UnaryExpr{Op: token.Star, X: ast.Id(d.Name)}, init)))
			}
			name := d.Name
			for _, fn := range u.File.Funcs() {
				rewriteExprsInStmt(fn.Body, func(e ast.Expr) ast.Expr {
					if id, ok := e.(*ast.Ident); ok && id.Name == name && id.Sym == v.Sym {
						return &ast.ParenExpr{X: &ast.UnaryExpr{Op: token.Star, X: ast.Id(name)}}
					}
					return e
				})
			}
			u.logf("SharedToExplicit: scalar %s promoted to pointer, uses rewritten (%s)", d.Name, placement)
		}
	}
	u.Main.Body.List = append(allocs, u.Main.Body.List...)
	return nil
}

// allocAssign builds `name = (T*)fn(sizeof(T)*count);`.
func allocAssign(name, fn string, elem *types.Type, count int) ast.Stmt {
	var size ast.Expr = &ast.SizeofExpr{OfType: elem, Typ: types.UIntType}
	if count != 1 {
		size = ast.Bin(token.Star, size, ast.Int(int64(count)))
	}
	return ast.Eval(ast.Assign(ast.Id(name), &ast.CastExpr{
		To: types.PointerTo(elem),
		X:  &ast.ParenExpr{X: &ast.CallExpr{Fun: ast.Id(fn), Args: []ast.Expr{size}}},
	}))
}

// ---------------------------------------------------------------------------
// Pass 6: RemovePthreadTypes (Algorithm 7)
// ---------------------------------------------------------------------------

type removePthreadTypes struct{}

func (removePthreadTypes) Name() string { return "RemovePthreadTypes" }

func (removePthreadTypes) Run(u *Unit) error {
	// Globals.
	var kept []ast.Node
	for _, d := range u.File.Decls {
		if vd, ok := d.(*ast.VarDecl); ok && isPthreadType(vd.Type) {
			u.logf("RemovePthreadTypes: removed global %s", vd.Name)
			continue
		}
		kept = append(kept, d)
	}
	u.File.Decls = kept
	// Locals.
	rewriteStmts(u.File, func(s ast.Stmt) []ast.Stmt {
		if ds, ok := s.(*ast.DeclStmt); ok && isPthreadType(ds.Decl.Type) {
			u.logf("RemovePthreadTypes: removed local %s", ds.Decl.Name)
			return nil
		}
		return keep(s)
	})
	return nil
}

// ---------------------------------------------------------------------------
// Pass 7: RemovePthreadAPI (Algorithm 8)
// ---------------------------------------------------------------------------

// pthreadAPISet is Algorithm 8's hash table of API calls to remove.
var pthreadAPISet = map[string]bool{
	"pthread_exit": true, "pthread_attr_init": true,
	"pthread_attr_destroy": true, "pthread_attr_setdetachstate": true,
	"pthread_mutex_init": true, "pthread_mutex_destroy": true,
	"pthread_cond_init": true, "pthread_cond_destroy": true,
	"pthread_create": true, "pthread_join": true,
}

type removePthreadAPI struct{}

func (removePthreadAPI) Name() string { return "RemovePthreadAPI" }

func (removePthreadAPI) Run(u *Unit) error {
	rewriteStmts(u.File, func(s ast.Stmt) []ast.Stmt {
		if es, ok := s.(*ast.ExprStmt); ok {
			if c, ok := ast.Unparen(es.X).(*ast.CallExpr); ok && pthreadAPISet[c.FuncName()] {
				u.logf("RemovePthreadAPI: removed call to %s", c.FuncName())
				return nil
			}
			// `rc = pthread_xxx(...)` with the call as RHS.
			if a, ok := ast.Unparen(es.X).(*ast.AssignExpr); ok {
				if c, ok := ast.Unparen(a.RHS).(*ast.CallExpr); ok && pthreadAPISet[c.FuncName()] {
					u.logf("RemovePthreadAPI: removed assignment of %s", c.FuncName())
					return nil
				}
			}
		}
		return keep(s)
	})
	return nil
}

// ---------------------------------------------------------------------------
// Pass 8: MainToRCCEApp (+ Algorithms 9 and 10, includes swap)
// ---------------------------------------------------------------------------

type mainToRCCEApp struct{}

func (mainToRCCEApp) Name() string { return "MainToRCCEApp" }

func (mainToRCCEApp) Run(u *Unit) error {
	m := u.Main
	// Signature: int RCCE_APP(int *argc, char *argv[]).
	m.Name = "RCCE_APP"
	m.Result = types.IntType
	m.Params = []*ast.Param{
		{Name: "argc", Type: types.PointerTo(types.IntType)},
		{Name: "argv", Type: types.PointerTo(types.PointerTo(types.CharType))},
	}

	// Prologue: RCCE_init(&argc,&argv); <allocs already at top>; then
	// int myID; myID = RCCE_ue(); inserted after the allocations.
	prologue := []ast.Stmt{
		ast.CallStmt("RCCE_init",
			&ast.UnaryExpr{Op: token.Amp, X: ast.Id("argc")},
			&ast.UnaryExpr{Op: token.Amp, X: ast.Id("argv")}),
	}
	// Find the end of the alloc block (RCCE_shmalloc / RCCE_mpbmalloc
	// assignments inserted by SharedToExplicit sit at the top).
	allocEnd := 0
	for _, s := range m.Body.List {
		if es, ok := s.(*ast.ExprStmt); ok {
			if a, ok := ast.Unparen(es.X).(*ast.AssignExpr); ok {
				if hasAllocCall(a.RHS) {
					allocEnd++
					continue
				}
				if us, ok := ast.Unparen(a.LHS).(*ast.UnaryExpr); ok && us.Op == token.Star {
					// scalar init emitted right after its alloc
					allocEnd++
					continue
				}
			}
		}
		break
	}
	idDecl := &ast.DeclStmt{Decl: &ast.VarDecl{Name: CoreIDName, Type: types.IntType}}
	idInit := ast.Eval(ast.Assign(ast.Id(CoreIDName), &ast.CallExpr{Fun: ast.Id("RCCE_ue")}))

	rest := m.Body.List[allocEnd:]
	newList := make([]ast.Stmt, 0, len(m.Body.List)+4)
	newList = append(newList, prologue...)
	newList = append(newList, m.Body.List[:allocEnd]...)
	newList = append(newList, idDecl, idInit)
	newList = append(newList, rest...)

	// RCCE_finalize before the final return (Algorithm 10), or appended.
	fin := ast.CallStmt("RCCE_finalize")
	if len(newList) > 0 {
		if _, isRet := newList[len(newList)-1].(*ast.ReturnStmt); isRet {
			last := newList[len(newList)-1]
			newList = append(newList[:len(newList)-1], fin, last)
		} else {
			newList = append(newList, fin)
		}
	}
	m.Body.List = newList

	// Includes: drop pthread.h, ensure "RCCE.h".
	var decls []ast.Node
	hasRCCE := false
	for _, d := range u.File.Decls {
		if inc, ok := d.(*ast.Include); ok {
			if inc.Path() == "pthread.h" {
				continue
			}
			if inc.Path() == "RCCE.h" {
				hasRCCE = true
			}
		}
		decls = append(decls, d)
	}
	if !hasRCCE {
		// Insert after the last include (or at the front).
		idx := 0
		for i, d := range decls {
			if _, ok := d.(*ast.Include); ok {
				idx = i + 1
			}
		}
		inc := &ast.Include{Text: `#include "RCCE.h"`}
		decls = append(decls[:idx], append([]ast.Node{inc}, decls[idx:]...)...)
	}
	u.File.Decls = decls
	u.logf("MainToRCCEApp: main -> RCCE_APP with init/finalize and %s prologue", CoreIDName)
	return nil
}

func hasAllocCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if name := c.FuncName(); name == "RCCE_shmalloc" || name == "RCCE_mpbmalloc" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
