// Package pointsto implements Stage 3 of the paper's framework: alias and
// pointer analysis (thesis §4.3, Algorithm 2). It is an Andersen-style
// inclusion-based points-to analysis — interprocedural, flow-insensitive —
// with the thesis's definite/possibly classification layered on top using
// control-flow information: a relationship is "definite" when it is
// established by an unconditional `p = &x` and the pointer has exactly one
// target; anything reached through branches, loops, or copy chains is
// "possibly".
//
// Algorithm 2 then propagates sharing: if a shared pointer definitely
// points to an object, that object becomes shared too (tmp in Table 4.2).
// Finally, globals that are never read, written, or address-taken are
// demoted to Private ("global variables which were defined but entirely
// unused may be set as private", thesis §4.3).
package pointsto

import (
	"fmt"
	"sort"
	"strings"

	"hsmcc/internal/analysis/cfg"
	"hsmcc/internal/analysis/interthread"
	"hsmcc/internal/analysis/scope"
	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Target is a points-to target: a variable or a heap allocation site.
type Target struct {
	// Var is the pointed-to variable; nil for heap objects.
	Var *scope.VarInfo
	// Heap labels an allocation site, e.g. "malloc@main#1"; "" for vars.
	Heap string
}

// Name renders the target.
func (t Target) Name() string {
	if t.Var != nil {
		return t.Var.Name
	}
	return t.Heap
}

// Relation is one pointer→target relationship with the thesis's
// definite/possibly classification.
type Relation struct {
	Ptr      *scope.VarInfo
	Target   Target
	Definite bool
}

// Options tunes the analysis.
type Options struct {
	// PropagatePossible extends Algorithm 2 to also propagate sharing
	// across "possibly" relationships (a conservative superset; the
	// thesis's Algorithm 2 uses definite relationships only).
	PropagatePossible bool
}

// Result is the Stage 3 outcome.
type Result struct {
	Inter *interthread.Result
	// Relations lists all pointer relationships discovered, sorted by
	// pointer name then target name.
	Relations []Relation
	// pts maps each pointer variable to its target set.
	pts map[*scope.VarInfo]map[Target]bool
	// definiteSrc marks targets introduced by unconditional direct
	// address-of assignments per pointer.
	definiteSrc map[*scope.VarInfo]map[Target]bool
}

// PointsTo returns the targets of a pointer variable, sorted by name.
func (r *Result) PointsTo(v *scope.VarInfo) []Target {
	set := r.pts[v]
	out := make([]Target, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Analyze runs Stage 3 with opts, updating sharing statuses in place.
func Analyze(ir *interthread.Result, opts Options) *Result {
	r := &Result{
		Inter:       ir,
		pts:         make(map[*scope.VarInfo]map[Target]bool),
		definiteSrc: make(map[*scope.VarInfo]map[Target]bool),
	}
	solver := newSolver(r)
	solver.collect()
	solver.solve()
	r.buildRelations()
	r.applyAlgorithm2(opts)
	r.demoteDeadGlobals()
	r.finalizeStatuses()
	return r
}

// --- constraint solver ------------------------------------------------------

type solver struct {
	r *Result
	// copies: dst ⊇ src edges.
	copies map[*scope.VarInfo][]*scope.VarInfo
	// loads: dst ⊇ *src.
	loads map[*scope.VarInfo][]*scope.VarInfo
	// stores: *dst ⊇ src.
	stores map[*scope.VarInfo][]*scope.VarInfo
	// work holds pointers whose sets changed.
	work []*scope.VarInfo
	// allocCount numbers allocation sites per function.
	allocCount map[string]int
	// cfgs caches per-function CFGs for definiteness tests.
	cfgs map[string]*cfg.Graph
	// curFn / curStmt track the statement being scanned.
	curFn   *ast.FuncDecl
	curStmt ast.Stmt
}

func newSolver(r *Result) *solver {
	return &solver{
		r:          r,
		copies:     make(map[*scope.VarInfo][]*scope.VarInfo),
		loads:      make(map[*scope.VarInfo][]*scope.VarInfo),
		stores:     make(map[*scope.VarInfo][]*scope.VarInfo),
		allocCount: make(map[string]int),
		cfgs:       make(map[string]*cfg.Graph),
	}
}

func (s *solver) varOf(e ast.Expr) *scope.VarInfo {
	switch n := ast.Unparen(e).(type) {
	case *ast.Ident:
		return s.r.Inter.Scope.BySym[n.Sym]
	case *ast.CastExpr:
		return s.varOf(n.X)
	case *ast.BinaryExpr:
		// Pointer arithmetic p+1 aliases p's targets.
		if n.Op == token.Plus || n.Op == token.Minus {
			if v := s.varOf(n.X); v != nil && v.Type.IsPointerLike() {
				return v
			}
			if v := s.varOf(n.Y); v != nil && v.Type.IsPointerLike() {
				return v
			}
		}
	}
	return nil
}

func (s *solver) addTarget(p *scope.VarInfo, t Target, definite bool) {
	if p == nil {
		return
	}
	set, ok := s.r.pts[p]
	if !ok {
		set = make(map[Target]bool)
		s.r.pts[p] = set
	}
	if !set[t] {
		set[t] = true
		s.work = append(s.work, p)
	}
	if definite {
		ds, ok := s.r.definiteSrc[p]
		if !ok {
			ds = make(map[Target]bool)
			s.r.definiteSrc[p] = ds
		}
		ds[t] = true
	}
}

// collect walks all functions gathering constraints.
func (s *solver) collect() {
	file := s.r.Inter.Scope.Info.File
	for _, fn := range file.Funcs() {
		s.curFn = fn
		s.cfgs[fn.Name] = cfg.Build(fn)
		s.collectStmts(fn.Body.List)
	}
	// Global initializers: int *p = &x;
	s.curFn = nil
	s.curStmt = nil
	for _, d := range file.Globals() {
		if d.Init != nil {
			s.handleAssign(s.r.Inter.Scope.BySym[d.Sym], d.Init, true)
		}
	}
}

func (s *solver) collectStmts(list []ast.Stmt) {
	for _, st := range list {
		s.collectStmt(st)
	}
}

func (s *solver) collectStmt(st ast.Stmt) {
	switch n := st.(type) {
	case *ast.BlockStmt:
		s.collectStmts(n.List)
	case *ast.DeclStmt:
		if n.Decl.Init != nil {
			s.curStmt = st
			s.handleAssign(s.r.Inter.Scope.BySym[n.Decl.Sym], n.Decl.Init, s.uncond(st))
		}
	case *ast.ExprStmt:
		s.curStmt = st
		s.scanExpr(n.X, s.uncond(st))
	case *ast.IfStmt:
		s.curStmt = st
		s.scanExpr(n.Cond, false)
		s.collectStmt(n.Then)
		if n.Else != nil {
			s.collectStmt(n.Else)
		}
	case *ast.ForStmt:
		if n.Init != nil {
			s.collectStmt(n.Init)
		}
		s.curStmt = st
		if n.Cond != nil {
			s.scanExpr(n.Cond, false)
		}
		if n.Post != nil {
			s.scanExpr(n.Post, false)
		}
		s.collectStmt(n.Body)
	case *ast.WhileStmt:
		s.curStmt = st
		s.scanExpr(n.Cond, false)
		s.collectStmt(n.Body)
	case *ast.DoWhileStmt:
		s.collectStmt(n.Body)
		s.curStmt = st
		s.scanExpr(n.Cond, false)
	case *ast.SwitchStmt:
		s.curStmt = st
		s.scanExpr(n.Tag, false)
		for _, cl := range n.Cases {
			s.collectStmts(cl.Body)
		}
	case *ast.ReturnStmt:
		if n.Result != nil {
			s.curStmt = st
			s.scanExpr(n.Result, false)
		}
	}
}

// uncond reports whether st executes on every path through the current
// function AND the function is not itself launched multiple times in a
// conditional way. (For Table 4.2's example, `ptr = &tmp` in main.)
func (s *solver) uncond(st ast.Stmt) bool {
	if s.curFn == nil {
		return true
	}
	g := s.cfgs[s.curFn.Name]
	if g == nil {
		return false
	}
	return g.Unconditional(st)
}

// scanExpr finds assignments and calls inside an expression.
func (s *solver) scanExpr(e ast.Expr, definiteCtx bool) {
	switch n := ast.Unparen(e).(type) {
	case nil:
	case *ast.AssignExpr:
		if n.Op == token.Assign {
			lhs := ast.Unparen(n.LHS)
			switch l := lhs.(type) {
			case *ast.Ident:
				s.handleAssign(s.r.Inter.Scope.BySym[l.Sym], n.RHS, definiteCtx)
			case *ast.UnaryExpr:
				if l.Op == token.Star {
					// *p = rhs: store constraint.
					if pv := s.varOf(l.X); pv != nil {
						if rv := s.rhsSource(n.RHS); rv != nil {
							s.stores[pv] = append(s.stores[pv], rv)
						}
					}
				}
			case *ast.IndexExpr:
				// a[i] = &x stores a pointer into an array: treat the
				// array as pointing to the target (field-insensitive).
				if av := s.varOf(l.X); av != nil {
					s.handleAssign(av, n.RHS, false)
				}
			}
		}
		s.scanExpr(n.RHS, false)
	case *ast.CallExpr:
		s.handleCall(n)
		for _, a := range n.Args {
			s.scanExpr(a, false)
		}
	case *ast.BinaryExpr:
		s.scanExpr(n.X, false)
		s.scanExpr(n.Y, false)
	case *ast.UnaryExpr:
		s.scanExpr(n.X, false)
	case *ast.PostfixExpr:
		s.scanExpr(n.X, false)
	case *ast.IndexExpr:
		s.scanExpr(n.X, false)
		s.scanExpr(n.Index, false)
	case *ast.CastExpr:
		s.scanExpr(n.X, false)
	case *ast.CondExpr:
		s.scanExpr(n.Cond, false)
		s.scanExpr(n.Then, false)
		s.scanExpr(n.Else, false)
	case *ast.CommaExpr:
		s.scanExpr(n.X, false)
		s.scanExpr(n.Y, false)
	}
}

// rhsSource returns the pointer variable the RHS copies from, or nil.
func (s *solver) rhsSource(e ast.Expr) *scope.VarInfo {
	return s.varOf(e)
}

// handleAssign records constraints for `dst = rhs`.
func (s *solver) handleAssign(dst *scope.VarInfo, rhs ast.Expr, definite bool) {
	if dst == nil {
		return
	}
	switch n := ast.Unparen(rhs).(type) {
	case *ast.UnaryExpr:
		if n.Op == token.Amp {
			if tv := s.baseVar(n.X); tv != nil {
				s.addTarget(dst, Target{Var: tv}, definite)
			}
			return
		}
		if n.Op == token.Star {
			// dst = *p: load constraint.
			if pv := s.varOf(n.X); pv != nil {
				s.loads[dst] = append(s.loads[dst], pv)
			}
			return
		}
	case *ast.Ident:
		if src := s.r.Inter.Scope.BySym[n.Sym]; src != nil {
			// Array names decay: q = a makes q point at a.
			if src.Type.Kind == types.Array {
				s.addTarget(dst, Target{Var: src}, definite)
			} else {
				s.copies[src] = append(s.copies[src], dst)
				s.work = append(s.work, src)
			}
		}
		return
	case *ast.CastExpr:
		s.handleAssign(dst, n.X, definite)
		return
	case *ast.CallExpr:
		name := n.FuncName()
		switch name {
		case "malloc", "calloc", "RCCE_shmalloc", "RCCE_mpbmalloc":
			fn := "global"
			if s.curFn != nil {
				fn = s.curFn.Name
			}
			s.allocCount[fn]++
			site := fmt.Sprintf("%s@%s#%d", name, fn, s.allocCount[fn])
			s.addTarget(dst, Target{Heap: site}, false)
		default:
			// dst = f(...): link to the returns of a defined function.
			if fd := s.r.Inter.Scope.Info.File.FindFunc(name); fd != nil {
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					if ret, ok := x.(*ast.ReturnStmt); ok && ret.Result != nil {
						if rv := s.varOf(ret.Result); rv != nil {
							s.copies[rv] = append(s.copies[rv], dst)
							s.work = append(s.work, rv)
						}
					}
					return true
				})
			}
		}
		return
	case *ast.BinaryExpr:
		// Pointer arithmetic: dst = p + k.
		if v := s.varOf(rhs); v != nil {
			if v.Type.Kind == types.Array {
				s.addTarget(dst, Target{Var: v}, false)
			} else {
				s.copies[v] = append(s.copies[v], dst)
				s.work = append(s.work, v)
			}
		}
		return
	}
}

// baseVar finds the variable whose address is taken in &expr.
func (s *solver) baseVar(e ast.Expr) *scope.VarInfo {
	switch n := ast.Unparen(e).(type) {
	case *ast.Ident:
		return s.r.Inter.Scope.BySym[n.Sym]
	case *ast.IndexExpr:
		return s.baseVar(n.X)
	case *ast.MemberExpr:
		return s.baseVar(n.X)
	}
	return nil
}

// handleCall binds actual pointer arguments to formal parameters, plus the
// pthread_create thread-argument binding.
func (s *solver) handleCall(call *ast.CallExpr) {
	name := call.FuncName()
	if name == "pthread_create" && len(call.Args) >= 4 {
		if fnName := interthread.ThreadFuncName(call.Args[2]); fnName != "" {
			if fd := s.r.Inter.Scope.Info.File.FindFunc(fnName); fd != nil && len(fd.Params) > 0 {
				if prm := s.r.Inter.Scope.BySym[fd.Params[0].Sym]; prm != nil {
					s.handleAssign(prm, call.Args[3], false)
				}
			}
		}
		return
	}
	fd := s.r.Inter.Scope.Info.File.FindFunc(name)
	if fd == nil {
		return
	}
	for i, a := range call.Args {
		if i >= len(fd.Params) {
			break
		}
		if prm := s.r.Inter.Scope.BySym[fd.Params[i].Sym]; prm != nil {
			s.handleAssign(prm, a, false)
		}
	}
}

// solve runs the inclusion worklist to a fixed point.
func (s *solver) solve() {
	for len(s.work) > 0 {
		p := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		targets := s.r.pts[p]
		// Copy edges: dst ⊇ p.
		for _, dst := range s.copies[p] {
			for t := range targets {
				s.addTarget(dst, t, false)
			}
		}
		// Store edges *p ⊇ src: every target of p inherits src's set.
		for _, src := range s.stores[p] {
			for t := range targets {
				if t.Var != nil {
					for st := range s.r.pts[src] {
						s.addTarget(t.Var, st, false)
					}
					s.copies[src] = appendVar(s.copies[src], t.Var)
				}
			}
		}
		// Load edges dst ⊇ *src where src == p.
		for dst, srcs := range s.loads {
			for _, src := range srcs {
				if src != p {
					continue
				}
				for t := range targets {
					if t.Var != nil {
						s.copies[t.Var] = appendVar(s.copies[t.Var], dst)
						for tt := range s.r.pts[t.Var] {
							s.addTarget(dst, tt, false)
						}
					}
				}
			}
		}
	}
}

func appendVar(list []*scope.VarInfo, v *scope.VarInfo) []*scope.VarInfo {
	for _, x := range list {
		if x == v {
			return list
		}
	}
	return append(list, v)
}

// --- relations and Algorithm 2 ----------------------------------------------

// buildRelations freezes the solved sets into the public Relations list.
func (r *Result) buildRelations() {
	for p, set := range r.pts {
		for t := range set {
			definite := r.definiteSrc[p][t] && len(set) == 1
			r.Relations = append(r.Relations, Relation{Ptr: p, Target: t, Definite: definite})
		}
	}
	sort.Slice(r.Relations, func(i, j int) bool {
		if r.Relations[i].Ptr.Name != r.Relations[j].Ptr.Name {
			return r.Relations[i].Ptr.Name < r.Relations[j].Ptr.Name
		}
		return r.Relations[i].Target.Name() < r.Relations[j].Target.Name()
	})
}

// applyAlgorithm2 propagates sharing from shared pointers to their
// (definite) targets, iterating to a fixed point since a newly shared
// pointer can share its own targets.
func (r *Result) applyAlgorithm2(opts Options) {
	changed := true
	shared := make(map[*scope.VarInfo]bool)
	for _, v := range r.Inter.Scope.Vars {
		if v.Current() == scope.Shared {
			shared[v] = true
		}
	}
	for changed {
		changed = false
		for _, rel := range r.Relations {
			if !shared[rel.Ptr] {
				continue
			}
			if !rel.Definite && !opts.PropagatePossible {
				continue
			}
			if rel.Target.Var != nil && !shared[rel.Target.Var] {
				shared[rel.Target.Var] = true
				changed = true
			}
		}
	}
	for v := range shared {
		v.SetStage(3, scope.Shared)
	}
}

// demoteDeadGlobals sets entirely unused globals to Private.
func (r *Result) demoteDeadGlobals() {
	for _, v := range r.Inter.Scope.Vars {
		if v.IsGlobal() && v.Reads == 0 && v.Writes == 0 && !v.AddressTaken {
			v.SetStage(3, scope.Private)
		}
	}
}

// finalizeStatuses fills Stage3 for variables Algorithm 2 didn't touch.
func (r *Result) finalizeStatuses() {
	for _, v := range r.Inter.Scope.Vars {
		if v.Stage3 == scope.Unknown {
			v.SetStage(3, v.Stage2)
		}
	}
}

// Dump renders the relationship map for tests and diagnostics.
func (r *Result) Dump() string {
	var sb strings.Builder
	for _, rel := range r.Relations {
		kind := "possibly"
		if rel.Definite {
			kind = "definite"
		}
		fmt.Fprintf(&sb, "%s -> %s (%s)\n", rel.Ptr.Name, rel.Target.Name(), kind)
	}
	return sb.String()
}
