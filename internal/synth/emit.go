package synth

import (
	"fmt"
	"strings"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// Array and function names of the emitted kernel shape.
//
//	sht — read-only shared table, one window of SharedAddrs per sharing
//	      group, written once by each group's leader in the warm round
//	swa/swb — parity-alternating shared write buffers: compute round r
//	      stores into its own SharedAddrs-wide window of the r%2 buffer
//	      and loads from its group's window of the other one, so no
//	      round ever reads a buffer any thread is writing
//	prv — per-thread private footprint of PrivateAddrs elements
//	out — one accumulator result slot per thread, summed across rounds
const (
	tableName = "sht"
	swapAName = "swa"
	swapBName = "swb"
	privName  = "prv"
	outName   = "out"
	warmName  = "warm"
)

func mixName(r int) string { return fmt.Sprintf("mix%d", r) }
func swapName(parity int) string {
	if parity == 0 {
		return swapAName
	}
	return swapBName
}

// Source renders the kernel as Pthread C source for a thread count.
// Emission is a pure function: the same (Params, threads) pair always
// produces byte-identical source.
func (p Params) Source(threads int) string {
	return printer.Print(p.File(threads))
}

// layout is the thread-count-resolved geometry of one emission.
type layout struct {
	threads int
	deg     int // effective sharing degree: min(Sharing, threads)
	groups  int // ceil(threads/deg) sharing groups
	sa, pa  int
}

func (p Params) layoutFor(threads int) layout {
	if threads < 1 {
		threads = 1
	}
	d := p.Sharing
	if d > threads {
		d = threads
	}
	if d < 1 {
		d = 1
	}
	return layout{
		threads: threads,
		deg:     d,
		groups:  (threads + d - 1) / d,
		sa:      p.SharedAddrs,
		pa:      p.PrivateAddrs,
	}
}

// File builds the kernel's IR for a thread count, following the corpus
// idiom the translator is specified over: global shared arrays, thread
// functions taking their ID through the void* argument, canonical
// launch/join loops in main, and per-array checksum prints.
//
// Value-boundedness invariant (what keeps arithmetic exact and
// overflow-free at any Ops budget): int operations reduce mod a fixed
// prime after every accumulate, so acc and every element stay in
// [0, intModulus); double operations only ever scale by constants < 1
// and add offsets ≤ 2.5, giving a fixpoint bound of 10 on acc and all
// elements, far below any precision loss at %.6f.
func (p Params) File(threads int) *ast.File {
	s := p.plan()
	u := s.usage()
	lay := p.layoutFor(threads)
	em := &synthEmitter{p: p, s: s, u: u, lay: lay}

	f := &ast.File{Name: strings.NewReplacer(":", "_", ".", "_").Replace(p.Key()) + ".c"}
	f.Decls = append(f.Decls,
		&ast.Include{Text: "#include <stdio.h>"},
		&ast.Include{Text: "#include <pthread.h>"},
	)
	for _, a := range em.arrays() {
		f.Decls = append(f.Decls, &ast.VarDecl{Name: a.name, Type: types.ArrayOf(a.elem, a.size)})
	}
	if em.hasWarm() {
		f.Decls = append(f.Decls, em.warmFunc())
	}
	for r := 0; r < p.Rounds; r++ {
		f.Decls = append(f.Decls, em.mixFunc(r))
	}
	f.Decls = append(f.Decls, em.mainFunc())
	return f
}

type synthEmitter struct {
	p   Params
	s   *schedule
	u   usage
	lay layout
}

func (em *synthEmitter) elem() *types.Type {
	if em.p.Double {
		return types.DoubleType
	}
	return types.IntType
}

type arrayDecl struct {
	name string
	elem *types.Type
	size int
}

// arrays lists the declared data arrays in checksum order. Only arrays
// the schedule touches exist — out always does.
func (em *synthEmitter) arrays() []arrayDecl {
	lay := em.lay
	var out []arrayDecl
	out = append(out, arrayDecl{outName, em.elem(), lay.threads})
	if em.u.table {
		out = append(out, arrayDecl{tableName, em.elem(), lay.groups * lay.sa})
	}
	if em.u.swap {
		size := lay.groups * lay.deg * lay.sa
		out = append(out, arrayDecl{swapAName, em.elem(), size})
		out = append(out, arrayDecl{swapBName, em.elem(), size})
	}
	if em.u.priv {
		out = append(out, arrayDecl{privName, em.elem(), lay.threads * lay.pa})
	}
	return out
}

func (em *synthEmitter) hasWarm() bool { return em.u.priv || em.u.table }

// warmFunc emits the initialisation round: every thread fills its own
// private slice, and each sharing group's leader (the unique thread
// with me % deg == 0 in the group) fills the group's read-only table
// window — one writer per element, race-free.
func (em *synthEmitter) warmFunc() *ast.FuncDecl {
	lay := em.lay
	var body []ast.Stmt
	body = append(body, ast.Var("me", types.IntType,
		&ast.CastExpr{To: types.IntType, X: ast.Id("tid")}))
	body = append(body, ast.Var("j", types.IntType, nil))
	fill := func(target ast.Expr) ast.Stmt {
		// (me*7 + j*3) keeps windows distinguishable; the value form is
		// bounded per the emitter invariant.
		mixIdx := ast.Bin(token.Plus,
			ast.Bin(token.Star, ast.Id("me"), ast.Int(7)),
			ast.Bin(token.Star, ast.Id("j"), ast.Int(3)))
		var val ast.Expr
		if em.p.Double {
			val = ast.Bin(token.Plus,
				ast.Bin(token.Star,
					&ast.CastExpr{To: types.DoubleType, X: &ast.ParenExpr{X: ast.Bin(token.Percent, &ast.ParenExpr{X: mixIdx}, ast.Int(8))}},
					ast.Float(0.25)),
				ast.Float(0.5))
		} else {
			val = &ast.ParenExpr{X: ast.Bin(token.Percent,
				&ast.ParenExpr{X: ast.Bin(token.Plus, mixIdx, ast.Int(1))}, ast.Int(intModulus))}
		}
		return ast.Eval(ast.Assign(target, val))
	}
	forJ := func(bound int, st ast.Stmt) ast.Stmt {
		return ast.Loop("j", ast.Int(0), ast.Int(int64(bound)), st)
	}
	if em.u.priv {
		target := &ast.IndexExpr{X: ast.Id(privName),
			Index: ast.Bin(token.Plus, ast.Mul(ast.Id("me"), lay.pa), ast.Id("j"))}
		body = append(body, forJ(lay.pa, fill(target)))
	}
	if em.u.table {
		target := &ast.IndexExpr{X: ast.Id(tableName),
			Index: ast.Bin(token.Plus, ast.Mul(em.groupOf("me"), lay.sa), ast.Id("j"))}
		loop := forJ(lay.sa, fill(target))
		body = append(body, &ast.IfStmt{
			Cond: ast.Bin(token.EqEq,
				&ast.ParenExpr{X: ast.Bin(token.Percent, ast.Id("me"), ast.Int(int64(lay.deg)))},
				ast.Int(0)),
			Then: &ast.BlockStmt{List: []ast.Stmt{loop}},
		})
	}
	body = append(body, ast.CallStmt("pthread_exit", ast.Id("NULL")))
	return threadFuncDecl(warmName, body)
}

// groupOf is the sharing-group id of a thread: me / deg (folded to me
// when every thread is its own group).
func (em *synthEmitter) groupOf(name string) ast.Expr {
	if em.lay.deg == 1 {
		return ast.Id(name)
	}
	return &ast.ParenExpr{X: ast.Bin(token.Slash, ast.Id(name), ast.Int(int64(em.lay.deg)))}
}

// mixFunc emits compute round r: the accumulator loop iterating the
// round's scheduled operation body, then the thread's result fold into
// its own out slot.
func (em *synthEmitter) mixFunc(r int) *ast.FuncDecl {
	var body []ast.Stmt
	body = append(body, ast.Var("me", types.IntType,
		&ast.CastExpr{To: types.IntType, X: ast.Id("tid")}))
	if em.p.Double {
		body = append(body, ast.Var("acc", types.DoubleType, ast.Float(0.5)))
	} else {
		body = append(body, ast.Var("acc", types.IntType, ast.Int(int64(1+r))))
	}
	body = append(body, ast.Var("i", types.IntType, nil))
	var inner []ast.Stmt
	for _, o := range em.s.rounds[r] {
		inner = append(inner, em.opStmt(o, r))
	}
	if len(inner) > 0 {
		body = append(body, ast.Loop("i", ast.Int(0), ast.Int(int64(em.s.iters)), ast.Nest(inner)))
	}
	slot := &ast.IndexExpr{X: ast.Id(outName), Index: ast.Id("me")}
	body = append(body, ast.Eval(ast.Assign(slot,
		ast.Bin(token.Plus, &ast.IndexExpr{X: ast.Id(outName), Index: ast.Id("me")}, ast.Id("acc")))))
	body = append(body, ast.CallStmt("pthread_exit", ast.Id("NULL")))
	return threadFuncDecl(mixName(r), body)
}

// wrapIdx is the bounded in-window offset (i*stride + off) % width.
func wrapIdx(o op, width int) ast.Expr {
	lin := ast.Bin(token.Plus, ast.Mul(ast.Id("i"), o.stride), ast.Int(int64(o.off)))
	return &ast.ParenExpr{X: ast.Bin(token.Percent, &ast.ParenExpr{X: lin}, ast.Int(int64(width)))}
}

// opStmt lowers one scheduled operation of round r to a statement.
// Stores target the thread's own window (me-based base), loads from
// shared state only touch arrays stable in this round — the race-
// freedom-by-construction discipline.
func (em *synthEmitter) opStmt(o op, r int) ast.Stmt {
	lay := em.lay
	switch o.kind {
	case opNonMem:
		if em.p.Double {
			// acc = acc * F1 + F2;
			return ast.Eval(ast.Assign(ast.Id("acc"), ast.Bin(token.Plus,
				ast.Bin(token.Star, ast.Id("acc"), ast.Float(doubleScales[o.f1])),
				ast.Float(doubleOffsets[o.f2]))))
		}
		// acc = (acc * C1 + C2) % M;
		return ast.Eval(ast.Assign(ast.Id("acc"), sModM(ast.Bin(token.Plus,
			ast.Bin(token.Star, ast.Id("acc"), ast.Int(int64(o.c1))), ast.Int(int64(o.c2))))))
	case opPrivLoad:
		idx := ast.Bin(token.Plus, ast.Mul(ast.Id("me"), lay.pa), wrapIdx(o, lay.pa))
		return em.loadStmt(&ast.IndexExpr{X: ast.Id(privName), Index: idx})
	case opPrivStore:
		idx := ast.Bin(token.Plus, ast.Mul(ast.Id("me"), lay.pa), wrapIdx(o, lay.pa))
		return em.storeStmt(&ast.IndexExpr{X: ast.Id(privName), Index: idx}, o)
	case opSharedLoad:
		if o.fromSW {
			width := lay.deg * lay.sa
			idx := ast.Bin(token.Plus, ast.Mul(em.groupOf("me"), width), wrapIdx(o, width))
			return em.loadStmt(&ast.IndexExpr{X: ast.Id(swapName(1 - r%2)), Index: idx})
		}
		idx := ast.Bin(token.Plus, ast.Mul(em.groupOf("me"), lay.sa), wrapIdx(o, lay.sa))
		return em.loadStmt(&ast.IndexExpr{X: ast.Id(tableName), Index: idx})
	case opSharedStore:
		idx := ast.Bin(token.Plus, ast.Mul(ast.Id("me"), lay.sa), wrapIdx(o, lay.sa))
		return em.storeStmt(&ast.IndexExpr{X: ast.Id(swapName(r % 2)), Index: idx}, o)
	}
	panic("synth: unknown op kind")
}

// loadStmt folds a memory read into the accumulator, keeping it bounded:
// int `acc = (acc + X) % M;`, double `acc = acc * 0.5 + X * 0.5;`.
func (em *synthEmitter) loadStmt(read ast.Expr) ast.Stmt {
	if em.p.Double {
		return ast.Eval(ast.Assign(ast.Id("acc"), ast.Bin(token.Plus,
			ast.Bin(token.Star, ast.Id("acc"), ast.Float(0.5)),
			ast.Bin(token.Star, read, ast.Float(0.5)))))
	}
	return ast.Eval(ast.Assign(ast.Id("acc"),
		sModM(ast.Bin(token.Plus, ast.Id("acc"), read))))
}

// storeStmt writes a bounded function of the accumulator; the RHS reads
// no array, so mix accounting classifies the statement as exactly one
// store.
func (em *synthEmitter) storeStmt(target ast.Expr, o op) ast.Stmt {
	if em.p.Double {
		return ast.Eval(ast.Assign(target, ast.Bin(token.Plus,
			ast.Bin(token.Star, ast.Id("acc"), ast.Float(0.5)),
			ast.Float(doubleOffsets[o.f2]))))
	}
	return ast.Eval(ast.Assign(target,
		sModM(ast.Bin(token.Plus, ast.Id("acc"), ast.Int(int64(o.c2))))))
}

// mainFunc emits launch/join rounds (warm first when present) and the
// per-array checksum reduction.
func (em *synthEmitter) mainFunc() *ast.FuncDecl {
	lay := em.lay
	var body []ast.Stmt
	body = append(body,
		&ast.DeclStmt{Decl: &ast.VarDecl{Name: "th",
			Type: types.ArrayOf(types.OpaqueOf("pthread_t"), lay.threads)}},
		ast.Var("t", types.IntType, nil),
	)
	if em.hasWarm() {
		body = append(body, ast.CreateJoin(warmName, lay.threads)...)
	}
	for r := 0; r < em.p.Rounds; r++ {
		body = append(body, ast.CreateJoin(mixName(r), lay.threads)...)
	}
	body = append(body, em.reduction()...)
	body = append(body, &ast.ReturnStmt{Result: ast.Int(0)})
	return &ast.FuncDecl{
		Name:   "main",
		Result: types.IntType,
		Body:   &ast.BlockStmt{List: body},
	}
}

// reduction sums every declared array into one checksum line each
// (`c<idx> <sum>`), one accumulation loop per array since sizes differ.
func (em *synthEmitter) reduction() []ast.Stmt {
	var out []ast.Stmt
	out = append(out, ast.Var("k", types.IntType, nil))
	arrays := em.arrays()
	for i := range arrays {
		name := fmt.Sprintf("c%d", i)
		if em.p.Double {
			out = append(out, ast.Var(name, types.DoubleType, ast.Float(0.0)))
		} else {
			out = append(out, ast.Var(name, types.IntType, ast.Int(0)))
		}
	}
	for i, a := range arrays {
		name := fmt.Sprintf("c%d", i)
		out = append(out, ast.Loop("k", ast.Int(0), ast.Int(int64(a.size)), ast.Eval(ast.Assign(ast.Id(name),
			ast.Bin(token.Plus, ast.Id(name), &ast.IndexExpr{X: ast.Id(a.name), Index: ast.Id("k")})))))
		verb := "%d"
		if em.p.Double {
			verb = "%.6f"
		}
		out = append(out, ast.CallStmt("printf",
			ast.Str(fmt.Sprintf("c%d %s\n", i, verb)), ast.Id(name)))
	}
	return out
}

func threadFuncDecl(name string, body []ast.Stmt) *ast.FuncDecl {
	return &ast.FuncDecl{
		Name:   name,
		Result: types.PointerTo(types.VoidType),
		Params: []*ast.Param{{Name: "tid", Type: types.PointerTo(types.VoidType)}},
		Body:   &ast.BlockStmt{List: body},
	}
}

// sModM reduces an int expression modulo the fixed prime:
// `(<e>) % 9973`.
func sModM(e ast.Expr) ast.Expr {
	return &ast.ParenExpr{X: ast.Bin(token.Percent, &ast.ParenExpr{X: e}, ast.Int(intModulus))}
}
