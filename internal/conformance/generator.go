// Package conformance is the differential conformance engine: a seeded
// generator of random-but-well-typed Pthread kernels plus an oracle that
// runs every kernel through the single-core Pthread interpreter baseline
// AND through the full translate→RCCE→sccsim pipeline across a
// (cores × placement policy × MPB budget) matrix, failing on any output
// divergence. The paper's core claim — translation preserves program
// semantics under every placement of shared data between the MPB and
// off-chip shared memory — becomes a checked invariant over thousands of
// programs instead of ten hand-written benchmarks.
//
// Kernels are generated as a Spec: a small, fully-exported, shrinkable
// description of a Pthread program (shared arrays, barrier-separated
// launch/join rounds, mutex-guarded updates, per-thread prints) that
// Emit renders to an IR tree and C source. Working at the spec level
// keeps every generated program well-typed and data-race-free by
// construction — cross-slice reads are only generated from arrays that
// no thread writes in the same round — which is exactly the class of
// "well-defined Pthread programs" the thesis's translator accepts.
package conformance

import (
	"fmt"
	"math/rand"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/printer"
	"hsmcc/internal/cc/token"
	"hsmcc/internal/cc/types"
)

// ElemKind is the element type of a generated shared array or expression.
type ElemKind int

// Element kinds.
const (
	KInt ElemKind = iota
	KDouble
)

func (k ElemKind) ctype() *types.Type {
	if k == KDouble {
		return types.DoubleType
	}
	return types.IntType
}

// Op enumerates the expression forms the generator emits.
type Op string

// Expression operators. Arithmetic is closed over {+, -, *, %} — no
// division, so generated programs cannot fault — and OpModN is the
// emit-time "mod array length" used to keep cross-slice reads in bounds.
const (
	OpIntLit   Op = "int"
	OpFloatLit Op = "float"
	OpMe       Op = "me" // thread ID / core ID
	OpI        Op = "i"  // per-element loop induction variable
	OpRR       Op = "rr" // serial-round variable (LU's kk)
	OpRead     Op = "read"
	OpAdd      Op = "add"
	OpSub      Op = "sub"
	OpMul      Op = "mul"
	OpMod      Op = "mod"  // int only; Y is a positive literal
	OpModN     Op = "modn" // X % N where N = threads*PerThread, resolved at emit
)

// Expr is a tiny expression tree over the kernel context. K is the
// node's result kind; Emit inserts (int)/(double) casts wherever a
// child's kind differs.
type Expr struct {
	Op   Op       `json:"op"`
	K    ElemKind `json:"k"`
	Val  int64    `json:"val,omitempty"`
	FVal float64  `json:"fval,omitempty"`
	Arr  int      `json:"arr,omitempty"`
	// Via, when > 0, routes an OpRead through shared pointer Via-1
	// (Ptrs[Via-1].Arr == Arr): the emitted form is
	// `P<j>[(<Idx>) % (N - Off)]`, an aliased read into the pointee
	// array that stays in bounds for every thread count. Restricted to
	// arrays stable in the current round, exactly like cross-slice
	// reads, so the alias is race-free by construction.
	Via int   `json:"via,omitempty"`
	Idx *Expr `json:"idx,omitempty"`
	X   *Expr `json:"x,omitempty"`
	Y   *Expr `json:"y,omitempty"`
}

// Stmt is one statement of a round's per-element loop: an assignment (or
// read-modify-write) of the target array's element at the loop index,
// optionally guarded by a deterministic parity test.
type Stmt struct {
	Arr   int   `json:"arr"`
	AddTo bool  `json:"add_to,omitempty"`
	RHS   *Expr `json:"rhs"`
	// Ptr, when > 0, writes through shared pointer Ptr-1 instead of the
	// array name: `P<j>[i] = ...`. Only zero-offset pointers to the
	// statement's own target array qualify, so the aliased store hits
	// exactly the element the direct store would — same race profile,
	// different lvalue path through the translator.
	Ptr int `json:"ptr,omitempty"`
	// Guard, when non-nil, wraps the assignment in
	// `if ((<guard>) % 2 == 0)`.
	Guard *Expr `json:"guard,omitempty"`
}

// Ptr is one pointer-typed shared global: `T *P<j>;` initialised in
// main (before any launch, hence race-free) as `P<j> = A<Arr> + Off;`.
// Off stays below PerThread so the alias window is valid at every
// thread count the matrix sweeps.
type Ptr struct {
	Arr int `json:"arr"`
	Off int `json:"off,omitempty"`
}

// Solo is a thread-specific task: exactly one thread (Thread mod the
// emitted thread count) executes an extra write into its own slice of a
// designated array — `if (myID == k)` launches, per the ROADMAP open
// item, so translated programs are exercised with asymmetric thread
// bodies and not just SPMD loops. The target array is never a loop
// target of the same round and is marked written, so no other thread
// reads or writes it concurrently: race-free by construction.
type Solo struct {
	Thread int   `json:"thread"`
	Arr    int   `json:"arr"`
	Idx    int   `json:"idx"` // offset within the thread's slice, mod PerThread
	RHS    *Expr `json:"rhs"`
}

// Round is one pthread_create/pthread_join cycle — after translation,
// one RCCE barrier phase.
type Round struct {
	// Serial > 1 wraps the round in a main-driven serial loop
	// `for (r = 0; r < Serial; r++) { rr<k> = r; launch; join; }`,
	// the LU/KMeans iteration pattern (rr<k> is a shared scalar).
	Serial int `json:"serial,omitempty"`
	// Loop is the thread function's per-element statement list over the
	// thread's slice [me*P, me*P+P).
	Loop []Stmt `json:"loop"`
	// Slot, settable when PerThread == 1, emits Loop statements as
	// direct own-slot writes (A[me] = ...) without the for loop — the
	// compact form the shrinker reduces to.
	Slot bool `json:"slot,omitempty"`
	// Solo, when non-nil, appends a thread-specific task guarded by
	// `if (me == k)` — the asymmetric-body shape of thesis launches where
	// only a designated thread performs a step.
	Solo *Solo `json:"solo,omitempty"`
	// Crit, when non-nil, appends a mutex-guarded update of the shared
	// counter: lock; gsum = gsum + <Crit>; unlock. Int-kind and
	// commutative, so the result is schedule-independent.
	Crit *Expr `json:"crit,omitempty"`
	// Print appends a per-thread printf probing me and the thread's own
	// first slot of array 0.
	Print bool `json:"print,omitempty"`
}

// Spec is a complete generated kernel, parameterised over the thread
// count at emission time so one spec sweeps every cores value of the
// matrix.
type Spec struct {
	Seed      int64      `json:"seed"`
	PerThread int        `json:"per_thread"` // P: elements per thread per array
	Arrays    []ElemKind `json:"arrays"`
	// Ptrs are pointer-typed shared globals aliasing into the arrays
	// (thesis Example 4.2's `ptr`); reads and writes through them
	// exercise the translator's shared-pointer backing path.
	Ptrs   []Ptr   `json:"ptrs,omitempty"`
	Mutex  bool    `json:"mutex"` // gsum counter + pthread mutex
	Rounds []Round `json:"rounds"`
}

// GenOptions bounds the generator. The defaults keep kernels small
// enough that a full matrix check takes milliseconds while still
// covering every translator pass.
type GenOptions struct {
	MaxArrays    int
	MaxRounds    int
	MaxStmts     int
	MaxSerial    int
	MaxPerThread int
	MaxExprDepth int
	PMutex       float64
	PPrint       float64
	PSerial      float64
	PGuard       float64
	// PSolo is the probability a round gains a thread-specific
	// (`if (me == k)`) task targeting an otherwise-untouched array.
	PSolo float64
	// MaxPtrs bounds the pointer-typed shared globals; PPtr is the
	// probability the kernel has any, and PPtrWrite the probability a
	// loop statement writes through a qualifying (zero-offset) pointer
	// instead of the array name.
	MaxPtrs   int
	PPtr      float64
	PPtrWrite float64
}

// DefaultGenOptions returns the engine's standard generator bounds.
func DefaultGenOptions() GenOptions {
	return GenOptions{
		MaxArrays:    3,
		MaxRounds:    3,
		MaxStmts:     3,
		MaxSerial:    3,
		MaxPerThread: 4,
		MaxExprDepth: 3,
		PMutex:       0.4,
		PPrint:       0.3,
		PSerial:      0.35,
		PGuard:       0.3,
		PSolo:        0.35,
		MaxPtrs:      2,
		PPtr:         0.5,
		PPtrWrite:    0.35,
	}
}

// Generate builds a random kernel spec from rng. The same (seed-derived)
// rng always yields the same spec, which is what makes every reported
// failure reproducible from its seed.
func Generate(rng *rand.Rand, opts GenOptions) *Spec {
	s := &Spec{
		PerThread: 1 + rng.Intn(opts.MaxPerThread),
	}
	narr := 1 + rng.Intn(opts.MaxArrays)
	for a := 0; a < narr; a++ {
		k := KInt
		if rng.Intn(2) == 1 {
			k = KDouble
		}
		s.Arrays = append(s.Arrays, k)
	}
	if opts.MaxPtrs > 0 && rng.Float64() < opts.PPtr {
		nptr := 1 + rng.Intn(opts.MaxPtrs)
		for j := 0; j < nptr; j++ {
			pt := Ptr{Arr: rng.Intn(narr)}
			if rng.Intn(2) == 1 {
				pt.Off = rng.Intn(s.PerThread)
			}
			s.Ptrs = append(s.Ptrs, pt)
		}
	}
	nrounds := 1 + rng.Intn(opts.MaxRounds)
	written := make([]bool, narr) // arrays written in any earlier round
	for r := 0; r < nrounds; r++ {
		var rd Round
		if rng.Float64() < opts.PSerial {
			rd.Serial = 2 + rng.Intn(opts.MaxSerial-1)
		}
		nst := 1 + rng.Intn(opts.MaxStmts)
		// Pick this round's write targets first so cross-slice reads can
		// be restricted to arrays no thread writes in this round.
		targets := make([]int, nst)
		inRound := make([]bool, narr)
		for j := range targets {
			targets[j] = rng.Intn(narr)
			inRound[targets[j]] = true
		}
		// Thread-specific task: pick an array no loop statement writes,
		// claim it for this round (blocking cross-slice reads of it),
		// and give one thread an extra own-slice write.
		if rng.Float64() < opts.PSolo {
			var cands []int
			for a := 0; a < narr; a++ {
				if !inRound[a] {
					cands = append(cands, a)
				}
			}
			if len(cands) > 0 {
				arr := cands[rng.Intn(len(cands))]
				inRound[arr] = true
				gs := &exprGen{rng: rng, opts: opts, spec: s, serial: rd.Serial > 1, written: written, inRound: inRound}
				rd.Solo = &Solo{
					Thread: rng.Intn(8),
					Arr:    arr,
					Idx:    rng.Intn(opts.MaxPerThread),
					RHS:    gs.gen(s.Arrays[arr], opts.MaxExprDepth),
				}
			}
		}
		g := &exprGen{
			rng:     rng,
			opts:    opts,
			spec:    s,
			inLoop:  true,
			serial:  rd.Serial > 1,
			written: written,
			inRound: inRound,
		}
		for _, tgt := range targets {
			st := Stmt{
				Arr:   tgt,
				AddTo: rng.Intn(3) == 0,
				RHS:   g.gen(s.Arrays[tgt], opts.MaxExprDepth),
			}
			// Route the store through a zero-offset alias of the target
			// when one exists: same element, pointer lvalue path.
			if rng.Float64() < opts.PPtrWrite {
				if j, ok := s.zeroOffsetPtr(tgt, rng); ok {
					st.Ptr = j + 1
				}
			}
			if rng.Float64() < opts.PGuard {
				st.Guard = g.gen(KInt, 2)
			}
			rd.Loop = append(rd.Loop, st)
		}
		if rng.Float64() < opts.PMutex {
			s.Mutex = true
			gc := &exprGen{rng: rng, opts: opts, spec: s, serial: rd.Serial > 1, written: written, inRound: inRound}
			rd.Crit = gc.gen(KInt, 2)
		}
		if rng.Float64() < opts.PPrint {
			rd.Print = true
		}
		for a, w := range inRound {
			if w {
				written[a] = true
			}
		}
		s.Rounds = append(s.Rounds, rd)
	}
	return s
}

// exprGen carries the context that decides which atoms an expression may
// reference: OpI only inside the per-element loop, OpRR only in serial
// rounds, cross-slice OpRead only from arrays stable in this round.
type exprGen struct {
	rng     *rand.Rand
	opts    GenOptions
	spec    *Spec
	inLoop  bool
	serial  bool
	written []bool // written in an earlier round (stable content)
	inRound []bool // written by some thread in the current round
}

func (g *exprGen) gen(k ElemKind, depth int) *Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return g.leaf(k)
	}
	switch g.rng.Intn(4) {
	case 0:
		return &Expr{Op: OpAdd, K: k, X: g.gen(k, depth-1), Y: g.gen(k, depth-1)}
	case 1:
		return &Expr{Op: OpSub, K: k, X: g.gen(k, depth-1), Y: g.gen(k, depth-1)}
	case 2:
		return &Expr{Op: OpMul, K: k, X: g.gen(k, depth-1), Y: g.leaf(k)}
	default:
		if k == KInt {
			return &Expr{Op: OpMod, K: KInt, X: g.gen(KInt, depth-1),
				Y: &Expr{Op: OpIntLit, K: KInt, Val: int64(2 + g.rng.Intn(8))}}
		}
		return &Expr{Op: OpAdd, K: k, X: g.gen(k, depth-1), Y: g.leaf(k)}
	}
}

// zeroOffsetPtr finds a zero-offset pointer aliasing arr (rng breaks
// ties among several).
func (s *Spec) zeroOffsetPtr(arr int, rng *rand.Rand) (int, bool) {
	var cands []int
	for j, pt := range s.Ptrs {
		if pt.Arr == arr && pt.Off == 0 {
			cands = append(cands, j)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[rng.Intn(len(cands))], true
}

// leaf picks an atom: a literal, me, i, rr, an array read, or an
// aliased read through a shared pointer. Mixed-kind atoms are fine —
// Emit inserts the casts.
func (g *exprGen) leaf(k ElemKind) *Expr {
	for tries := 0; tries < 4; tries++ {
		switch g.rng.Intn(7) {
		case 0:
			if k == KDouble {
				fvals := []float64{0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0}
				return &Expr{Op: OpFloatLit, K: KDouble, FVal: fvals[g.rng.Intn(len(fvals))]}
			}
			return &Expr{Op: OpIntLit, K: KInt, Val: int64(g.rng.Intn(10))}
		case 1:
			return &Expr{Op: OpMe, K: KInt}
		case 2:
			if g.inLoop {
				return &Expr{Op: OpI, K: KInt}
			}
		case 3:
			if g.serial {
				return &Expr{Op: OpRR, K: KInt}
			}
		case 4:
			// Own-element read: current value of any array at the loop
			// index (only meaningful inside the loop).
			if g.inLoop {
				a := g.rng.Intn(len(g.spec.Arrays))
				return &Expr{Op: OpRead, K: g.spec.Arrays[a], Arr: a, Idx: &Expr{Op: OpI, K: KInt}}
			}
		case 5:
			// Cross-slice read from an array stable in this round: the
			// index is an arbitrary non-negative expression mod N.
			if a, ok := g.stableArray(); ok {
				return &Expr{Op: OpRead, K: g.spec.Arrays[a], Arr: a,
					Idx: &Expr{Op: OpModN, K: KInt, X: g.nonNegative(2)}}
			}
		case 6:
			// Aliased read through a shared pointer whose pointee array
			// is stable this round; the emitter wraps the index in
			// `% (N - Off)` so the alias window stays in bounds.
			if j, ok := g.stablePtr(); ok {
				pt := g.spec.Ptrs[j]
				return &Expr{Op: OpRead, K: g.spec.Arrays[pt.Arr], Arr: pt.Arr,
					Via: j + 1, Idx: g.nonNegative(2)}
			}
		}
	}
	if k == KDouble {
		return &Expr{Op: OpFloatLit, K: KDouble, FVal: 1.0}
	}
	return &Expr{Op: OpIntLit, K: KInt, Val: 1}
}

// stablePtr picks a pointer whose pointee array no thread writes in the
// current round — the same stability rule cross-slice reads obey.
func (g *exprGen) stablePtr() (int, bool) {
	var cands []int
	for j, pt := range g.spec.Ptrs {
		if !g.inRound[pt.Arr] {
			cands = append(cands, j)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[g.rng.Intn(len(cands))], true
}

// stableArray picks an array no thread writes in the current round (its
// contents are barrier-separated from this round's writes, so any-index
// reads are race-free). Never-written arrays qualify too: shared
// allocations are zeroed in both backends.
func (g *exprGen) stableArray() (int, bool) {
	var cands []int
	for a := range g.spec.Arrays {
		if !g.inRound[a] {
			cands = append(cands, a)
		}
	}
	if len(cands) == 0 {
		return 0, false
	}
	return cands[g.rng.Intn(len(cands))], true
}

// nonNegative builds an int expression whose value is provably ≥ 0
// (atoms are non-negative, ops are {+, *, % positive}): safe as an array
// index after % N.
func (g *exprGen) nonNegative(depth int) *Expr {
	if depth <= 0 || g.rng.Intn(2) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return &Expr{Op: OpIntLit, K: KInt, Val: int64(g.rng.Intn(10))}
		case 1:
			return &Expr{Op: OpMe, K: KInt}
		default:
			if g.inLoop {
				return &Expr{Op: OpI, K: KInt}
			}
			return &Expr{Op: OpMe, K: KInt}
		}
	}
	if g.rng.Intn(2) == 0 {
		return &Expr{Op: OpAdd, K: KInt, X: g.nonNegative(depth - 1), Y: g.nonNegative(depth - 1)}
	}
	return &Expr{Op: OpMul, K: KInt, X: g.nonNegative(depth - 1),
		Y: &Expr{Op: OpIntLit, K: KInt, Val: int64(1 + g.rng.Intn(5))}}
}

// ---------------------------------------------------------------------------
// Emission: Spec -> *ast.File -> C source
// ---------------------------------------------------------------------------

// Source renders the kernel as Pthread C source for a thread count.
func (s *Spec) Source(threads int) string {
	return printer.Print(s.File(threads))
}

// File builds the kernel's IR for a thread count. The emitted program
// follows the corpus idiom the translator is specified over: global
// shared arrays, thread functions taking their ID through the void*
// argument, canonical launch/join loops in main, and a reduction that
// prints one checksum line per array.
func (s *Spec) File(threads int) *ast.File {
	em := &emitter{spec: s, threads: threads, n: threads * s.PerThread}
	f := &ast.File{Name: fmt.Sprintf("gen_seed%d.c", s.Seed)}
	f.Decls = append(f.Decls,
		&ast.Include{Text: "#include <stdio.h>"},
		&ast.Include{Text: "#include <pthread.h>"},
	)
	for a, k := range s.Arrays {
		f.Decls = append(f.Decls, &ast.VarDecl{
			Name: arrName(a),
			Type: types.ArrayOf(k.ctype(), em.n),
		})
	}
	for j, pt := range s.Ptrs {
		f.Decls = append(f.Decls, &ast.VarDecl{
			Name: ptrName(j),
			Type: types.PointerTo(s.Arrays[pt.Arr].ctype()),
		})
	}
	if s.Mutex {
		f.Decls = append(f.Decls,
			&ast.VarDecl{Name: "gsum", Type: types.IntType},
			&ast.VarDecl{Name: "mu", Type: types.OpaqueOf("pthread_mutex_t")},
		)
	}
	for r, rd := range s.Rounds {
		if rd.Serial > 1 {
			f.Decls = append(f.Decls, &ast.VarDecl{Name: rrName(r), Type: types.IntType})
		}
	}
	for r := range s.Rounds {
		f.Decls = append(f.Decls, em.threadFunc(r))
	}
	f.Decls = append(f.Decls, em.mainFunc())
	return f
}

func arrName(a int) string  { return fmt.Sprintf("A%d", a) }
func ptrName(j int) string  { return fmt.Sprintf("P%d", j) }
func rrName(r int) string   { return fmt.Sprintf("rr%d", r) }
func stepName(r int) string { return fmt.Sprintf("step%d", r) }

type emitter struct {
	spec    *Spec
	threads int
	n       int // total elements per array
}

// threadFunc emits `void *step<r>(void *tid) { ... }`.
func (em *emitter) threadFunc(r int) *ast.FuncDecl {
	rd := em.spec.Rounds[r]
	ctx := exprCtx{em: em, round: r}
	var body []ast.Stmt
	body = append(body, ast.Var("me", types.IntType,
		&ast.CastExpr{To: types.IntType, X: ast.Id("tid")}))
	slot := rd.Slot && em.spec.PerThread == 1
	if slot {
		ctx.slotForm = true
		for _, st := range rd.Loop {
			body = append(body, em.assignStmt(st, ctx))
		}
	} else if len(rd.Loop) > 0 {
		body = append(body, ast.Var("lo", types.IntType, ast.Mul(ast.Id("me"), em.spec.PerThread)))
		body = append(body, ast.Var("i", types.IntType, nil))
		var inner []ast.Stmt
		for _, st := range rd.Loop {
			inner = append(inner, em.assignStmt(st, ctx))
		}
		body = append(body, ast.Loop("i", ast.Id("lo"),
			ast.Bin(token.Plus, ast.Id("lo"), ast.Int(int64(em.spec.PerThread))), ast.Nest(inner)))
	}
	if rd.Solo != nil {
		k := rd.Solo.Thread % em.threads
		if k < 0 {
			k = 0
		}
		slot := k*em.spec.PerThread + rd.Solo.Idx%em.spec.PerThread
		target := &ast.IndexExpr{X: ast.Id(arrName(rd.Solo.Arr)), Index: ast.Int(int64(slot))}
		task := ast.Eval(ast.Assign(target, em.expr(rd.Solo.RHS, em.spec.Arrays[rd.Solo.Arr], ctx)))
		body = append(body, &ast.IfStmt{
			Cond: ast.Bin(token.EqEq, ast.Id("me"), ast.Int(int64(k))),
			Then: &ast.BlockStmt{List: []ast.Stmt{task}},
		})
	}
	if rd.Crit != nil {
		body = append(body,
			ast.CallStmt("pthread_mutex_lock", addr("mu")),
			ast.Eval(ast.Assign(ast.Id("gsum"), ast.Bin(token.Plus, ast.Id("gsum"), em.expr(rd.Crit, KInt, ctx)))),
			ast.CallStmt("pthread_mutex_unlock", addr("mu")),
		)
	}
	if rd.Print {
		probe := &ast.IndexExpr{X: ast.Id(arrName(0)), Index: ast.Mul(ast.Id("me"), em.spec.PerThread)}
		verb, arg := "%d", em.cast(probe, em.spec.Arrays[0], KInt)
		body = append(body, ast.CallStmt("printf",
			ast.Str(fmt.Sprintf("p%d %%d %s\n", r, verb)), ast.Id("me"), arg))
	}
	body = append(body, ast.CallStmt("pthread_exit", ast.Id("NULL")))
	return &ast.FuncDecl{
		Name:   stepName(r),
		Result: types.PointerTo(types.VoidType),
		Params: []*ast.Param{{Name: "tid", Type: types.PointerTo(types.VoidType)}},
		Body:   &ast.BlockStmt{List: body},
	}
}

// assignStmt emits one loop/slot statement, with the optional parity
// guard. A Ptr-routed statement indexes the aliasing pointer instead of
// the array name (same element: the pointer has offset zero).
func (em *emitter) assignStmt(st Stmt, ctx exprCtx) ast.Stmt {
	base := arrName(st.Arr)
	if st.Ptr > 0 {
		base = ptrName(st.Ptr - 1)
	}
	target := &ast.IndexExpr{X: ast.Id(base), Index: ctx.indexExpr(em)}
	rhs := em.expr(st.RHS, em.spec.Arrays[st.Arr], ctx)
	if st.AddTo {
		rhs = ast.Bin(token.Plus, &ast.IndexExpr{X: ast.Id(base), Index: ctx.indexExpr(em)}, rhs)
	}
	var out ast.Stmt = ast.Eval(ast.Assign(target, rhs))
	if st.Guard != nil {
		cond := ast.Bin(token.EqEq,
			ast.Bin(token.Percent, &ast.ParenExpr{X: em.expr(st.Guard, KInt, ctx)}, ast.Int(2)),
			ast.Int(0))
		out = &ast.IfStmt{Cond: cond, Then: out}
	}
	return out
}

// mainFunc emits the launch/join rounds and the checksum reduction.
func (em *emitter) mainFunc() *ast.FuncDecl {
	s := em.spec
	var body []ast.Stmt
	body = append(body,
		&ast.DeclStmt{Decl: &ast.VarDecl{Name: "th",
			Type: types.ArrayOf(types.OpaqueOf("pthread_t"), em.threads)}},
		ast.Var("t", types.IntType, nil),
	)
	hasSerial := false
	for _, rd := range s.Rounds {
		if rd.Serial > 1 {
			hasSerial = true
		}
	}
	if hasSerial {
		body = append(body, ast.Var("r", types.IntType, nil))
	}
	if s.Mutex {
		body = append(body, ast.CallStmt("pthread_mutex_init", addr("mu"), ast.Id("NULL")))
	}
	// Bind the shared pointers before any launch: every thread reads a
	// pointer main wrote while still single-threaded.
	for j, pt := range s.Ptrs {
		var rhs ast.Expr = ast.Id(arrName(pt.Arr))
		if pt.Off > 0 {
			rhs = ast.Bin(token.Plus, rhs, ast.Int(int64(pt.Off)))
		}
		body = append(body, ast.Eval(ast.Assign(ast.Id(ptrName(j)), rhs)))
	}
	for r, rd := range s.Rounds {
		launch := ast.CreateJoin(stepName(r), em.threads)
		if rd.Serial > 1 {
			serialBody := append([]ast.Stmt{ast.Eval(ast.Assign(ast.Id(rrName(r)), ast.Id("r")))}, launch...)
			body = append(body, ast.Loop("r", ast.Int(0), ast.Int(int64(rd.Serial)),
				&ast.BlockStmt{List: serialBody}))
		} else {
			body = append(body, launch...)
		}
	}
	body = append(body, em.reduction()...)
	if s.Mutex {
		body = append(body, ast.CallStmt("printf", ast.Str("g %d\n"), ast.Id("gsum")))
	}
	body = append(body, &ast.ReturnStmt{Result: ast.Int(0)})
	return &ast.FuncDecl{
		Name:   "main",
		Result: types.IntType,
		Body:   &ast.BlockStmt{List: body},
	}
}

// reduction emits per-array checksums. Arrays of ≤ 4 elements are summed
// inline in the printf (the compact form the shrinker's minimal repro
// relies on); larger arrays get one accumulation loop over all arrays.
func (em *emitter) reduction() []ast.Stmt {
	s := em.spec
	if em.n <= 4 {
		var out []ast.Stmt
		for a, k := range s.Arrays {
			var sum ast.Expr
			for e := 0; e < em.n; e++ {
				term := &ast.IndexExpr{X: ast.Id(arrName(a)), Index: ast.Int(int64(e))}
				if sum == nil {
					sum = term
				} else {
					sum = ast.Bin(token.Plus, sum, term)
				}
			}
			out = append(out, em.checkPrintf(a, k, sum))
		}
		return out
	}
	var out []ast.Stmt
	out = append(out, ast.Var("k", types.IntType, nil))
	for a, k := range s.Arrays {
		if k == KDouble {
			out = append(out, ast.Var(ckName(a), types.DoubleType, nil),
				ast.Eval(ast.Assign(ast.Id(ckName(a)), ast.Float(0.0))))
		} else {
			out = append(out, ast.Var(ckName(a), types.IntType, nil),
				ast.Eval(ast.Assign(ast.Id(ckName(a)), ast.Int(0))))
		}
	}
	var accum []ast.Stmt
	for a := range s.Arrays {
		accum = append(accum, ast.Eval(ast.Assign(ast.Id(ckName(a)),
			ast.Bin(token.Plus, ast.Id(ckName(a)),
				&ast.IndexExpr{X: ast.Id(arrName(a)), Index: ast.Id("k")}))))
	}
	out = append(out, ast.Loop("k", ast.Int(0), ast.Int(int64(em.n)), ast.Nest(accum)))
	for a, k := range s.Arrays {
		out = append(out, em.checkPrintf(a, k, ast.Id(ckName(a))))
	}
	return out
}

func (em *emitter) checkPrintf(a int, k ElemKind, val ast.Expr) ast.Stmt {
	if k == KDouble {
		return ast.CallStmt("printf", ast.Str(fmt.Sprintf("c%d %%.6f\n", a)), val)
	}
	return ast.CallStmt("printf", ast.Str(fmt.Sprintf("c%d %%d\n", a)), val)
}

func ckName(a int) string { return fmt.Sprintf("c%d", a) }

// exprCtx tells expression emission how to resolve the context atoms.
type exprCtx struct {
	em       *emitter
	round    int
	slotForm bool // OpI resolves to me (only valid when PerThread == 1)
}

// indexExpr is the element index a statement targets: the loop variable,
// or the thread's own slot in slot form.
func (c exprCtx) indexExpr(em *emitter) ast.Expr {
	if c.slotForm {
		return ast.Id("me")
	}
	return ast.Id("i")
}

// expr renders e, coercing the result to want with an explicit cast when
// kinds differ (the corpus idiom: `(double)i * 0.5`).
func (em *emitter) expr(e *Expr, want ElemKind, ctx exprCtx) ast.Expr {
	return em.cast(em.exprRaw(e, ctx), e.K, want)
}

func (em *emitter) cast(x ast.Expr, have, want ElemKind) ast.Expr {
	if have == want {
		return x
	}
	return &ast.CastExpr{To: want.ctype(), X: &ast.ParenExpr{X: x}}
}

func (em *emitter) exprRaw(e *Expr, ctx exprCtx) ast.Expr {
	switch e.Op {
	case OpIntLit:
		return ast.Int(e.Val)
	case OpFloatLit:
		return ast.Float(e.FVal)
	case OpMe:
		return ast.Id("me")
	case OpI:
		if ctx.slotForm {
			return ast.Id("me")
		}
		return ast.Id("i")
	case OpRR:
		return ast.Id(rrName(ctx.round))
	case OpRead:
		if e.Via > 0 {
			pt := em.spec.Ptrs[e.Via-1]
			window := em.n - pt.Off
			idx := &ast.ParenExpr{X: ast.Bin(token.Percent,
				&ast.ParenExpr{X: em.expr(e.Idx, KInt, ctx)}, ast.Int(int64(window)))}
			return &ast.IndexExpr{X: ast.Id(ptrName(e.Via - 1)), Index: idx}
		}
		return &ast.IndexExpr{X: ast.Id(arrName(e.Arr)), Index: em.expr(e.Idx, KInt, ctx)}
	case OpAdd, OpSub, OpMul:
		ops := map[Op]token.Kind{OpAdd: token.Plus, OpSub: token.Minus, OpMul: token.Star}
		return &ast.ParenExpr{X: ast.Bin(ops[e.Op],
			em.expr(e.X, e.K, ctx), em.expr(e.Y, e.K, ctx))}
	case OpMod:
		return &ast.ParenExpr{X: ast.Bin(token.Percent,
			em.expr(e.X, KInt, ctx), em.expr(e.Y, KInt, ctx))}
	case OpModN:
		return &ast.ParenExpr{X: ast.Bin(token.Percent,
			em.expr(e.X, KInt, ctx), ast.Int(int64(em.n)))}
	default:
		return ast.Int(0)
	}
}

// addr is &name.
func addr(name string) ast.Expr {
	return &ast.UnaryExpr{Op: token.Amp, X: ast.Id(name)}
}
