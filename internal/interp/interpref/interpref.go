// Package interpref is the tree-walk reference of package interp: a
// Program whose contexts evaluate the checked AST directly, one
// goroutine per context, instead of running the lowered closures. It
// charges the same cycles in the same order and performs the same timed
// accesses as the compiled engine, so the engine-equivalence suites
// build the same source with interp.Compile and with Compile here and
// require byte-identical output, makespans and machine statistics.
//
// Only tests import this package (TestReferenceIsTestOnly in package
// interp enforces it).
package interpref

import (
	"runtime"
	"sync"
	"time"

	"hsmcc/internal/cc/ast"
	"hsmcc/internal/cc/parser"
	"hsmcc/internal/cc/sema"
	"hsmcc/internal/interp"
)

// Load lays out a checked file into a reference Program.
func Load(file *ast.File, info *sema.Info) (*interp.Program, error) {
	return interp.LoadWalked(file, info, &walker{runs: make(map[*interp.Sim]*run)})
}

// Compile parses, checks and loads C source into a reference Program.
func Compile(name, src string) (*interp.Program, error) {
	file, err := parser.Parse(name, src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Analyze(file)
	if err != nil {
		return nil, err
	}
	return Load(file, info)
}

// walker is a reference Program's interp.Walker. One Program may back
// concurrent Sims, so the walks are kept per Sim behind a lock; within
// a Sim exactly one goroutine runs at a time, handing control over
// through channels.
type walker struct {
	mu   sync.Mutex
	runs map[*interp.Sim]*run
}

// run is the walks of one Sim.
type run struct {
	// parked carries control back from a walk to the stepping loop.
	parked chan outcome
	// walks holds each context's walk by ID.
	walks []*walk
	// live counts the walks' goroutines until their last deferred call.
	live sync.WaitGroup
	// base is the host's goroutine count before the first walk started.
	base int
}

// outcome is what a walk hands the stepping loop: a suspension, or the
// entry function's result.
type outcome struct {
	done bool
	v    interp.Value
	err  error
}

// walk is one context's tree walk: the context itself, its activation
// records and stack pointer, and the channel that steps it.
type walk struct {
	*interp.Proc
	run    *run
	resume chan struct{}
	frames []*frame
	sp     uint32
	// done marks a walk that has handed back its result.
	done bool
}

// Spawn implements interp.Walker.
func (w *walker) Spawn(p *interp.Proc, fn *ast.FuncDecl, args []interp.Value) {
	w.mu.Lock()
	r := w.runs[p.Sim]
	if r == nil {
		r = &run{parked: make(chan outcome), base: runtime.NumGoroutine()}
		w.runs[p.Sim] = r
	}
	k := &walk{Proc: p, run: r, resume: make(chan struct{}), sp: p.StackTop()}
	r.walks = append(r.walks, k)
	w.mu.Unlock()
	r.live.Add(1)
	go k.top(fn, append([]interp.Value(nil), args...))
}

// walkOf finds p's walk.
func (w *walker) walkOf(p *interp.Proc) *walk {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.runs[p.Sim].walks[p.ID]
}

// Step implements interp.Walker.
func (w *walker) Step(p *interp.Proc) (bool, interp.Value, error) {
	k := w.walkOf(p)
	k.resume <- struct{}{}
	o := <-k.run.parked
	k.done = o.done
	return o.done, o.v, o.err
}

// Suspend implements interp.Walker.
func (w *walker) Suspend(p *interp.Proc) {
	k := w.walkOf(p)
	k.run.parked <- outcome{}
	k.acquire()
}

// Join implements interp.Walker: every walk that has not returned is
// parked in acquire, and closing its channel ends its goroutine there.
func (w *walker) Join(s *interp.Sim) {
	w.mu.Lock()
	r := w.runs[s]
	delete(w.runs, s)
	w.mu.Unlock()
	if r == nil {
		return
	}
	for _, k := range r.walks {
		if !k.done {
			close(k.resume)
		}
	}
	r.live.Wait()
	// The host still counts a goroutine for a moment after its last
	// deferred call returns, and Go offers no way to wait for that
	// moment, so Join lets the count fall back to where it stood before
	// the first walk. It sleeps rather than yields, so that an idle
	// processor takes over a goroutine preempted mid-exit, and gives up
	// after 10 ms, since the host's other goroutines can keep the count
	// higher.
	for end := time.Now().Add(10 * time.Millisecond); runtime.NumGoroutine() > r.base && time.Now().Before(end); {
		time.Sleep(10 * time.Microsecond)
	}
}

// top is a walk's goroutine body.
func (p *walk) top(fn *ast.FuncDecl, args []interp.Value) {
	defer p.run.live.Done()
	p.acquire()
	v, err := p.callTree(fn, args)
	p.run.parked <- outcome{done: true, v: v, err: err}
}

// acquire parks the walk's goroutine until the stepping loop steps it;
// a joined session ends the goroutine instead.
func (p *walk) acquire() {
	if _, ok := <-p.resume; !ok {
		runtime.Goexit()
	}
}
