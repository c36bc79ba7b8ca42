package conformance

import (
	"encoding/json"
)

// maxShrinkEvals bounds how many candidate kernels one shrink may
// execute; each evaluation re-runs both backends at the failing cell.
const maxShrinkEvals = 400

// Shrink reduces a failing kernel to a minimal reproducer at the
// originally-failing matrix cell: it keeps any one-step reduction that
// still fails there. A spec sheds structure (rounds, statements,
// arrays, loops, subexpressions) and stays well-typed and race-free by
// construction; a synthetic vector moves toward the trivial corner of
// its parameter space.
func (e *Engine) Shrink(k Kernel, div *Divergence) Kernel {
	return shrink(k, func(c Kernel) bool {
		return e.CheckCell(c, div.Cores, div.Policy, div.Budget, div.Oversub) != nil
	})
}

// shrink is greedy first-improvement descent to a fixpoint — the
// classic delta-debugging loop: take the first strictly smaller
// reduction for which fails holds and start over from it, at most
// maxShrinkEvals evaluations in all.
func shrink(k Kernel, fails func(Kernel) bool) Kernel {
	evals := 0
descend:
	for {
		for _, cand := range k.reductions() {
			if cand.size() >= k.size() {
				continue
			}
			if evals == maxShrinkEvals {
				return k
			}
			evals++
			if fails(cand) {
				k = cand
				continue descend
			}
		}
		return k
	}
}

// cloneSpec deep-copies via JSON: Spec is fully exported and acyclic.
func cloneSpec(s *Spec) *Spec {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // Spec is always marshallable
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return &out
}

// size is the node count the shrinker minimises.
func (s *Spec) size() int {
	n := len(s.Arrays) + s.PerThread + 2*len(s.Ptrs)
	if s.Mutex {
		n += 2
	}
	for _, r := range s.Rounds {
		n += 2
		if r.Serial > 1 {
			n += 2
		}
		if r.Print {
			n++
		}
		if !r.Slot {
			n++ // the loop scaffolding itself
		}
		if r.Solo != nil {
			n += 2 + exprSize(r.Solo.RHS)
		}
		n += exprSize(r.Crit)
		for _, st := range r.Loop {
			n += 1 + exprSize(st.RHS) + exprSize(st.Guard)
			if st.AddTo {
				n++
			}
			if st.Ptr > 0 {
				n++
			}
		}
	}
	return n
}

func exprSize(e *Expr) int {
	if e == nil {
		return 0
	}
	return 1 + exprSize(e.X) + exprSize(e.Y) + exprSize(e.Idx)
}

func (s *Spec) label() (int64, string) { return s.Seed, "" }

// reductions enumerates one-step-smaller candidate specs. Order matters
// for the greedy loop: the cheap per-round feature drops (print, crit,
// serial wrapper) come first so that when a fault is observable through
// several program features at once, shrinking strips the expensive
// scaffolding (mutex, serial loop) before structural drops can commit
// the spec to a local minimum that needs it.
func (s *Spec) reductions() []Kernel {
	var out []Kernel
	add := func(f func(*Spec)) {
		c := cloneSpec(s)
		f(c)
		out = append(out, c)
	}

	// Feature drops first.
	for i := range s.Rounds {
		i := i
		r := &s.Rounds[i]
		if r.Print {
			add(func(c *Spec) { c.Rounds[i].Print = false })
		}
		if r.Solo != nil {
			add(func(c *Spec) { c.Rounds[i].Solo = nil })
		}
		if r.Crit != nil {
			add(func(c *Spec) {
				c.Rounds[i].Crit = nil
				if !c.anyCrit() {
					c.Mutex = false
				}
			})
		}
		if r.Serial > 1 {
			add(func(c *Spec) {
				c.Rounds[i].Serial = 0
				c.Rounds[i].mapExprs(func(e *Expr) {
					if e.Op == OpRR {
						*e = Expr{Op: OpIntLit, K: KInt}
					}
				})
			})
		}
	}
	// Drop whole rounds (keep at least one).
	if len(s.Rounds) > 1 {
		for i := range s.Rounds {
			i := i
			add(func(c *Spec) { c.Rounds = append(c.Rounds[:i], c.Rounds[i+1:]...) })
		}
	}
	// Drop shared pointers: aliased reads become direct cross-slice
	// reads of the pointee (index re-wrapped mod N), aliased writes
	// become direct writes. Also try demoting each pointer-routed write
	// to a direct one without dropping the pointer.
	for j := range s.Ptrs {
		j := j
		add(func(c *Spec) { c.dropPtr(j) })
	}
	for i := range s.Rounds {
		i := i
		for j := range s.Rounds[i].Loop {
			j := j
			if s.Rounds[i].Loop[j].Ptr > 0 {
				add(func(c *Spec) { c.Rounds[i].Loop[j].Ptr = 0 })
			}
		}
	}
	// Drop arrays: statements targeting the array go with it, reads of
	// it become zero literals, and later arrays shift down one id.
	if len(s.Arrays) > 1 {
		for a := range s.Arrays {
			a := a
			add(func(c *Spec) { c.dropArray(a) })
		}
	}
	// Shrink the slice width.
	if s.PerThread > 1 {
		add(func(c *Spec) { c.PerThread = 1 })
	}
	// Per-round structural reductions.
	for i := range s.Rounds {
		i := i
		r := &s.Rounds[i]
		if len(r.Loop) > 1 {
			for j := range r.Loop {
				j := j
				add(func(c *Spec) {
					c.Rounds[i].Loop = append(c.Rounds[i].Loop[:j], c.Rounds[i].Loop[j+1:]...)
				})
			}
		}
		// Loop -> direct slot write (valid once PerThread == 1; OpI then
		// means exactly "me").
		if !r.Slot && s.PerThread == 1 {
			add(func(c *Spec) { c.Rounds[i].Slot = true })
		}
		for j := range r.Loop {
			j := j
			st := &r.Loop[j]
			if st.Guard != nil {
				add(func(c *Spec) { c.Rounds[i].Loop[j].Guard = nil })
			}
			if st.AddTo {
				add(func(c *Spec) { c.Rounds[i].Loop[j].AddTo = false })
			}
			for _, sub := range subExprs(st.RHS) {
				sub := sub
				add(func(c *Spec) { c.Rounds[i].Loop[j].RHS = sub })
			}
		}
		if r.Solo != nil {
			for _, sub := range subExprs(r.Solo.RHS) {
				sub := sub
				add(func(c *Spec) { c.Rounds[i].Solo.RHS = sub })
			}
		}
		for _, sub := range subExprs(r.Crit) {
			sub := sub
			add(func(c *Spec) { c.Rounds[i].Crit = sub })
		}
	}
	return out
}

// subExprs returns strictly smaller replacement candidates for e: its
// direct children plus the unit literal.
func subExprs(e *Expr) []*Expr {
	if e == nil {
		return nil
	}
	var out []*Expr
	for _, c := range []*Expr{e.X, e.Y, e.Idx} {
		if c != nil {
			out = append(out, cloneExpr(c))
		}
	}
	if exprSize(e) > 1 {
		out = append(out, &Expr{Op: OpIntLit, K: KInt, Val: 1})
	}
	return out
}

func cloneExpr(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.X = cloneExpr(e.X)
	c.Y = cloneExpr(e.Y)
	c.Idx = cloneExpr(e.Idx)
	return &c
}

// dropPtr removes pointer j: writes through it become direct writes,
// aliased reads become direct mod-N cross-slice reads of the pointee,
// and later pointers shift down one id.
func (s *Spec) dropPtr(j int) {
	s.Ptrs = append(s.Ptrs[:j], s.Ptrs[j+1:]...)
	for i := range s.Rounds {
		r := &s.Rounds[i]
		for k := range r.Loop {
			if r.Loop[k].Ptr == j+1 {
				r.Loop[k].Ptr = 0
			} else if r.Loop[k].Ptr > j+1 {
				r.Loop[k].Ptr--
			}
		}
		r.mapExprs(func(e *Expr) {
			if e.Op != OpRead || e.Via == 0 {
				return
			}
			if e.Via == j+1 {
				e.Via = 0
				e.Idx = &Expr{Op: OpModN, K: KInt, X: e.Idx}
			} else if e.Via > j+1 {
				e.Via--
			}
		})
	}
}

// dropArray removes array a, retargets the program away from it.
func (s *Spec) dropArray(a int) {
	// Pointers into the array go first (their uses become direct forms).
	for j := 0; j < len(s.Ptrs); {
		if s.Ptrs[j].Arr == a {
			s.dropPtr(j)
		} else {
			j++
		}
	}
	for j := range s.Ptrs {
		if s.Ptrs[j].Arr > a {
			s.Ptrs[j].Arr--
		}
	}
	s.Arrays = append(s.Arrays[:a], s.Arrays[a+1:]...)
	for i := range s.Rounds {
		r := &s.Rounds[i]
		var kept []Stmt
		for _, st := range r.Loop {
			if st.Arr == a {
				continue
			}
			if st.Arr > a {
				st.Arr--
			}
			kept = append(kept, st)
		}
		r.Loop = kept
		if r.Solo != nil {
			if r.Solo.Arr == a {
				r.Solo = nil
			} else if r.Solo.Arr > a {
				r.Solo.Arr--
			}
		}
		r.mapExprs(func(e *Expr) {
			if e.Op != OpRead {
				return
			}
			if e.Arr == a {
				k := e.K
				*e = Expr{Op: OpIntLit, K: KInt}
				if k == KDouble {
					*e = Expr{Op: OpFloatLit, K: KDouble}
				}
			} else if e.Arr > a {
				e.Arr--
			}
		})
		// The per-thread print probes array 0; keep it only while one
		// array remains (it always does — Arrays is never emptied).
	}
}

func (s *Spec) anyCrit() bool {
	for _, r := range s.Rounds {
		if r.Crit != nil {
			return true
		}
	}
	return false
}

// mapExprs applies f to every expression node of the round, bottom-up.
func (r *Round) mapExprs(f func(*Expr)) {
	var walk func(*Expr)
	walk = func(e *Expr) {
		if e == nil {
			return
		}
		walk(e.X)
		walk(e.Y)
		walk(e.Idx)
		f(e)
	}
	for i := range r.Loop {
		walk(r.Loop[i].RHS)
		walk(r.Loop[i].Guard)
	}
	if r.Solo != nil {
		walk(r.Solo.RHS)
	}
	walk(r.Crit)
}
