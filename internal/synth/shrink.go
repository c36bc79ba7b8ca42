package synth

// Complexity is the measure parameter-vector shrinking minimises: a
// monotone size of the vector, chosen so every Reductions candidate is
// strictly smaller and greedy shrinking terminates.
func (p Params) Complexity() int {
	n := p.Ops + p.Rounds + p.Sharing + p.SharedAddrs + p.PrivateAddrs
	if p.MemFrac > 0 {
		n++
	}
	if p.SharedFrac > 0 {
		n++
	}
	if p.LoadFrac < 1 {
		n++
	}
	if p.Double {
		n++
	}
	return n
}

// Reductions enumerates one-step-simpler candidate vectors, all valid.
// This is the synth analogue of the conformance spec shrinker's
// reductions: instead of dropping AST pieces it moves the vector toward
// the trivial corner of the parameter space — fewer ops and rounds,
// smaller footprints, degree-1 sharing, a loads-only all-private mix,
// int elements — while the failing cell keeps reproducing.
func Reductions(p Params) []Params {
	var out []Params
	add := func(f func(*Params)) {
		c := p
		f(&c)
		if c.Validate() == nil && c.Complexity() < p.Complexity() {
			out = append(out, c)
		}
	}
	// Cheap semantic simplifications first: a divergence observable
	// without shared traffic (or without stores, or on ints) should shed
	// that machinery before the structural halving commits to it.
	add(func(c *Params) { c.SharedFrac = 0 })
	add(func(c *Params) { c.MemFrac = 0 })
	add(func(c *Params) { c.LoadFrac = 1 })
	add(func(c *Params) { c.Double = false })
	add(func(c *Params) { c.Rounds-- })
	add(func(c *Params) { c.Sharing = 1 })
	add(func(c *Params) { c.Sharing /= 2 })
	add(func(c *Params) { c.Ops /= 2 })
	add(func(c *Params) { c.Ops = MinOps })
	add(func(c *Params) { c.SharedAddrs /= 2 })
	add(func(c *Params) { c.SharedAddrs = 1 })
	add(func(c *Params) { c.PrivateAddrs /= 2 })
	add(func(c *Params) { c.PrivateAddrs = 1 })
	return out
}
