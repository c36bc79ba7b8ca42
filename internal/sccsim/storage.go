package sccsim

import "hsmcc/internal/park"

// storage is the part of a machine that grows with what its runs touch:
// the per-core slab (caches, private memory, counters), shared memory,
// the MPB and the page pool the PageMems draw from. Building it is
// most of what a wide run allocates, and it is garbage the moment the
// run's results are read, so Release parks it for the next New of the
// same shape instead.
//
// While a machine uses a storage, the machine holds cores and shared
// (the access path reads them from Machine), and storage keeps the page
// pool and whatever MPB array the run has not yet claimed (mpbSpan
// claims it on first touch). Release moves everything back, emptied.
type storage struct {
	shape  storageShape
	cores  []coreState
	shared PageMem
	mpb    []byte
	pages  pagePool
}

// storageShape is what storage depends on in a Config: the core count
// sizes the slab, and the cache geometry the block tables. Everything
// else New derives afresh.
type storageShape struct {
	cores, lineBytes                 int
	l1Bytes, l1Ways, l2Bytes, l2Ways int
}

func shapeOf(cfg *Config) storageShape {
	return storageShape{
		cores:     cfg.Cores,
		lineBytes: cfg.LineBytes,
		l1Bytes:   cfg.L1Bytes,
		l1Ways:    cfg.L1Ways,
		l2Bytes:   cfg.L2Bytes,
		l2Ways:    cfg.L2Ways,
	}
}

// parked holds released storage by shape. A lot never misses while the
// demand for a shape holds, and sheds what two GC cycles did not need,
// so a shape no longer in use costs nothing for long (package park).
var parked park.Lots[storageShape, *storage]

// takeStorage returns parked storage of cfg's shape, or builds empty
// storage when none is parked. Either way no page, page table, cache
// block or MPB byte exists that the run has not touched or that an
// earlier run did not leave zeroed.
func takeStorage(cfg *Config) *storage {
	if st, ok := parked.Take(shapeOf(cfg)); ok {
		return st
	}
	return newStorage(cfg)
}

// newStorage builds empty storage of cfg's shape.
func newStorage(cfg *Config) *storage {
	st := &storage{shape: shapeOf(cfg), cores: make([]coreState, cfg.Cores)}
	l1 := NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes)
	l2 := NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
	for i := range st.cores {
		cs := &st.cores[i]
		cs.l1, cs.l2 = l1, l2
		cs.priv.pool = &st.pages
	}
	st.shared.pool = &st.pages
	return st
}

// Release empties m's storage and parks it for the next New of the same
// shape. Every materialised page and cache block is zeroed onto a spare
// list that later first touches draw from before allocating; page tables
// and cache block tables stay where they are, and each cache's LRU clock
// and MRU line are reset; the MPB is cleared. Nothing else survives:
// New builds the machine's timing, mesh maps, controllers, registers,
// counters and clocks afresh whichever storage it gets.
//
// Call Release once the run's results have been read. The released
// machine keeps no storage, so touching it panics instead of corrupting
// the run that reuses its storage. Releasing it again does nothing.
func (m *Machine) Release() {
	if st := m.empty(); st != nil {
		parked.Put(st.shape, st)
	}
}

// empty takes m's storage from it, emptied as Release describes, or
// returns nil when m has none.
func (m *Machine) empty() *storage {
	st := m.store
	if st == nil {
		return nil
	}
	st.pages.release()
	for i := range m.cores {
		cs := &m.cores[i]
		cs.priv.reset()
		cs.l1.reset()
		cs.l2.reset()
	}
	m.shared.reset()
	if m.mpb != nil {
		clear(m.mpb[:cap(m.mpb)])
		st.mpb = m.mpb[:0]
	}
	st.cores, st.shared = m.cores, m.shared
	m.cores, m.shared, m.mpb, m.store = nil, PageMem{}, nil, nil
	return st
}
