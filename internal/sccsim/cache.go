package sccsim

// Cache is a set-associative, write-back, write-allocate cache model with
// LRU replacement. It tracks tags only — data lives in the machine's
// backing stores — which is sufficient because the SCC's caches are
// non-coherent and private: a cached line can never be stale with respect
// to another core's writes (shared pages are uncacheable), so hit/miss
// behaviour is independent of contents.
//
// Tags are first-touch: the sets are grouped into blocks of blockSets
// consecutive sets (ways-major inside a block: set s of a block occupies
// lines[s*ways : (s+1)*ways]), a block materialises when an access first
// maps to it, and the block table itself on the cache's first access. A
// machine holds an L1+L2 pair per core and a short run touches a few
// dozen sets of a few cores, so a cache costs host memory in proportion
// to the sets the run reaches, not to its modelled capacity (a whole
// 256 KB L2 is 128 KiB of tags). The zero Cache is not usable; build
// one with NewCache.
//
// Access resolves hit and LRU victim in a single pass over the set —
// this sits directly on the simulator's per-access hot path, so it is
// kept branch-lean and allocation-free once a block exists.
type Cache struct {
	blocks   [][]cacheLine
	ways     int
	lineBits uint
	setMask  uint32
	tick     uint64
	// mru is the line the last access used. The interpreter's traffic
	// returns to one stack line again and again, and a repeat leaves
	// nothing to do — the line already is the most recent of its set —
	// so testing its tag first spares most hits the tick and the set
	// scan. Flush empties the line it points at along with all others.
	mru *cacheLine
	// spare holds the cleared blocks reset unlinked, for materialize to
	// take before allocating.
	spare [][]cacheLine
}

// blockSets is the materialisation granule in sets: 16 sets of a 4-way
// cache are 1 KiB of tags, small enough that a core touching one line
// pays about a page for its caches and large enough that a streaming
// loop (consecutive lines map to consecutive sets) allocates once per
// 16 lines.
const (
	blockShift = 4
	blockSets  = 1 << blockShift
)

// cacheLine packs to 16 bytes (used, tag, dirty bit) so a set scan
// stays within one or two host cache lines. tag is the line address
// plus one, so that the zero cacheLine is an empty way: fresh blocks
// need no initialisation, and the hit scan tests the tag alone, with
// no validity load (addr>>lineBits+1 cannot wrap: Config.Validate
// requires a line size of at least two bytes).
type cacheLine struct {
	used  uint64
	tag   uint32
	dirty bool
}

// NewCache builds a cache of the given geometry. size and lineBytes must
// be powers-of-two multiples. It allocates nothing; see Cache.
func NewCache(size, ways, lineBytes int) Cache {
	nsets := size / lineBytes / ways
	if nsets < 1 {
		nsets = 1
	}
	return Cache{
		ways:     ways,
		lineBits: log2(lineBytes),
		setMask:  uint32(nsets - 1),
	}
}

func log2(v int) uint {
	var b uint
	for v > 1 {
		v >>= 1
		b++
	}
	return b
}

// Access looks up the line containing addr, allocating it on a miss.
// It returns whether the access hit and whether the allocation evicted a
// dirty line (which costs a write-back).
//
// Hits dominate every workload this model serves (the corpus runs >90%
// L1 hit rates), so the hit scan is a pure tag compare — empty ways hold
// tag 0, which no access can equal, and the dirty byte is never loaded.
// Only a miss pays the second scan for the LRU victim;
// invalid ways carry used==0 while valid ways carry used>=1, so the
// minimum-used way is exactly the first invalid way when one exists and
// the LRU way otherwise — the same choice the original scan made.
func (c *Cache) Access(addr uint32, write bool) (hit, dirtyEvict bool) {
	lineAddr := addr >> c.lineBits
	tag := lineAddr + 1
	if ln := c.mru; ln != nil && ln.tag == tag {
		if write {
			ln.dirty = true
		}
		return true, false
	}
	c.tick++
	idx := lineAddr & c.setMask
	// One length test covers both first-touch cases (no table yet, no
	// block yet) and stands in for the index bounds check.
	b := int(idx >> blockShift)
	var blk []cacheLine
	if b < len(c.blocks) {
		blk = c.blocks[b]
	}
	if blk == nil {
		blk = c.materialize(b)
	}
	base := int(idx&(blockSets-1)) * c.ways
	set := blk[base : base+c.ways]
	for i := range set {
		if set[i].tag == tag {
			ln := &set[i]
			ln.used = c.tick
			if write {
				ln.dirty = true
			}
			c.mru = ln
			return true, false
		}
	}
	victim := 0
	minUsed := ^uint64(0)
	for i := range set {
		if set[i].used < minUsed {
			minUsed = set[i].used
			victim = i
		}
	}
	v := &set[victim]
	dirtyEvict = v.dirty // never set on an empty way
	*v = cacheLine{tag: tag, dirty: write, used: c.tick}
	c.mru = v
	return false, dirtyEvict
}

// materialize links one block of (empty) sets, a spare one when there is
// one, and allocates the block table before the first of them.
func (c *Cache) materialize(block int) []cacheLine {
	if c.blocks == nil {
		c.blocks = make([][]cacheLine, c.setMask>>blockShift+1)
	}
	var blk []cacheLine
	if n := len(c.spare); n > 0 {
		blk = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		blk = make([]cacheLine, blockSets*c.ways)
	}
	c.blocks[block] = blk
	return blk
}

// reset empties the cache for another run: every line invalid, the LRU
// clock at zero and no MRU line. Each linked block is cleared onto the
// spare list and unlinked, so the blocks linked at the next reset are
// the ones that run touched; the table stays. A cache with its clock at
// zero has linked no block since it was last reset.
func (c *Cache) reset() {
	if c.tick == 0 {
		return
	}
	for i, blk := range c.blocks {
		if blk != nil {
			clear(blk)
			c.spare = append(c.spare, blk)
			c.blocks[i] = nil
		}
	}
	c.tick, c.mru = 0, nil
}

// Flush invalidates every line, returning how many dirty lines were
// written back. The pthread baseline uses this to model the cache
// pollution of a context switch. Materialised blocks are kept: the
// flushed core is about to run the next context through the same sets.
func (c *Cache) Flush() (dirty int) {
	for _, blk := range c.blocks {
		for i := range blk {
			if blk[i].dirty {
				dirty++
			}
		}
		clear(blk)
	}
	return dirty
}
