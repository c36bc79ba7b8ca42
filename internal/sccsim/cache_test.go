package sccsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// tally counts a cache's outcomes from Access's return values; the cache
// itself keeps no counters (the machine's CoreStats carry them).
type tally struct {
	c                    Cache
	hits, misses, dirtyE int
}

func newTally(size, ways, lineBytes int) *tally {
	return &tally{c: NewCache(size, ways, lineBytes)}
}

func (t *tally) access(addr uint32, write bool) (hit, dirtyEvict bool) {
	hit, dirtyEvict = t.c.Access(addr, write)
	if hit {
		t.hits++
	} else {
		t.misses++
	}
	if dirtyEvict {
		t.dirtyE++
	}
	return hit, dirtyEvict
}

func TestCacheBasicHitMiss(t *testing.T) {
	c := newTally(1024, 2, 32)
	if hit, _ := c.access(0, false); hit {
		t.Fatal("cold access should miss")
	}
	if hit, _ := c.access(0, false); !hit {
		t.Fatal("second access should hit")
	}
	if hit, _ := c.access(16, false); !hit {
		t.Fatal("same-line access should hit")
	}
	if hit, _ := c.access(32, false); hit {
		t.Fatal("next line should miss")
	}
	if c.hits != 2 || c.misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", c.hits, c.misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 1 set of 2 lines: 64 B cache with 32 B lines.
	c := NewCache(64, 2, 32)
	c.Access(0, false)    // A
	c.Access(1024, false) // B
	c.Access(0, false)    // touch A: B becomes LRU
	c.Access(2048, false) // C evicts B
	if hit, _ := c.Access(0, false); !hit {
		t.Error("A should survive (recently used)")
	}
	if hit, _ := c.Access(2048, false); !hit {
		t.Error("C should be resident")
	}
	if hit, _ := c.Access(1024, false); hit {
		t.Error("B should have been evicted (LRU)")
	}
}

func TestCacheDirtyEviction(t *testing.T) {
	c := newTally(64, 2, 32)
	c.access(0, true) // dirty A
	c.access(1024, false)
	_, dirty := c.access(2048, false) // evicts dirty A
	if !dirty {
		t.Error("evicting a written line should report dirty")
	}
	if c.dirtyE != 1 {
		t.Errorf("dirty evictions = %d, want 1", c.dirtyE)
	}
}

func TestCacheFlush(t *testing.T) {
	c := NewCache(1024, 2, 32)
	c.Access(0, true)
	c.Access(64, true)
	c.Access(128, false)
	if dirty := c.Flush(); dirty != 2 {
		t.Errorf("Flush wrote back %d lines, want 2", dirty)
	}
	if dirty := c.Flush(); dirty != 0 {
		t.Errorf("second flush wrote back %d lines, want 0", dirty)
	}
	for _, addr := range []uint32{0, 128} {
		if hit, _ := c.Access(addr, false); hit {
			t.Errorf("flush must invalidate everything; %#x still hit", addr)
		}
	}
}

// TestCacheWorkingSetFits: a working set no larger than the cache incurs
// only cold misses under repeated sequential sweeps.
func TestCacheWorkingSetFits(t *testing.T) {
	c := newTally(8192, 2, 32)
	for pass := 0; pass < 4; pass++ {
		for addr := uint32(0); addr < 8192; addr += 32 {
			c.access(addr, false)
		}
	}
	if c.misses != 8192/32 {
		t.Errorf("misses = %d, want %d cold misses only", c.misses, 8192/32)
	}
}

// TestCacheStreamingThrashes: a working set much larger than the cache
// misses on (almost) every line under LRU.
func TestCacheStreamingThrashes(t *testing.T) {
	c := newTally(8192, 2, 32)
	span := uint32(4 * 8192)
	for pass := 0; pass < 2; pass++ {
		for addr := uint32(0); addr < span; addr += 32 {
			c.access(addr, false)
		}
	}
	if c.hits != 0 {
		t.Errorf("streaming 4x the cache size hit %d times, want 0", c.hits)
	}
}

// TestCacheInvariants: property test — a just-accessed line is resident
// (the immediate re-access hits and evicts nothing).
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(1024, 2, 32)
		for i := 0; i < int(n%2000); i++ {
			addr := uint32(rng.Intn(1 << 16))
			c.Access(addr, rng.Intn(2) == 0)
			if hit, dirty := c.Access(addr, false); !hit || dirty {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refCache is the reference model for the differential test: every set
// resident in one flat ways-major array from construction, explicit
// valid bits, and the textbook victim rule (first invalid way, else the
// least recently used).
type refCache struct {
	lines    []refLine
	ways     int
	lineBits uint
	nsets    uint32
	tick     uint64
}

type refLine struct {
	valid, dirty bool
	tag          uint32
	used         uint64
}

func newRefCache(size, ways, lineBytes int) *refCache {
	nsets := size / lineBytes / ways
	if nsets < 1 {
		nsets = 1
	}
	return &refCache{
		lines:    make([]refLine, nsets*ways),
		ways:     ways,
		lineBits: log2(lineBytes),
		nsets:    uint32(nsets),
	}
}

// access returns the outcome and the way that now holds the line.
func (r *refCache) access(addr uint32, write bool) (hit, dirtyEvict bool, way int) {
	r.tick++
	tag := addr >> r.lineBits
	set := r.lines[int(tag%r.nsets)*r.ways:][:r.ways]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = r.tick
			set[i].dirty = set[i].dirty || write
			return true, false, i
		}
	}
	way = -1
	for i := range set {
		if !set[i].valid {
			way = i
			break
		}
	}
	if way < 0 {
		way = 0
		for i := range set {
			if set[i].used < set[way].used {
				way = i
			}
		}
		dirtyEvict = set[way].dirty
	}
	set[way] = refLine{valid: true, dirty: write, tag: tag, used: r.tick}
	return false, dirtyEvict, way
}

func (r *refCache) flush() (dirty int) {
	for i := range r.lines {
		if r.lines[i].valid && r.lines[i].dirty {
			dirty++
		}
		r.lines[i] = refLine{}
	}
	return dirty
}

// wayOf returns the way of c holding addr's line, or -1.
func wayOf(c *Cache, addr uint32) int {
	tag := addr>>c.lineBits + 1
	idx := (tag - 1) & c.setMask
	if int(idx>>blockShift) >= len(c.blocks) || c.blocks[idx>>blockShift] == nil {
		return -1
	}
	set := c.blocks[idx>>blockShift][int(idx&(blockSets-1))*c.ways:][:c.ways]
	for i := range set {
		if set[i].tag == tag {
			return i
		}
	}
	return -1
}

// TestCacheMatchesFlatReference drives the block-lazy Cache and the
// flat reference with the same seeded access stream — strided sweeps,
// hot-set reuse and random scatter over a few times the capacity, with
// occasional flushes — and requires the same (hit, dirtyEvict) on every
// access, the line placed in the same way (so the same victim was
// chosen), and the same dirty count from every Flush.
func TestCacheMatchesFlatReference(t *testing.T) {
	cfg := DefaultConfig()
	geoms := []struct {
		name                  string
		size, ways, lineBytes int
		accesses, flushOneInN int
	}{
		{"L1", cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes, 120_000, 4000},
		{"L2", cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes, 120_000, 30_000},
		{"one-set", 64, 2, 32, 20_000, 500},
		{"direct-mapped", 4096, 1, 16, 40_000, 3000},
		{"8-way", 16384, 8, 64, 40_000, 3000},
	}
	for gi, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + gi)))
			c := NewCache(g.size, g.ways, g.lineBytes)
			ref := newRefCache(g.size, g.ways, g.lineBytes)
			span := uint32(4 * g.size)
			cursor := uint32(0)
			for i := 0; i < g.accesses; i++ {
				var addr uint32
				switch rng.Intn(4) {
				case 0: // streaming sweep
					cursor = (cursor + uint32(g.lineBytes)) % span
					addr = cursor
				case 1: // hot set: a few lines, mostly hits
					addr = uint32(rng.Intn(8) * g.lineBytes)
				case 2: // conflict-heavy: same set, many tags
					addr = uint32(rng.Intn(3*g.ways)) * uint32(g.size/g.ways)
				default:
					addr = uint32(rng.Intn(int(span)))
				}
				write := rng.Intn(3) == 0
				hit, dirty := c.Access(addr, write)
				rhit, rdirty, rway := ref.access(addr, write)
				if hit != rhit || dirty != rdirty {
					t.Fatalf("access %d (%#x write=%v): got (hit=%v dirty=%v), reference (hit=%v dirty=%v)",
						i, addr, write, hit, dirty, rhit, rdirty)
				}
				if way := wayOf(&c, addr); way != rway {
					t.Fatalf("access %d (%#x): line in way %d, reference way %d", i, addr, way, rway)
				}
				if rng.Intn(g.flushOneInN) == 0 {
					if d, rd := c.Flush(), ref.flush(); d != rd {
						t.Fatalf("flush after access %d: %d dirty lines, reference %d", i, d, rd)
					}
					// The line just used is the one the MRU shortcut
					// remembers: flushed, it must miss like any other.
					hit, dirty := c.Access(addr, false)
					rhit, rdirty, _ := ref.access(addr, false)
					if hit != rhit || dirty != rdirty {
						t.Fatalf("re-access of %#x after the flush: got (hit=%v dirty=%v), reference (hit=%v dirty=%v)",
							addr, hit, dirty, rhit, rdirty)
					}
				}
			}
		})
	}
}

// TestCacheBlocksMaterialiseOnTouch: a cache owns nothing before its
// first access, and afterwards exactly the blocks its accesses mapped
// to — one line touches one block of an L2 that has 128.
func TestCacheBlocksMaterialiseOnTouch(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
	if c.blocks != nil {
		t.Fatal("a fresh cache must own no block table")
	}
	materialised := func() (n int) {
		for _, b := range c.blocks {
			if b != nil {
				n++
			}
		}
		return n
	}
	c.Access(PrivateBase, false)
	if got := materialised(); got != 1 {
		t.Fatalf("one access materialised %d blocks, want 1", got)
	}
	// The rest of the block's sets are consecutive lines.
	for i := 1; i < blockSets; i++ {
		c.Access(PrivateBase+uint32(i*cfg.LineBytes), false)
	}
	if got := materialised(); got != 1 {
		t.Fatalf("16 consecutive lines materialised %d blocks, want 1", got)
	}
	c.Access(PrivateBase+uint32(blockSets*cfg.LineBytes), false)
	if got, want := materialised(), 2; got != want {
		t.Fatalf("the 17th line materialised %d blocks, want %d", got, want)
	}
	if want := cfg.L2Bytes / cfg.LineBytes / cfg.L2Ways / blockSets; len(c.blocks) != want {
		t.Fatalf("block table has %d entries, want %d", len(c.blocks), want)
	}
}
