package sccsim

// pageSize is the granularity of the sparse backing store. 4 KB matches
// the SCC page tables, though the value only affects allocation locality.
const pageSize = 4096

const (
	pageShift = 12 // log2(pageSize)
	pageMask  = pageSize - 1
	// The 32-bit physical space holds 2^20 pages; a three-level radix
	// (64 x 128 x 128) resolves any of them with three array indexes —
	// no map hash on the access path — and costs 0.5 + 1 + 1 KiB of
	// tables for the first page of a region: a program's heap low and
	// its stack high in the range are two regions.
	leafBits = 7
	midBits  = 7
	rootBits = 20 - midBits - leafBits
)

type (
	page     = [pageSize]byte
	pageLeaf [1 << leafBits]*page
	pageMid  [1 << midBits]*pageLeaf
	pageRoot [1 << rootBits]*pageMid
)

// PageMem is a sparse byte-addressable memory: pages materialise zeroed on
// first touch, so stacks high in the address space and heaps low coexist
// without reserving the range between them. The zero PageMem is empty
// and ready to use, and owns no heap object until its first access.
//
// The access path is allocation- and hash-free: a two-entry page cache
// catches the loop locality of the interpreter's contiguous low/heap and
// high/stack ranges (which alternate per statement), and misses fall
// through to a three-level radix table whose nodes materialise with the
// first page under them. BenchmarkPageMemAccess pins the difference to
// a map.
type PageMem struct {
	// Two-entry page cache: interpreter traffic alternates between a data
	// page (array/heap) and the stack page of the current frame, so one
	// entry per stream catches both. A hit writes nothing and page stays
	// small enough to inline into the word path; a tag is the page's last
	// address, which is never zero, so the zero entry is empty; a miss
	// installs the page in entry 0 and moves entry 0 to entry 1.
	tag0, tag1 uint32
	pg0, pg1   *page
	root       *pageRoot
	touched    int
}

func (p *PageMem) page(addr uint32) *page {
	switch addr | pageMask {
	case p.tag0:
		return p.pg0
	case p.tag1:
		return p.pg1
	}
	return p.pageSlow(addr)
}

func (p *PageMem) pageSlow(addr uint32) *page {
	key := addr >> pageShift
	if p.root == nil {
		p.root = new(pageRoot)
	}
	ri, mi, li := key>>(midBits+leafBits), key>>leafBits&(1<<midBits-1), key&(1<<leafBits-1)
	mid := p.root[ri]
	if mid == nil {
		mid = new(pageMid)
		p.root[ri] = mid
	}
	leaf := mid[mi]
	if leaf == nil {
		leaf = new(pageLeaf)
		mid[mi] = leaf
	}
	pg := leaf[li]
	if pg == nil {
		pg = new(page)
		leaf[li] = pg
		p.touched++
	}
	p.tag1, p.pg1 = p.tag0, p.pg0
	p.tag0, p.pg0 = addr|pageMask, pg
	return pg
}

// Read copies len(buf) bytes starting at addr into buf. The interpreter
// issues word-sized accesses that almost never straddle a page, so the
// single-page case is handled without the span loop.
func (p *PageMem) Read(addr uint32, buf []byte) {
	off := addr & pageMask
	if int(off)+len(buf) <= pageSize {
		copy(buf, p.page(addr)[off:])
		return
	}
	for len(buf) > 0 {
		pg := p.page(addr)
		off := addr & pageMask
		n := copy(buf, pg[off:])
		buf = buf[n:]
		addr += uint32(n)
	}
}

// Write copies data into memory starting at addr.
func (p *PageMem) Write(addr uint32, data []byte) {
	off := addr & pageMask
	if int(off)+len(data) <= pageSize {
		copy(p.page(addr)[off:], data)
		return
	}
	for len(data) > 0 {
		pg := p.page(addr)
		off := addr & pageMask
		n := copy(pg[off:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// Touched returns the number of materialised pages (test/diagnostic aid).
func (p *PageMem) Touched() int { return p.touched }
