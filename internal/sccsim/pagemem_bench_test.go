package sccsim

import (
	"bytes"
	"math/rand"
	"testing"
)

// mapPageMem is the original map-backed page store, kept here as the
// benchmark baseline so `go test -bench PageMem ./internal/sccsim`
// shows what removing the map hash from the access path buys.
type mapPageMem struct {
	pages map[uint32]*[pageSize]byte
}

func (p *mapPageMem) page(addr uint32) *[pageSize]byte {
	key := addr / pageSize
	pg, ok := p.pages[key]
	if !ok {
		pg = new([pageSize]byte)
		p.pages[key] = pg
	}
	return pg
}

func (p *mapPageMem) Read(addr uint32, buf []byte) {
	for len(buf) > 0 {
		pg := p.page(addr)
		off := addr % pageSize
		n := copy(buf, pg[off:])
		buf = buf[n:]
		addr += uint32(n)
	}
}

func (p *mapPageMem) Write(addr uint32, data []byte) {
	for len(data) > 0 {
		pg := p.page(addr)
		off := addr % pageSize
		n := copy(pg[off:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// accessPattern mimics the interpreter's traffic: a loop walking an
// array in one region (the heap) interleaved with stack-slot accesses
// high in the address space — two localities the last-page cache and
// radix table serve without hashing.
var accessPattern = func() []uint32 {
	addrs := make([]uint32, 0, 4096)
	const heap = PrivateBase + 0x2000
	const stack = PrivateLimit - 0x100
	for i := 0; i < 2048; i++ {
		addrs = append(addrs, heap+uint32(i%1024)*4, stack-uint32(i%16)*8)
	}
	return addrs
}()

func BenchmarkPageMemAccess(b *testing.B) {
	var buf [8]byte
	b.Run("radix", func(b *testing.B) {
		m := new(PageMem)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, a := range accessPattern {
				m.Write(a, buf[:4])
				m.Read(a, buf[:4])
			}
		}
	})
	b.Run("map-baseline", func(b *testing.B) {
		m := &mapPageMem{pages: make(map[uint32]*[pageSize]byte)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, a := range accessPattern {
				m.Write(a, buf[:4])
				m.Read(a, buf[:4])
			}
		}
	})
}

// TestPageMemSpanningAndZeroing covers the dense store against the
// behaviours the simulator relies on: zero-fill on first touch, reads
// and writes spanning page boundaries, and Touched accounting.
func TestPageMemSpanningAndZeroing(t *testing.T) {
	m := new(PageMem)
	var got [16]byte
	m.Read(pageSize-8, got[:])
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh pages must read zero")
		}
	}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	m.Write(pageSize-8, data) // spans pages 0 and 1
	m.Read(pageSize-8, got[:])
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("spanning write: byte %d = %d, want %d", i, got[i], data[i])
		}
	}
	if m.Touched() != 2 {
		t.Fatalf("Touched = %d, want 2", m.Touched())
	}
	// High stack addresses coexist with low heap pages.
	m.Write(PrivateLimit-4, []byte{0xaa, 0xbb, 0xcc, 0xdd})
	var hi [4]byte
	m.Read(PrivateLimit-4, hi[:])
	if hi != [4]byte{0xaa, 0xbb, 0xcc, 0xdd} {
		t.Fatalf("high write read back %x", hi)
	}
	if m.Touched() != 3 {
		t.Fatalf("Touched = %d, want 3", m.Touched())
	}
	m.Write(pageSize-8, make([]byte, 16))
	m.Read(pageSize-8, got[:])
	for _, b := range got {
		if b != 0 {
			t.Fatal("a spanning write of zeros must clear the range")
		}
	}
}

// refPageMem is the reference model for the differential test: a map
// of pages, one byte at a time.
type refPageMem map[uint32][]byte

func (r refPageMem) at(addr uint32) *byte {
	pg := r[addr/pageSize]
	if pg == nil {
		pg = make([]byte, pageSize)
		r[addr/pageSize] = pg
	}
	return &pg[addr%pageSize]
}

func (r refPageMem) read(addr uint32, buf []byte) {
	for i := range buf {
		buf[i] = *r.at(addr + uint32(i))
	}
}

func (r refPageMem) write(addr uint32, data []byte) {
	for i, b := range data {
		*r.at(addr + uint32(i)) = b
	}
}

// TestPageMemMatchesMapReference drives the radix PageMem and the map
// reference with the same seeded reads and writes — clustered round the
// edges of the address classes (first private page, the private/shared
// limits, the top of the space, where an access straddles pages, leaves
// and mid-level nodes at once), on pages whose numbers differ in one bit
// (which a wrong radix index would alias) and scattered round 256 bases drawn from all 32 bits — and
// requires identical bytes from every read and identical page counts.
// It does so twice on one PageMem: new, then released, when every page
// of the second run must come from the spare list the first run left.
func TestPageMemMatchesMapReference(t *testing.T) {
	pool := new(pagePool)
	pm := &PageMem{pool: pool}
	matchMapReference(t, "new", pm)
	pages := pm.Touched()
	pool.release()
	pm.reset()
	if len(pool.spare) != pages {
		t.Fatalf("release left %d spare pages, the run touched %d", len(pool.spare), pages)
	}
	matchMapReference(t, "released", pm)
	if len(pool.spare) != 0 {
		t.Errorf("the second run left %d of the %d spare pages unused", len(pool.spare), pages)
	}
}

// matchMapReference is one run of TestPageMemMatchesMapReference.
func matchMapReference(t *testing.T, label string, pm *PageMem) {
	t.Helper()
	edges := []uint32{
		PrivateBase,                           // 0x0000_1000: first private page
		PrivateLimit - 1,                      // 0x3FFF_FFFF: last private byte, end of a root slot
		SharedLimit - 1,                       // 0xBFFF_FFFF: last shared byte
		1 << (pageShift + leafBits),           // first leaf boundary
		1 << (pageShift + leafBits + midBits), // first mid boundary
		0xFFFF_FFFF,                           // wraps to page 0
	}
	rng := rand.New(rand.NewSource(7))
	scatter := make([]uint32, 256)
	for i := range scatter {
		scatter[i] = rng.Uint32()
	}
	ref := refPageMem{}
	got, want := make([]byte, 3*pageSize), make([]byte, 3*pageSize)
	for i := 0; i < 100_000; i++ {
		var addr uint32
		switch rng.Intn(4) {
		case 0: // straddle or abut an edge
			addr = edges[rng.Intn(len(edges))] + uint32(rng.Intn(64)) - 32
		case 1: // a few hot pages: the last-page cache's traffic
			addr = PrivateBase + uint32(rng.Intn(4*pageSize))
		case 2: // one page-number bit away from a hot page: radix index aliasing
			addr = PrivateBase ^ 1<<(pageShift+rng.Intn(20)) + uint32(rng.Intn(pageSize))
		default:
			addr = scatter[rng.Intn(len(scatter))] + uint32(rng.Intn(2*pageSize))
		}
		n := 1 + rng.Intn(16)
		if rng.Intn(50) == 0 {
			n = 1 + rng.Intn(3*pageSize)
		}
		if rng.Intn(2) == 0 {
			data := got[:n]
			rng.Read(data)
			pm.Write(addr, data)
			ref.write(addr, data)
			continue
		}
		pm.Read(addr, got[:n])
		ref.read(addr, want[:n])
		if !bytes.Equal(got[:n], want[:n]) {
			t.Fatalf("%s PageMem, op %d: read %d bytes at %#x differs from the reference", label, i, n, addr)
		}
	}
	if pm.Touched() != len(ref) {
		t.Fatalf("%s PageMem: Touched = %d, reference holds %d pages", label, pm.Touched(), len(ref))
	}
	for key, pg := range ref {
		pm.Read(key*pageSize, got[:pageSize])
		if !bytes.Equal(got[:pageSize], pg) {
			t.Fatalf("%s PageMem: page %#x differs from the reference after the run", label, key)
		}
	}
}
