package sccsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// wordAccess is one access of the equivalence stream.
type wordAccess struct {
	core  int
	addr  uint32
	size  int
	write bool
	v     uint64
}

// wordStream draws n accesses over every address class the word path
// distinguishes, from a handful of cores so that controller queues and
// remote MPB slices are shared: private and shared pages (a small hot
// window, so L1 and L2 hit, and a wide one, so they miss), each core's
// own MPB slice, a far slice, a striped range, words straddling a page
// boundary (0x…FFE and 0x…FFF) and the last word of the MPB.
func wordStream(cfg Config, seed int64, n int) []wordAccess {
	rng := rand.New(rand.NewSource(seed))
	cores := []int{0, 1, cfg.Cores / 2, cfg.Cores - 1}
	stride := uint32(cfg.MPBStride())
	mpbEnd := MPBBase + uint32(cfg.MPBTotal())
	striped := MPBBase + 2*stride // MapMPB'd by the caller
	sizes := []int{1, 2, 4, 8}
	out := make([]wordAccess, n)
	for i := range out {
		a := wordAccess{
			core:  cores[rng.Intn(len(cores))],
			size:  sizes[rng.Intn(len(sizes))],
			write: rng.Intn(3) == 0,
			v:     rng.Uint64(),
		}
		word := func(window uint32) uint32 { return uint32(rng.Intn(int(window/8))) * 8 }
		switch rng.Intn(10) {
		case 0, 1: // private, hot
			a.addr = PrivateBase + word(uint32(cfg.L1Bytes/2))
		case 2: // private, wide: L1 and L2 miss, stack-high pages too
			a.addr = PrivateLimit - 8 - word(uint32(cfg.L2Bytes*4))
		case 3: // shared, hot
			a.addr = SharedBase + word(4096)
		case 4: // shared, wide
			a.addr = SharedBase + word(1<<20)
		case 5: // own MPB slice
			a.addr = MPBBase + uint32(a.core)*stride + word(stride)
		case 6: // a far core's slice
			a.addr = MPBBase + uint32(cfg.Cores-1-a.core)*stride + word(stride)
		case 7: // striped range
			a.addr = striped + word(stride)
		case 8: // straddling a page boundary, in each paged class
			base := []uint32{PrivateBase, PrivateLimit - 2*pageSize, SharedBase + pageSize}[rng.Intn(3)]
			a.addr = base + pageSize - 1 - uint32(rng.Intn(2))
			if a.size == 1 {
				a.size = 4
			}
		default: // the last word of the MPB
			a.addr = mpbEnd - uint32(a.size)
		}
		out[i] = a
	}
	return out
}

// TestWordPathMatchesBulkPath drives two machines with one seeded stream,
// one through LoadWord/StoreWord and one through Load/Store, and requires
// them indistinguishable: every loaded value and latency, every core's
// counters, every controller's occupancy and the final memory image. It
// does so twice: on new storage, then on the storage the first pass
// leaves, emptied (Release).
func TestWordPathMatchesBulkPath(t *testing.T) {
	const accesses = 100_000
	for _, name := range PresetNames() {
		for _, cacheable := range []struct{ mpb, shared bool }{{true, false}, {false, false}, {true, true}, {false, true}} {
			cfg := MustPreset(name)
			cfg.MPBCacheable, cfg.SharedCacheable = cacheable.mpb, cacheable.shared
			t.Run(fmt.Sprintf("%s/mpbt=%v/sharedc=%v", name, cacheable.mpb, cacheable.shared), func(t *testing.T) {
				word, bulk := neverUsed(cfg), neverUsed(cfg)
				fresh := matchWordAndBulk(t, "new storage", cfg, word, bulk, accesses)
				word, bulk = newMachine(cfg, word.empty()), newMachine(cfg, bulk.empty())
				if again := matchWordAndBulk(t, "released storage", cfg, word, bulk, accesses); again != fresh {
					t.Errorf("the stream's totals on released storage %+v, on new storage %+v", again, fresh)
				}
			})
		}
	}
}

// matchWordAndBulk is one pass of TestWordPathMatchesBulkPath. It
// returns the machines' total counters.
func matchWordAndBulk(t *testing.T, storage string, cfg Config, word, bulk *Machine, accesses int) CoreStats {
	t.Helper()
	stride := cfg.MPBStride()
	for _, m := range []*Machine{word, bulk} {
		m.MapMPB(MPBBase+uint32(2*stride), stride, []int{3, 1, 0, 2}, 64)
	}
	stream := wordStream(cfg, 42, accesses)
	var nowW, nowB Time
	for i, a := range stream {
		var buf [8]byte
		var gotW, gotB uint64
		var latW, latB Time
		if a.write {
			latW = word.StoreWord(a.core, a.addr, a.size, a.v, nowW)
			binary.LittleEndian.PutUint64(buf[:], a.v)
			latB = bulk.Store(a.core, a.addr, buf[:a.size], nowB)
		} else {
			gotW, latW = word.LoadWord(a.core, a.addr, a.size, nowW)
			latB = bulk.Load(a.core, a.addr, buf[:a.size], nowB)
			gotB = binary.LittleEndian.Uint64(buf[:])
		}
		if gotW != gotB || latW != latB {
			t.Fatalf("%s, access %d %+v: word path (%#x, %d ps), bulk path (%#x, %d ps)", storage, i, a, gotW, latW, gotB, latB)
		}
		nowW += latW
		nowB += latB
	}
	for c := 0; c < cfg.Cores; c++ {
		if sw, sb := word.StatsOf(c), bulk.StatsOf(c); sw != sb {
			t.Errorf("%s, core %d stats differ:\nword %+v\nbulk %+v", storage, c, sw, sb)
		}
	}
	for i := 0; i < cfg.MemControllers; i++ {
		bw, rw := word.MCBusy(i)
		bb, rb := bulk.MCBusy(i)
		if bw != bb || rw != rb {
			t.Errorf("%s, controller %d: word path (%d ps, %d requests), bulk path (%d ps, %d)", storage, i, bw, rw, bb, rb)
		}
	}
	if err := word.Fault(); err != nil {
		t.Errorf("%s: in-range stream faulted: %v", storage, err)
	}
	// Final memory: every byte any access of the stream covered.
	for i, a := range stream {
		var bw, bb [8]byte
		word.ReadBytes(a.core, a.addr, bw[:a.size])
		bulk.ReadBytes(a.core, a.addr, bb[:a.size])
		if !bytes.Equal(bw[:], bb[:]) {
			t.Fatalf("%s, memory at access %d %+v: word path % x, bulk path % x", storage, i, a, bw, bb)
		}
	}
	return word.TotalStats()
}

// faultCase is one access that must fault: do issues it and returns the
// bytes it read (nil for a write), which must all be zero.
type faultCase struct {
	name string
	do   func(m *Machine) []byte
	want string
}

// checkFaults runs each case on a fresh machine whose in-range words at
// both ends of the private range and of the MPB hold data: the access
// faults with want, reads zeros, moves no data in any class — no page
// or MPB byte is touched, and the in-range words keep their values —
// and the first fault wins over a later one.
func checkFaults(t *testing.T, cases []faultCase) {
	end := MPBBase + uint32(DefaultConfig().MPBTotal())
	inRange := []struct {
		addr uint32
		size int
		v    uint64
	}{{PrivateBase, 4, 0x1111}, {PrivateLimit - 8, 8, 0x2222_0000_3333}, {end - 4, 4, 0xdeadbeef}}
	footprint := func(m *Machine) (n int) {
		for c := range m.cores {
			n += m.cores[c].priv.Touched()
		}
		return n + m.shared.Touched() + len(m.mpb)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := testMachine(t)
			for _, w := range inRange {
				m.StoreWord(0, w.addr, w.size, w.v, 0)
				if err := m.Fault(); err != nil {
					t.Fatalf("in-range word at %#x faulted: %v", w.addr, err)
				}
			}
			before := footprint(m)
			got := c.do(m)
			err := m.Fault()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Fault() = %v, want it to contain %q", err, c.want)
			}
			if !bytes.Equal(got, make([]byte, len(got))) {
				t.Errorf("faulting read read % x, want zeros", got)
			}
			if after := footprint(m); after != before {
				t.Errorf("faulting access touched memory: footprint %d, was %d", after, before)
			}
			m.LoadWord(3, 0xFFFFFFFF, 1, 0)
			m.LoadWord(3, 0, 1, 0)
			if again := m.Fault(); again != err {
				t.Errorf("a later fault replaced the first: %v", again)
			}
			for _, w := range inRange {
				if v, _ := m.LoadWord(0, w.addr, w.size, 0); v != w.v {
					t.Errorf("word at %#x reads %#x after the fault, want %#x", w.addr, v, w.v)
				}
			}
		})
	}
}

// garbage is a read buffer the faulting access must overwrite with zeros.
func garbage(n int) []byte { return bytes.Repeat([]byte{0xAA}, n) }

// wordRead is a word load as the bytes it read.
func wordRead(m *Machine, core int, addr uint32, size int) []byte {
	v, _ := m.LoadWord(core, addr, size, 0)
	return binary.LittleEndian.AppendUint64(nil, v)
}

// TestMPBFault: an access at or above MPBBase that does not lie wholly
// inside the MPB is a fault, on the word path, the bulk path and the
// untimed path alike.
func TestMPBFault(t *testing.T) {
	end := MPBBase + uint32(DefaultConfig().MPBTotal())
	checkFaults(t, []faultCase{
		{"word load", func(m *Machine) []byte { return wordRead(m, 1, 0xFFFFFFF0, 4) }, "core 1: load of 4 bytes at 0xfffffff0: outside the MPB (393216 bytes)"},
		{"word store", func(m *Machine) []byte { m.StoreWord(0, 0xC0100000, 4, 5, 0); return nil }, "core 0: store of 4 bytes at 0xc0100000: outside the MPB (393216 bytes)"},
		{"word past the end", func(m *Machine) []byte { m.StoreWord(0, end-2, 4, 5, 0); return nil }, "store of 4 bytes"},
		{"bulk load past the end", func(m *Machine) []byte { b := garbage(32); m.Load(2, end-16, b, 0); return b }, "core 2: load of 32 bytes"},
		{"bulk store", func(m *Machine) []byte { m.Store(0, end, make([]byte, 1), 0); return nil }, "store of 1 bytes"},
		{"untimed read", func(m *Machine) []byte { b := garbage(1); m.ReadBytes(0, end+4096, b); return b }, "read of 1 bytes"},
	})
}

// TestUnmappedFault: below SharedBase, an access that does not lie wholly
// inside [PrivateBase, PrivateLimit) — a null pointer, the gap above the
// private range, a span across either end — is a fault on every path,
// and so is a span from shared DRAM into the MPB. The in-range words at
// both ends of the private range (checkFaults) are not.
func TestUnmappedFault(t *testing.T) {
	checkFaults(t, []faultCase{
		{"word load at null", func(m *Machine) []byte { return wordRead(m, 0, 0, 4) }, "core 0: load of 4 bytes at 0x0: unmapped"},
		{"word store below the range", func(m *Machine) []byte { m.StoreWord(0, PrivateBase-4, 4, 5, 0); return nil }, "core 0: store of 4 bytes at 0xffc: unmapped"},
		{"word across the range's start", func(m *Machine) []byte { return wordRead(m, 0, 0xFFE, 4) }, "core 0: load of 4 bytes at 0xffe: unmapped"},
		{"bulk load across the range's end", func(m *Machine) []byte { b := garbage(8); m.Load(1, PrivateLimit-4, b, 0); return b }, "core 1: load of 8 bytes at 0x3ffffffc: unmapped"},
		{"bulk store in the gap", func(m *Machine) []byte { m.Store(0, 0x5000_0000, make([]byte, 16), 0); return nil }, "core 0: store of 16 bytes at 0x50000000: unmapped"},
		{"untimed read at null", func(m *Machine) []byte { b := garbage(64); m.ReadBytes(0, 0, b); return b }, "core 0: read of 64 bytes at 0x0: unmapped"},
		{"untimed write across the range's end", func(m *Machine) []byte { m.WriteBytes(2, PrivateLimit-2, []byte{1, 2, 3, 4}); return nil }, "core 2: write of 4 bytes at 0x3ffffffe: unmapped"},
		{"word across the shared window's end", func(m *Machine) []byte { m.StoreWord(0, SharedLimit-4, 8, 5, 0); return nil }, "core 0: store of 8 bytes at 0xbffffffc: unmapped"},
	})
}

// BenchmarkWordAccess prices one simulated access per address class on
// the word path beside the bulk path (ns per access; the first touch of
// every line is outside the timer). benchmark/replay.go times the bulk
// path from outside, so the ledger's sccsim.replay.*_ns do not show what
// the word path saves; this does.
func BenchmarkWordAccess(b *testing.B) {
	cfg := DefaultConfig()
	stride := uint32(cfg.MPBStride())
	classes := []struct {
		name         string
		base, window uint32
	}{
		{"private_l1", PrivateBase, uint32(cfg.L1Bytes / 2)},
		{"private_l2", PrivateBase, uint32(cfg.L2Bytes / 2)},
		{"shared", SharedBase, 1 << 20},
		{"mpb_local", MPBBase, stride},
		{"mpb_remote", MPBBase + uint32(cfg.Cores-1)*stride, stride},
	}
	for _, c := range classes {
		rng := rand.New(rand.NewSource(1))
		addrs := make([]uint32, 1<<14)
		for i := range addrs {
			addrs[i] = c.base + uint32(rng.Intn(int(c.window/4)))*4
		}
		warm := func(m *Machine) {
			for a := c.base; a < c.base+c.window; a += 4 {
				m.StoreWord(0, a, 4, 0, 0)
			}
		}
		b.Run(c.name+"/word", func(b *testing.B) {
			m := MustNew(cfg)
			warm(m)
			var now Time
			var sum uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i&(len(addrs)-1)]
				if i&3 == 3 {
					now += m.StoreWord(0, a, 4, uint64(i), now)
				} else {
					v, lat := m.LoadWord(0, a, 4, now)
					sum += v
					now += lat
				}
			}
			wordSink = sum
		})
		b.Run(c.name+"/bulk", func(b *testing.B) {
			m := MustNew(cfg)
			warm(m)
			var now Time
			var buf [4]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := addrs[i&(len(addrs)-1)]
				if i&3 == 3 {
					binary.LittleEndian.PutUint32(buf[:], uint32(i))
					now += m.Store(0, a, buf[:], now)
				} else {
					now += m.Load(0, a, buf[:], now)
					wordSink += uint64(binary.LittleEndian.Uint32(buf[:]))
				}
			}
		})
	}
}

var wordSink uint64
