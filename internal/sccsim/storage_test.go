package sccsim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// runRecord is everything a run shows of a machine: each access's value
// and latency (and each TAS, flush and compute charge), then every core's
// counters and period, every controller's occupancy, the lock registers,
// the first fault and the bytes at every address the run accessed.
type runRecord struct {
	log     []uint64
	stats   []CoreStats
	periods []Time
	mcs     []uint64
	tas     []bool
	fault   string
	memory  []byte
}

// driveRecorded runs a seeded stream of n accesses that reaches every
// class the machine distinguishes — private and shared pages, each core's
// own MPB slice, a far slice, a range striped by MapMPB, words straddling
// pages — on the word and the bulk path alternately, with test-and-set
// and clear, L1 flushes, compute charges and DVFS changes mixed in, and
// one access far outside the MPB (a fault) halfway.
func driveRecorded(m *Machine, seed int64, n int) runRecord {
	cfg := m.Config()
	stride := cfg.MPBStride()
	m.MapMPB(MPBBase+uint32(2*stride), stride, []int{3, 1, 0, 2}, 64)
	rng := rand.New(rand.NewSource(seed))
	stream := wordStream(cfg, seed, n)
	var rec runRecord
	var now Time
	note := func(vs ...uint64) { rec.log = append(rec.log, vs...) }
	for i, a := range stream {
		switch i % 500 {
		case 100:
			ok, lat := m.TestAndSet(a.core, rng.Intn(cfg.Cores), now)
			note(b2u(ok), lat)
		case 200:
			note(m.TASClear(a.core, rng.Intn(cfg.Cores), now))
		case 300:
			note(m.FlushL1(a.core))
		case 400:
			if err := m.SetDomainMHz(rng.Intn(m.VoltageDomains()), MinMHz+rng.Intn(MaxMHz-MinMHz)); err != nil {
				panic(err)
			}
		case 450:
			note(m.ComputeTime(a.core, 1+rng.Intn(100)))
		}
		if i == n/2 {
			m.LoadWord(a.core, 0xFFFF_FFF0, 4, now)
		}
		var v uint64
		var lat Time
		if i%2 == 0 {
			if a.write {
				lat = m.StoreWord(a.core, a.addr, a.size, a.v, now)
			} else {
				v, lat = m.LoadWord(a.core, a.addr, a.size, now)
			}
		} else {
			var buf [8]byte
			if a.write {
				binary.LittleEndian.PutUint64(buf[:], a.v)
				lat = m.Store(a.core, a.addr, buf[:a.size], now)
			} else {
				lat = m.Load(a.core, a.addr, buf[:a.size], now)
				v = binary.LittleEndian.Uint64(buf[:])
			}
		}
		note(v, lat)
		now += lat
	}
	for c := 0; c < cfg.Cores; c++ {
		rec.stats = append(rec.stats, m.StatsOf(c))
		rec.periods = append(rec.periods, m.CorePeriodOf(c))
		rec.tas = append(rec.tas, m.TASValue(c))
	}
	for i := 0; i < cfg.MemControllers; i++ {
		busy, reqs := m.MCBusy(i)
		rec.mcs = append(rec.mcs, busy, reqs)
	}
	if err := m.Fault(); err != nil {
		rec.fault = err.Error()
	}
	for _, a := range stream {
		var buf [8]byte
		m.ReadBytes(a.core, a.addr, buf[:a.size])
		rec.memory = append(rec.memory, buf[:a.size]...)
	}
	return rec
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// diffRecords names the first part of two records that differs.
func diffRecords(got, want runRecord) error {
	switch {
	case !slices.Equal(got.log, want.log):
		return fmt.Errorf("an access value or latency differs")
	case !slices.Equal(got.stats, want.stats):
		return fmt.Errorf("core counters differ")
	case !slices.Equal(got.periods, want.periods):
		return fmt.Errorf("core periods differ")
	case !slices.Equal(got.mcs, want.mcs):
		return fmt.Errorf("controller occupancy differs")
	case !slices.Equal(got.tas, want.tas):
		return fmt.Errorf("lock registers differ")
	case got.fault != want.fault:
		return fmt.Errorf("fault %q differs from %q", got.fault, want.fault)
	case !bytes.Equal(got.memory, want.memory):
		return fmt.Errorf("final memory differs")
	}
	return nil
}

// neverUsed builds a machine on storage no run has touched, whatever the
// pool holds.
func neverUsed(cfg Config) *Machine { return newMachine(cfg, newStorage(&cfg)) }

// reusedAfter drives a machine of cfg with the seeded stream, releases it
// and returns the next New of cfg, which must be built on the storage
// just released.
func reusedAfter(t *testing.T, cfg Config, seed int64, n int) *Machine {
	t.Helper()
	m := MustNew(cfg)
	driveRecorded(m, seed, n)
	st := m.store
	m.Release()
	again := MustNew(cfg)
	if again.store != st {
		t.Fatal("the first New after a Release of the same shape built new storage")
	}
	return again
}

// requireEmpty checks that m holds no trace of an earlier run: no page
// or cache block linked and every spare one zero, no dated cache or MRU
// line, no counter or compute time, and no claimed or non-zero MPB byte.
func requireEmpty(t *testing.T, m *Machine) {
	t.Helper()
	mems := []*PageMem{&m.shared}
	for c := range m.cores {
		cs := &m.cores[c]
		mems = append(mems, &cs.priv)
		if cs.stats != (CoreStats{}) || cs.timer.Comp != 0 {
			t.Fatalf("core %d starts with counters %+v, compute time %d", c, cs.stats, cs.timer.Comp)
		}
		for _, ca := range []*Cache{&cs.l1, &cs.l2} {
			if ca.tick != 0 || ca.mru != nil {
				t.Fatalf("core %d: a cache starts with tick %d, MRU line %v", c, ca.tick, ca.mru)
			}
			for _, blk := range ca.blocks {
				if blk != nil {
					t.Fatalf("core %d: a cache starts with a block linked", c)
				}
			}
			for _, blk := range ca.spare {
				for _, ln := range blk {
					if ln != (cacheLine{}) {
						t.Fatalf("core %d: a spare cache block holds line %+v", c, ln)
					}
				}
			}
		}
	}
	for _, pm := range mems {
		if pm.touched != 0 || pm.pg0 != nil || pm.pg1 != nil || pm.tag0 != 0 || pm.tag1 != 0 {
			t.Fatalf("a PageMem starts with %d pages and page cache %#x/%#x", pm.touched, pm.tag0, pm.tag1)
		}
		if pm.root == nil {
			continue
		}
		for _, mid := range pm.root {
			if mid == nil {
				continue
			}
			for _, leaf := range mid {
				if leaf != nil && *leaf != (pageLeaf{}) {
					t.Fatal("a PageMem starts with a page linked in its tables")
				}
			}
		}
	}
	if n := len(m.store.pages.used); n != 0 {
		t.Fatalf("the page pool starts with %d pages in use", n)
	}
	for _, pg := range m.store.pages.spare {
		if *pg != (page{}) {
			t.Fatal("a spare page is not zero")
		}
	}
	if m.mpb != nil {
		t.Fatalf("the MPB starts claimed, %d bytes", len(m.mpb))
	}
	for _, b := range m.store.mpb[:cap(m.store.mpb)] {
		if b != 0 {
			t.Fatal("the parked MPB array is not zero")
		}
	}
}

// TestReleasedStorageIsFresh: a machine built on a released machine's
// storage is indistinguishable from a never-used one. On every preset,
// the seeded stream gives the same values, latencies, counters,
// controller occupancy, fault, periods, lock registers and final memory
// on both, and the reused storage starts empty.
func TestReleasedStorageIsFresh(t *testing.T) {
	const accesses = 20_000
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			cfg := MustPreset(name)
			want := driveRecorded(neverUsed(cfg), 7, accesses)
			if want.fault == "" {
				t.Fatal("the stream's wild access did not fault")
			}
			m := reusedAfter(t, cfg, 7, accesses)
			if len(m.store.pages.spare) == 0 {
				t.Fatal("the released run left no spare pages")
			}
			requireEmpty(t, m)
			if err := diffRecords(driveRecorded(m, 7, accesses), want); err != nil {
				t.Errorf("on released storage: %v from a never-used machine's", err)
			}
			m.Release()
		})
	}
}

// TestReleasedMachinePanics: a released machine holds no storage, so
// every access to its memory or cores panics instead of reaching the
// storage another machine now uses; a second Release does nothing.
func TestReleasedMachinePanics(t *testing.T) {
	m := testMachine(t)
	var buf [4]byte
	m.Store(1, PrivateBase, buf[:], 0)
	m.Store(1, MPBBase, buf[:], 0)
	m.Release()
	m.Release()
	uses := map[string]func(){
		"private load":  func() { m.Load(1, PrivateBase, buf[:], 0) },
		"shared store":  func() { m.Store(1, SharedBase, buf[:], 0) },
		"MPB word load": func() { m.LoadWord(1, MPBBase, 4, 0) },
		"word store":    func() { m.StoreWord(1, PrivateBase, 4, 1, 0) },
		"shared read":   func() { m.ReadBytes(1, SharedBase, buf[:]) },
		"MPB write":     func() { m.WriteBytes(1, MPBBase, buf[:]) },
		"counters":      func() { m.StatsOf(1) },
		"flush":         func() { m.FlushL1(1) },
		"compute":       func() { m.ComputeTime(1, 10) },
	}
	for name, use := range uses {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released machine did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestStorageReuseConcurrent cycles New → run → Release on eight
// goroutines over two shapes, as parallel grid workers do, and requires
// every run to match a never-used machine's. Run it under -race.
func TestStorageReuseConcurrent(t *testing.T) {
	const accesses, rounds = 2_000, 6
	cfgs := []Config{MustPreset("scc48"), MustPreset("mesh256")}
	want := make([]runRecord, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = driveRecorded(neverUsed(cfg), 3, accesses)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*rounds)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(cfgs)
				m := MustNew(cfgs[i])
				if err := diffRecords(driveRecorded(m, 3, accesses), want[i]); err != nil {
					errs <- fmt.Errorf("goroutine %d, round %d: %v", g, r, err)
				}
				m.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
