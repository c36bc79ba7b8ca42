package main

// sccsim.replay: a seeded access stream replayed straight into
// Machine.Load/Store, one pattern per address class, to price the
// simulator's memory path without the interpreter above it. Multiplying
// each class's cost by the class counts of the traced ops estimates how
// much of the two runs' host time is the memory system — an estimate,
// labelled so, because the replay's hit mix within a class is not the
// programs'.

import (
	"math/rand"
	"time"

	"hsmcc/internal/sccsim"
)

// replayAccesses is the length of each pattern's stream.
const replayAccesses = 400_000

// replayPattern is one address class: a window of the address space the
// stream's word-aligned addresses are drawn from, as seen from core 0.
type replayPattern struct {
	metric string
	base   uint32
	window uint32
}

func replayPatterns(cfg sccsim.Config) []replayPattern {
	stride := uint32(cfg.MPBStride())
	return []replayPattern{
		// Half of L1: every access hits L1 once the window is resident.
		{"sccsim.replay.private_l1_ns", sccsim.PrivateBase, uint32(cfg.L1Bytes / 2)},
		// Half of L2, 16x L1: L1 mostly misses, L2 hits.
		{"sccsim.replay.private_l2_ns", sccsim.PrivateBase, uint32(cfg.L2Bytes / 2)},
		// 32x L2: both caches mostly miss, the controller queue is used.
		{"sccsim.replay.private_dram_ns", sccsim.PrivateBase, uint32(cfg.L2Bytes * 32)},
		// Shared DRAM is uncacheable: always the controller path.
		{"sccsim.replay.shared_ns", sccsim.SharedBase, 1 << 20},
		// Core 0's own MPB slice, then the slice of the farthest core.
		{"sccsim.replay.mpb_local_ns", sccsim.MPBBase, stride},
		{"sccsim.replay.mpb_remote_ns", sccsim.MPBBase + uint32(cfg.Cores-1)*stride, stride},
	}
}

// replayInto runs every pattern on a fresh machine of the given
// configuration and records host ns per access, then the estimate.
func replayInto(led ledger, cfg sccsim.Config, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	var buf [4]byte
	for _, p := range replayPatterns(cfg) {
		m := sccsim.MustNew(cfg)
		addrs := make([]uint32, replayAccesses)
		store := make([]bool, replayAccesses)
		for i := range addrs {
			addrs[i] = p.base + uint32(rng.Intn(int(p.window/4)))*4
			store[i] = rng.Intn(10) < 3
		}
		var now sccsim.Time
		t0 := time.Now()
		for i, a := range addrs {
			if store[i] {
				now += m.Store(0, a, buf[:], now)
			} else {
				now += m.Load(0, a, buf[:], now)
			}
		}
		led[p.metric] = float64(time.Since(t0).Nanoseconds()) / replayAccesses
	}
	// Class counts of the traced ops. MPB lines are cacheable in L1, so
	// L1 lookups are private plus MPB accesses while L2 lookups are the
	// private L1 misses alone; that separates the private L1 hits from
	// the MPB accesses, which are priced whole at the MPB patterns' cost.
	mpbL1Misses := led[scratchL1Misses] - (led[scratchL2Hits] + led[scratchL2Misses])
	mpbL1Hits := led["sccsim.mpb_accesses"] - mpbL1Misses
	local := led["sccsim.mpb_accesses"] - led["sccsim.mpb_remote"]
	ns := (led[scratchL1Hits]-mpbL1Hits)*led["sccsim.replay.private_l1_ns"] +
		led[scratchL2Hits]*led["sccsim.replay.private_l2_ns"] +
		led[scratchL2Misses]*led["sccsim.replay.private_dram_ns"] +
		led["sccsim.shared_accesses"]*led["sccsim.replay.shared_ns"] +
		local*led["sccsim.replay.mpb_local_ns"] +
		led["sccsim.mpb_remote"]*led["sccsim.replay.mpb_remote_ns"]
	led["sccsim.est_busy_ms"] = ns / 1e6
	led["sccsim.est_share"] = ratio(ns/1e6, led["pthreadrt.run_ms"]+led["rcce.run_ms"])
}
