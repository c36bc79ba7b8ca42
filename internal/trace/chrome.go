package trace

import (
	"encoding/json"
	"io"
	"os"
	"strconv"

	"hsmcc/internal/sccsim"
)

// Chrome trace_event export: the JSON object format understood by
// Perfetto (ui.perfetto.dev) and chrome://tracing. The mapping is one
// process track per core (pid = core) and one thread track per
// execution context (tid = context ID): run slices are "X" complete
// events on the context's track, blocked intervals are "wait:<reason>"
// slices, spawns/unblocks/spin rounds are "i" instants, and the
// cumulative MPB / shared-DRAM access counts per core are "C" counter
// tracks. Timestamps are microseconds (the trace_event unit); the
// simulator's picosecond clocks divide by 1e6.

// ChromeEvent is one trace_event entry. Field names follow the Chrome
// trace-event format spec; unknown fields are rejected by the schema
// round-trip test, so the set here is the full vocabulary the exporter
// emits.
type ChromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	S    string  `json:"s,omitempty"` // instant scope ("t" = thread)
	Args any     `json:"args,omitempty"`
}

// Export bundles the trace events with the summary; it is both the
// trace-file shape (WriteChrome) and the envelope embedded in the
// serving layer's ?trace=1 responses. Perfetto ignores the extra
// "summary" key.
type Export struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
	Summary     *Summary      `json:"summary"`
}

// usPerPs converts simulator picoseconds to trace microseconds.
const usPerPs = 1e-6

func us(t sccsim.Time) float64 { return float64(t) * usPerPs }

// sliceArgs carries a run slice's memory-system deltas; zero-valued
// counters are omitted to keep traces small.
type sliceArgs struct {
	End       string `json:"end"`
	Loads     uint32 `json:"loads,omitempty"`
	Stores    uint32 `json:"stores,omitempty"`
	Private   uint32 `json:"private,omitempty"`
	Shared    uint32 `json:"shared,omitempty"`
	MPB       uint32 `json:"mpb,omitempty"`
	MPBRemote uint32 `json:"mpb_remote,omitempty"`
	L1Hits    uint32 `json:"l1_hits,omitempty"`
	L1Misses  uint32 `json:"l1_misses,omitempty"`
	L2Hits    uint32 `json:"l2_hits,omitempty"`
	L2Misses  uint32 `json:"l2_misses,omitempty"`
}

type nameArgs struct {
	Name string `json:"name"`
}

type valueArgs struct {
	Value uint64 `json:"value"`
}

type spinArgs struct {
	Backoff int64 `json:"backoff_cycles"`
}

// Export renders everything recorded so far.
func (r *Recorder) Export() *Export {
	events, _ := r.Events()
	out := &Export{Summary: r.Summarize()}

	// Metadata: name the per-core process tracks and the per-context
	// thread tracks that appear in the retained events.
	coreSeen := make(map[int32]bool)
	ctxSeen := make(map[int32]int32) // ctx -> core
	for i := range events {
		e := &events[i]
		if !coreSeen[e.Core] {
			coreSeen[e.Core] = true
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "process_name", Ph: "M", Pid: int(e.Core),
				Args: nameArgs{Name: coreName(int(e.Core))},
			})
		}
		if _, ok := ctxSeen[e.Ctx]; !ok {
			ctxSeen[e.Ctx] = e.Core
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: int(e.Core), Tid: int(e.Ctx),
				Args: nameArgs{Name: ctxName(int(e.Ctx))},
			})
		}
	}

	// The event stream, in recorded (execution) order. Blocked
	// intervals are synthesized from a block-ending slice and the
	// context's next unblock; cumulative per-core counters advance at
	// every slice edge.
	type pending struct {
		at     sccsim.Time
		reason uint8
		valid  bool
	}
	blockAt := make(map[int32]pending)
	mpbTotal := make(map[int32]uint64)
	dramTotal := make(map[int32]uint64)
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case evSliceYield, evSliceBlock, evSliceFinish:
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "run", Ph: "X", Pid: int(e.Core), Tid: int(e.Ctx),
				Ts: us(e.Start), Dur: us(e.Time - e.Start),
				Args: sliceArgs{
					End:   suspendName(e.Kind, e.Reason),
					Loads: e.Loads, Stores: e.Stores,
					Private: e.Private, Shared: e.Shared,
					MPB: e.MPB, MPBRemote: e.MPBRemote,
					L1Hits: e.L1Hits, L1Misses: e.L1Misses,
					L2Hits: e.L2Hits, L2Misses: e.L2Misses,
				},
			})
			if e.Kind == evSliceBlock {
				blockAt[e.Ctx] = pending{at: e.Time, reason: e.Reason, valid: true}
			}
			if e.MPB != 0 {
				mpbTotal[e.Core] += uint64(e.MPB)
				out.TraceEvents = append(out.TraceEvents, ChromeEvent{
					Name: "mpb_accesses", Ph: "C", Pid: int(e.Core),
					Ts: us(e.Time), Args: valueArgs{Value: mpbTotal[e.Core]},
				})
			}
			if e.Shared != 0 {
				dramTotal[e.Core] += uint64(e.Shared)
				out.TraceEvents = append(out.TraceEvents, ChromeEvent{
					Name: "dram_accesses", Ph: "C", Pid: int(e.Core),
					Ts: us(e.Time), Args: valueArgs{Value: dramTotal[e.Core]},
				})
			}
		case evSpawn:
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "spawn", Ph: "i", Pid: int(e.Core), Tid: int(e.Ctx),
				Ts: us(e.Time), S: "t",
			})
		case evUnblock:
			if b := blockAt[e.Ctx]; b.valid {
				delete(blockAt, e.Ctx)
				out.TraceEvents = append(out.TraceEvents, ChromeEvent{
					Name: "wait:" + reasonName(b.reason), Ph: "X",
					Pid: int(e.Core), Tid: int(e.Ctx),
					Ts: us(b.at), Dur: us(e.Time - b.at),
				})
			} else {
				// The matching block event was dropped by the ring.
				out.TraceEvents = append(out.TraceEvents, ChromeEvent{
					Name: "unblock", Ph: "i", Pid: int(e.Core), Tid: int(e.Ctx),
					Ts: us(e.Time), S: "t",
				})
			}
		case evSpin:
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "spin", Ph: "i", Pid: int(e.Core), Tid: int(e.Ctx),
				Ts: us(e.Time), S: "t", Args: spinArgs{Backoff: e.Arg},
			})
		}
	}
	return out
}

// WriteChrome writes the Chrome trace_event JSON document (with the
// summary riding along under the "summary" key) to w.
func (r *Recorder) WriteChrome(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Export())
}

// WriteFile writes the Chrome trace_event JSON document to path.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func coreName(core int) string { return "core " + strconv.Itoa(core) }
func ctxName(ctx int) string   { return "ctx " + strconv.Itoa(ctx) }
