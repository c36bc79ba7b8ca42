package rcce

import (
	"fmt"

	"hsmcc/internal/cc/types"
	"hsmcc/internal/interp"
	"hsmcc/internal/sccsim"
)

// Two-sided message passing. RCCE's send/recv pair is synchronous
// (rendezvous) messaging built over the MPB: the sender stages data and
// raises a flag in the receiver's MPB section; the receiver waits for the
// flag, copies the payload out and acknowledges (van der Wijngaart et
// al. [29]). The thesis notes RCCE "accommodates both the shared memory
// and message passing paradigms" — translated programs use the former,
// but hand-written RCCE programs (and our API-completeness tests) use
// this half.
//
// The model: a transfer of n bytes between ranks r1, r2 completes at
//
//	max(sender ready, receiver ready) + staging + wire + drain
//
// where staging/drain charge per-line MPB costs on each side and wire is
// the mesh distance between the two cores.

// message is one in-flight rendezvous.
type message struct {
	src, dst int // ranks
	addr     uint32
	size     int
	sender   *interp.Proc
	ready    sccsim.Time // when the payload is staged
}

// sendState tracks rendezvous per (src,dst) pair.
type sendState struct {
	// pending maps src*maxRanks+dst to a staged message.
	pending map[int]*message
	// recvWaiting maps src*maxRanks+dst to a blocked receiver.
	recvWaiting map[int]*interp.Proc
}

const maxRanks = 1 << 10

func (rt *library) sends() *sendState {
	if rt.sendrecv == nil {
		rt.sendrecv = &sendState{
			pending:     make(map[int]*message),
			recvWaiting: make(map[int]*interp.Proc),
		}
	}
	return rt.sendrecv
}

func pairKey(src, dst int) int { return src*maxRanks + dst }

// send implements RCCE_send(buf, size, dest): stage the payload, wake a
// waiting receiver, block until the receiver drains it. The staging
// copies charge the machine directly (no yield cadence), so the only
// suspension is the rendezvous block: step 1 means the receiver drained
// and released us.
func (rt *library) send(p *interp.Proc, buf uint32, size, dst int, step int) error {
	if step != 0 {
		return nil
	}
	if err := p.CheckSpan("RCCE_send", buf, int64(size)); err != nil {
		return err
	}
	me := p.ID
	if dst < 0 || dst >= len(rt.ues) {
		return fmt.Errorf("RCCE_send: no rank %d", dst)
	}
	if dst == me {
		return fmt.Errorf("RCCE_send: rank %d sending to itself", me)
	}
	st := rt.sends()
	key := pairKey(me, dst)
	if st.pending[key] != nil {
		return fmt.Errorf("RCCE_send: rank %d already has a message in flight to %d", me, dst)
	}
	// Stage: read the payload (timed) and pay the wire to dst's MPB.
	rt.stageCopy(p, buf, size)
	p.Clock += rt.sim.Machine.ComputeTime(p.Core, 60) // flag write + sync
	msg := &message{src: me, dst: dst, addr: buf, size: size, sender: p, ready: p.Clock}
	st.pending[key] = msg
	if r := st.recvWaiting[key]; r != nil {
		delete(st.recvWaiting, key)
		r.Unblock(msg.ready)
	}
	// Rendezvous: the sender blocks until the receiver drains.
	if err := p.BlockFor(interp.ReasonSend); err != nil {
		p.PushResume(1, 0)
		return err
	}
	return nil
}

// recv implements RCCE_recv(buf, size, source): wait for the matching
// send, drain the payload into buf, release the sender. A woken
// receiver (step 1) re-enters the wait loop and finds its message; the
// drain path has no suspension points.
func (rt *library) recv(p *interp.Proc, buf uint32, size, src int, step int) error {
	if err := p.CheckSpan("RCCE_recv", buf, int64(size)); err != nil {
		return err
	}
	me := p.ID
	if src < 0 || src >= len(rt.ues) {
		return fmt.Errorf("RCCE_recv: no rank %d", src)
	}
	st := rt.sends()
	key := pairKey(src, me)
	for st.pending[key] == nil {
		if st.recvWaiting[key] != nil {
			return fmt.Errorf("RCCE_recv: two receivers for the same channel %d->%d", src, me)
		}
		st.recvWaiting[key] = p
		if err := p.BlockFor(interp.ReasonRecv); err != nil {
			p.PushResume(1, 0)
			return err
		}
	}
	msg := st.pending[key]
	delete(st.pending, key)
	if msg.size < size {
		size = msg.size
	}
	// The transfer cannot complete before the payload was staged.
	if msg.ready > p.Clock {
		p.Clock = msg.ready
	}
	// Wire between the two cores plus the drain copy.
	hops := rt.sim.Machine.Hops(p.Core, msg.sender.Core)
	p.Clock += sccsim.Time(2*hops) * 2 * rt.sim.Machine.CorePeriodOf(p.Core)
	rt.drainCopy(p, msg.sender.Core, msg.addr, buf, size)
	// Release the sender at the completion time.
	msg.sender.Unblock(p.Clock)
	return nil
}

// stageCopy charges the sender's read of its payload (line granularity).
func (rt *library) stageCopy(p *interp.Proc, src uint32, size int) {
	var buf [lineBytes]byte
	m := rt.sim.Machine
	eachLine(size, func(off uint32, n int) {
		p.Clock += m.Load(p.Core, src+off, buf[:n], p.Clock)
		p.ProfileAccess(src+off, false)
	})
}

// drainCopy moves the payload from the sender's buffer into the receive
// buffer with full timing charged on the receiver's side. Reading through
// the sender's core makes private payload buffers work: shared and MPB
// addresses resolve identically from any core, private ones belong to
// the sender.
func (rt *library) drainCopy(p *interp.Proc, senderCore int, src, dst uint32, size int) {
	var buf [lineBytes]byte
	m := rt.sim.Machine
	eachLine(size, func(off uint32, n int) {
		m.ReadBytes(senderCore, src+off, buf[:n])
		p.Clock += m.Store(p.Core, dst+off, buf[:n], p.Clock)
		p.ProfileAccess(dst+off, true)
	})
}

// sendrecvBuiltin dispatches the two-sided API; step is the resumption
// step popped by CallBuiltin, routed into the suspended half.
func (rt *library) sendrecvBuiltin(p *interp.Proc, name string, args []interp.Value, step int) (interp.Value, bool, error) {
	zero := interp.IntValue(types.IntType, 0)
	switch name {
	case "RCCE_send":
		if len(args) < 3 {
			return zero, true, fmt.Errorf("RCCE_send: want (buf, size, dest)")
		}
		return zero, true, rt.send(p, args[0].Addr(), int(args[1].Int()), int(args[2].Int()), step)
	case "RCCE_recv":
		if len(args) < 3 {
			return zero, true, fmt.Errorf("RCCE_recv: want (buf, size, source)")
		}
		return zero, true, rt.recv(p, args[0].Addr(), int(args[1].Int()), int(args[2].Int()), step)
	}
	return interp.Value{}, false, nil
}
