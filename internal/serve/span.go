package serve

// Request-scoped observability: every request gets an X-Request-Id and
// a span recorder that times the stages it passes through — decode,
// admission-queue wait, then the compute stages the bench harness
// actually executes (compile, translate, baseline, simulate, profile;
// cache hits produce no compute span, which is exactly what a request
// timeline should show). The span tree rides back in the response
// envelope when the client opts in with ?spans=1, and is logged with
// the slog line when a request crosses the slow threshold.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request IDs are "<process prefix>-<seq>": an 8-hex-digit random
// prefix distinguishes daemon restarts, the sequence number orders
// requests within one process. The format is asserted by the load-test
// harness (loadtest.RequestIDPattern).
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Int64
)

func nextRequestID() string {
	return ridPrefix + "-" + strconv.FormatInt(ridSeq.Add(1), 10)
}

// Span is one timed step of a request. Times are offsets from the
// moment the server accepted the request, in microseconds — wall
// clock, so unlike simulation results they vary run to run, which is
// why spans are opt-in and never part of the deterministic envelope.
type Span struct {
	Name     string  `json:"name"`
	StartUs  int64   `json:"start_us"`
	DurUs    int64   `json:"dur_us"`
	Children []*Span `json:"children,omitempty"`
}

// LogValue renders the tree as "name(durµs)[children...]" so the slow-
// request slog line stays one readable attribute instead of a pointer
// dump.
func (sp *Span) LogValue() slog.Value {
	if sp == nil {
		return slog.StringValue("")
	}
	var b strings.Builder
	sp.format(&b)
	return slog.StringValue(b.String())
}

func (sp *Span) format(b *strings.Builder) {
	b.WriteString(sp.Name)
	b.WriteByte('(')
	b.WriteString(strconv.FormatInt(sp.DurUs, 10))
	b.WriteString("us)")
	if len(sp.Children) > 0 {
		b.WriteByte('[')
		for i, c := range sp.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.format(b)
		}
		b.WriteByte(']')
	}
}

// spanRecorder accumulates a request's span tree. Starts nest: a span
// opened while another is open becomes its child (the compile span
// fires inside the translate stage, so it nests under it). Safe for
// concurrent use — batch items share their request's recorder.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	root  *Span
	stack []*Span
}

func newSpanRecorder(t0 time.Time) *spanRecorder {
	root := &Span{Name: "request"}
	return &spanRecorder{t0: t0, root: root, stack: []*Span{root}}
}

// start opens a named child span under the innermost open span and
// returns its closer. Nil-safe: handlers exercised without the
// instrument wrapper (direct unit tests) record nothing.
func (sr *spanRecorder) start(name string) func() {
	if sr == nil {
		return func() {}
	}
	sr.mu.Lock()
	sp := &Span{Name: name, StartUs: time.Since(sr.t0).Microseconds()}
	parent := sr.stack[len(sr.stack)-1]
	parent.Children = append(parent.Children, sp)
	sr.stack = append(sr.stack, sp)
	sr.mu.Unlock()
	return func() {
		sr.mu.Lock()
		sp.DurUs = time.Since(sr.t0).Microseconds() - sp.StartUs
		// Remove sp from the open stack wherever it sits: closes can
		// arrive out of order when batch workers interleave.
		for i := len(sr.stack) - 1; i >= 1; i-- {
			if sr.stack[i] == sp {
				sr.stack = append(sr.stack[:i], sr.stack[i+1:]...)
				break
			}
		}
		sr.mu.Unlock()
	}
}

// tree closes the root over the elapsed time so far and returns it.
func (sr *spanRecorder) tree() *Span {
	if sr == nil {
		return nil
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.root.DurUs = time.Since(sr.t0).Microseconds()
	return sr.root
}

// spanCtxKey carries the request's recorder through context, so the
// bench harness seam (bench.Hooks.Span) and the handlers reach the
// same tree the instrument wrapper logs.
type spanCtxKey struct{}

func withSpans(ctx context.Context, sr *spanRecorder) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sr)
}

// spansFrom returns the request's recorder, or nil (every use is
// nil-safe) outside an instrumented request.
func spansFrom(ctx context.Context) *spanRecorder {
	sr, _ := ctx.Value(spanCtxKey{}).(*spanRecorder)
	return sr
}
