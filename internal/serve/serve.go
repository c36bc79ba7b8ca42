// Package serve is the simulation-as-a-service layer: a long-running
// HTTP daemon (cmd/hsmccd) that keeps one process-lifetime bench.Cache
// warm across requests, so compiles, translations, baseline runs and
// access profiles are shared between every client instead of being
// redone per one-shot CLI invocation.
//
// Endpoints (see docs/SERVING.md for the full API reference):
//
//	POST /v1/compile    compile a workload's Pthread source (cache-warm)
//	POST /v1/translate  run the five-stage translation pipeline
//	POST /v1/simulate   baseline + translated run, differential check
//	POST /v1/grid       a full sweep, streamed as NDJSON cell results
//	POST /v1/batch      heterogeneous requests, streamed NDJSON, in order
//	GET  /metrics       request/latency/cache/in-flight counters (JSON)
//	GET  /healthz       liveness probe
//
// Every simulation-bearing request runs under a wall-clock deadline
// (request-supplied, capped by the server limit): the deadline cancels
// the simulation mid-flight through interp.Sim.Cancel, the client gets
// 504, and the cache stays consistent — canceled computations are
// dropped for retry, never cached.
//
// Responses are deterministic: a simulate response is byte-identical
// across repeats of the same request, warm or cold cache, which is the
// property the load-test harness (serve/loadtest) checks at scale
// against direct in-process bench runs.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"hsmcc/internal/bench"
)

// Limits bounds what one request may ask for. The zero value of any
// field means "use the default" (DefaultLimits).
type Limits struct {
	// MaxCores caps the thread/UE count of a request (the machine has
	// 48 cores; oversubscription is not served).
	MaxCores int `json:"max_cores"`
	// MaxScale caps the problem-size multiplier.
	MaxScale float64 `json:"max_scale"`
	// MaxSynthOps caps a synthetic workload's total scheduled operation
	// budget (scaled per-round ops x rounds), keeping hostile synth:
	// keys from buying unbounded simulation time.
	MaxSynthOps int `json:"max_synth_ops"`
	// MaxGridCells caps the cell count of one /v1/grid request.
	MaxGridCells int `json:"max_grid_cells"`
	// MaxBatch caps the item count of one /v1/batch request.
	MaxBatch int `json:"max_batch"`
	// MaxDeadline caps the per-request wall-clock deadline; requests
	// asking for more are clamped.
	MaxDeadline time.Duration `json:"max_deadline_ns"`
	// DefaultDeadline applies when a request names no deadline.
	DefaultDeadline time.Duration `json:"default_deadline_ns"`
	// MaxInFlight bounds the total weighted simulation work in flight
	// (compile/translate weigh 1, simulate 2, a grid its cell count, a
	// batch the sum of its items); requests beyond it queue or shed.
	MaxInFlight int `json:"max_in_flight"`
	// MaxQueue bounds the admission wait queue: requests that find the
	// gate full park here (FIFO) until slots free or their deadline
	// fires; past this depth they shed immediately with 503. Negative
	// disables queueing (full gate = immediate shed).
	MaxQueue int `json:"max_queue"`
}

// DefaultLimits is the daemon's stock admission policy.
func DefaultLimits() Limits {
	return Limits{
		MaxCores:        48,
		MaxScale:        1.0,
		MaxSynthOps:     1 << 16,
		MaxGridCells:    4096,
		MaxBatch:        256,
		MaxDeadline:     2 * time.Minute,
		DefaultDeadline: 30 * time.Second,
		MaxInFlight:     64,
		MaxQueue:        256,
	}
}

// withDefaults fills zero fields from DefaultLimits.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxCores <= 0 {
		l.MaxCores = d.MaxCores
	}
	if l.MaxScale <= 0 {
		l.MaxScale = d.MaxScale
	}
	if l.MaxSynthOps <= 0 {
		l.MaxSynthOps = d.MaxSynthOps
	}
	if l.MaxGridCells <= 0 {
		l.MaxGridCells = d.MaxGridCells
	}
	if l.MaxBatch <= 0 {
		l.MaxBatch = d.MaxBatch
	}
	if l.MaxDeadline <= 0 {
		l.MaxDeadline = d.MaxDeadline
	}
	if l.DefaultDeadline <= 0 {
		l.DefaultDeadline = d.DefaultDeadline
	}
	if l.DefaultDeadline > l.MaxDeadline {
		l.DefaultDeadline = l.MaxDeadline
	}
	if l.MaxInFlight <= 0 {
		l.MaxInFlight = d.MaxInFlight
	}
	if l.MaxQueue == 0 {
		l.MaxQueue = d.MaxQueue
	}
	if l.MaxQueue < 0 {
		l.MaxQueue = 0
	}
	return l
}

// Options configures a Server.
type Options struct {
	// CacheBytes bounds the process-lifetime cache's estimated resident
	// cost (size-bounded LRU, bench.NewCacheSized); <= 0 = unbounded.
	CacheBytes int64
	// Limits is the admission policy (zero fields take defaults).
	Limits Limits
	// Fault, when non-nil, is the chaos-injection seam threaded into
	// every request's bench.Config (see bench.Hooks.Fault): it fires
	// at the named compute stages so injected panics, delays and
	// cancellations exercise the real serving path. Production servers
	// leave it nil; the chaos selftest and tests install an injector.
	Fault func(stage string) error
	// Logger, when non-nil, receives one structured line per finished
	// request (request id, endpoint, status, duration). Requests slower
	// than SlowThreshold log at Warn with their span tree attached;
	// 5xx responses log at Error.
	Logger *slog.Logger
	// SlowThreshold is the duration beyond which a request counts as
	// slow (0 disables slow-request escalation).
	SlowThreshold time.Duration
}

// Server is the simulation service: one shared cache, one limit set,
// one metrics registry. Handlers are safe for arbitrary concurrency —
// all simulation state is per-request, and the cache is lock-protected
// with immutable values.
type Server struct {
	cache   *bench.Cache
	limits  Limits
	metrics *Metrics
	mux     *http.ServeMux
	// gate is the weighted in-flight admission gate (admit.go).
	gate *gate
	// fault is Options.Fault (nil in production).
	fault func(stage string) error
	// logger/slowThreshold drive the per-request slog line (Options).
	logger        *slog.Logger
	slowThreshold time.Duration
	// draining flips once StartDrain is called: /healthz answers 503
	// for load balancers and new /v1/* work is refused.
	draining atomic.Bool
	// stopCtx ends when CancelInFlight is called at the drain deadline;
	// every request context is derived to cancel with it, which reaches
	// the simulations through interp.Sim.Cancel.
	stopCtx    context.Context
	stopCancel context.CancelFunc
	// ops is the op table keyed by op name, built once in New.
	ops map[string]op
	// baseCfg is the template every request's bench.Config derives
	// from: the paper's machine, with the machine-config fingerprint
	// precomputed once so per-request cache keys never build a
	// throwaway machine.
	baseCfg bench.Config
}

// New builds a Server.
func New(opts Options) *Server {
	s := &Server{
		cache:         bench.NewCacheSized(opts.CacheBytes),
		limits:        opts.Limits.withDefaults(),
		metrics:       newMetrics(),
		mux:           http.NewServeMux(),
		fault:         opts.Fault,
		logger:        opts.Logger,
		slowThreshold: opts.SlowThreshold,
	}
	s.gate = newGate(int64(s.limits.MaxInFlight), s.limits.MaxQueue)
	s.stopCtx, s.stopCancel = context.WithCancel(context.Background())
	s.baseCfg = bench.DefaultConfig().PrecomputeMachineEnv()
	s.baseCfg.Cache = s.cache
	s.ops = map[string]op{
		"compile":   {weight: 1, run: s.compile},
		"translate": {weight: 1, run: s.translate},
		"simulate":  {weight: 2, run: s.simulate}, // baseline + translated run
	}
	for name, o := range s.ops {
		s.mux.HandleFunc("/v1/"+name, s.instrument(name, s.handleOp(o)))
	}
	s.mux.HandleFunc("/v1/grid", s.instrument("grid", s.handleGrid))
	s.mux.HandleFunc("/v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", s.handleHealthz))
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the process-lifetime cache (stats, tests).
func (s *Server) Cache() *bench.Cache { return s.cache }

// Metrics exposes the metrics registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Limits reports the effective admission policy.
func (s *Server) Limits() Limits { return s.limits }

// Overload reports the admission gate's current state.
func (s *Server) Overload() OverloadSnapshot { return s.gate.stats() }

// StartDrain flips the server into draining: /healthz answers 503 so
// load balancers stop routing here, and new /v1/* requests are refused
// with 503 + Retry-After. In-flight requests keep running — call
// CancelInFlight when the drain deadline expires to cut them off.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// CancelInFlight cancels every in-flight request context (and through
// it, every running simulation via interp.Sim.Cancel). The cache stays
// consistent: canceled computations are dropped, never cached.
func (s *Server) CancelInFlight() { s.stopCancel() }

// httpError is a handler failure with its HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errBadRequest(format string, args ...any) *httpError {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// writeError emits the JSON error envelope (unless the stream already
// started, in which case the transport has to carry the bad news).
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := json.Marshal(errorBody{Error: msg, Status: status})
	w.Write(append(b, '\n'))
}

// writeJSON emits one deterministic JSON document: marshaled with
// encoding/json's stable field order, one trailing newline.
func writeJSON(w http.ResponseWriter, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
	return nil
}

// StreamError is the terminal NDJSON record a streaming endpoint emits
// when a failure cuts the stream short after lines have already been
// written (the status line is long gone, so the error has to travel in
// band). Clients distinguish truncation from completion by its
// presence: a stream that ends without one completed normally, a
// stream that ends with one was aborted at that point.
type StreamError struct {
	StreamError string `json:"stream_error"`
	Status      int    `json:"status"`
}

// writeStreamError appends the terminal error record to an NDJSON
// stream already in progress.
func writeStreamError(w http.ResponseWriter, status int, msg string) {
	b, _ := json.Marshal(StreamError{StreamError: msg, Status: status})
	w.Write(append(b, '\n'))
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the request-scope control plane:
// the request id (X-Request-Id, set before any body bytes so every
// response carries it), the span recorder, metrics bookkeeping
// (request count, in-flight gauge, latency histogram, status counts),
// the structured request log line, the draining refusal for /v1/*
// work, and the panic boundary — a panicking handler answers 500 with
// the error envelope (or the terminal stream record, if the NDJSON
// stream had started) instead of killing the daemon.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := nextRequestID()
		sr := newSpanRecorder(start)
		r = r.WithContext(withSpans(r.Context(), sr))
		s.metrics.requestStarted(name)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sw.Header().Set("X-Request-Id", rid)
		defer func() {
			if v := recover(); v != nil {
				s.metrics.panicked()
				msg := fmt.Sprintf("panic: %v", v)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, msg)
				} else if sw.streaming() {
					writeStreamError(sw, http.StatusInternalServerError, msg)
				}
			}
			d := time.Since(start)
			s.metrics.requestFinished(name, sw.status, d)
			s.logRequest(r, name, rid, sw.status, d, sr)
		}()
		if s.draining.Load() && strings.HasPrefix(r.URL.Path, "/v1/") {
			sw.Header().Set("Retry-After", "1")
			writeError(sw, http.StatusServiceUnavailable, "draining: server is shutting down")
			return
		}
		h(sw, r)
	}
}

// logRequest emits the per-request slog line: Info normally, Warn with
// the span tree when the request crossed the slow threshold, Error on
// 5xx.
func (s *Server) logRequest(r *http.Request, name, rid string, status int, d time.Duration, sr *spanRecorder) {
	if s.logger == nil {
		return
	}
	slow := s.slowThreshold > 0 && d >= s.slowThreshold
	level := slog.LevelInfo
	switch {
	case status >= http.StatusInternalServerError:
		level = slog.LevelError
	case slow:
		level = slog.LevelWarn
	}
	if !s.logger.Enabled(r.Context(), level) {
		return
	}
	args := []any{
		slog.String("request_id", rid),
		slog.String("endpoint", name),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Int64("duration_us", d.Microseconds()),
	}
	if slow {
		args = append(args, slog.Bool("slow", true), slog.Any("spans", sr.tree()))
	}
	s.logger.Log(r.Context(), level, "request", args...)
}

// statusWriter captures the response status for metrics and whether
// anything was written (the panic boundary must not WriteHeader twice).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.wrote = true
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// streaming reports whether the response is an NDJSON stream (where a
// late failure must travel as a terminal record, not a status).
func (w *statusWriter) streaming() bool {
	return strings.HasPrefix(w.Header().Get("Content-Type"), "application/x-ndjson")
}

// Flush forwards to the underlying writer so NDJSON streams flush
// through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
