package serve

// The endpoint handlers. Single-object endpoints (compile, translate,
// simulate) write one deterministic JSON document on success and the
// JSON error envelope otherwise — a response is only ever written after
// the whole computation succeeded, so a deadline that fires
// mid-simulation yields a clean 504 and never a partial result. The
// streaming endpoints (grid, batch) emit NDJSON lines in deterministic
// input/index order (bench.InOrder sequences the concurrent workers),
// so repeated identical requests produce byte-identical streams.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"hsmcc/internal/bench"
	"hsmcc/internal/trace"
)

// CompileResponse answers /v1/compile.
type CompileResponse struct {
	Workload    string  `json:"workload"`
	Cores       int     `json:"cores"`
	Scale       float64 `json:"scale"`
	Funcs       int     `json:"funcs"`
	SourceBytes int     `json:"source_bytes"`
	// Spans is the request's span tree, present only with ?spans=1
	// (wall-clock timings are not deterministic).
	Spans *Span `json:"spans,omitempty"`
}

// TranslateResponse answers /v1/translate.
type TranslateResponse struct {
	Workload        string  `json:"workload"`
	Cores           int     `json:"cores"`
	Scale           float64 `json:"scale"`
	Policy          string  `json:"policy"`
	MPBBudget       int     `json:"mpb_budget"`
	OnChipBytes     int     `json:"onchip_bytes"`
	PlacementDigest string  `json:"placement_digest,omitempty"`
	Source          string  `json:"source"`
	// Spans is the request's span tree, present only with ?spans=1.
	Spans *Span `json:"spans,omitempty"`
}

// SimulateResponse answers /v1/simulate: the baseline and translated
// runs of one cell plus the differential check, in exact simulated
// picoseconds — deterministic, so repeats are byte-identical.
type SimulateResponse struct {
	Workload  string  `json:"workload"`
	Cores     int     `json:"cores"`
	Scale     float64 `json:"scale"`
	Policy    string  `json:"policy"`
	MPBBudget int     `json:"mpb_budget"`
	bench.Outcome
	// Trace is the Chrome trace_event document of the translated
	// (RCCE) simulation, present only with ?trace=1 — bulky, and only
	// recorded when this request actually ran the simulation.
	Trace *trace.Export `json:"trace,omitempty"`
	// Spans is the request's span tree, present only with ?spans=1.
	Spans *Span `json:"spans,omitempty"`
}

// GridRequest drives /v1/grid: a whole sweep through the shared cache,
// streamed back as one NDJSON bench.CellResult per line in
// deterministic cell-index order.
type GridRequest struct {
	Grid       bench.Grid `json:"grid"`
	Parallel   int        `json:"parallel,omitempty"`
	DeadlineMs int64      `json:"deadline_ms,omitempty"`
}

// BatchItem is one request of a /v1/batch mix.
type BatchItem struct {
	// Op selects the operation: compile, translate or simulate.
	Op string `json:"op"`
	SimRequest
}

// BatchRequest drives /v1/batch: heterogeneous items executed
// concurrently, answered as one NDJSON BatchLine per item in input
// order.
type BatchRequest struct {
	Items    []BatchItem `json:"items"`
	Parallel int         `json:"parallel,omitempty"`
	// DeadlineMs bounds the whole batch (every item shares it).
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// BatchLine is one /v1/batch result line. Exactly one of Error or the
// op's response field is set.
type BatchLine struct {
	Index     int                `json:"index"`
	Op        string             `json:"op"`
	Error     string             `json:"error,omitempty"`
	Status    int                `json:"status,omitempty"`
	Compile   *CompileResponse   `json:"compile,omitempty"`
	Translate *TranslateResponse `json:"translate,omitempty"`
	Simulate  *SimulateResponse  `json:"simulate,omitempty"`
}

// op is one entry of the op table (Server.ops) behind the
// single-object endpoints and batch items: weight is how many admission
// gate slots it charges, run computes its response. A grid charges one
// slot per cell, a batch the sum of its items' weights.
type op struct {
	weight int
	run    func(context.Context, *simCall) (any, error)
}

// admit charges weight slots against the in-flight gate, blocking (in
// the bounded FIFO queue) until slots free or ctx ends. On a shed it
// answers 503 + Retry-After itself and returns ok=false; otherwise the
// caller must defer the returned release.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, weight int) (func(), bool) {
	done := spansFrom(ctx).start("admission")
	release, err := s.gate.acquire(ctx, int64(weight))
	done()
	if err != nil {
		w.Header().Set("Retry-After", "1")
		status, msg := s.statusOf(err)
		writeError(w, status, msg)
		return nil, false
	}
	return release, true
}

// decodeSim is the shared front half of the single-object endpoints.
func (s *Server) decodeSim(w http.ResponseWriter, r *http.Request) (*simCall, bool) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return nil, false
	}
	done := spansFrom(r.Context()).start("decode")
	var req SimRequest
	if err := decodeJSON(r, &req); err != nil {
		done()
		status, msg := s.statusOf(err)
		writeError(w, status, msg)
		return nil, false
	}
	call, err := s.resolve(&req)
	done()
	if err != nil {
		status, msg := s.statusOf(err)
		writeError(w, status, msg)
		return nil, false
	}
	q := r.URL.Query()
	call.spans = q.Get("spans") == "1"
	call.trace = q.Get("trace") == "1"
	return call, true
}

// handleOp serves one single-object op: decode, deadline, admit, run,
// write.
func (s *Server) handleOp(o op) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		call, ok := s.decodeSim(w, r)
		if !ok {
			return
		}
		ctx, cancel := s.withDeadline(r.Context(), call.req.DeadlineMs)
		defer cancel()
		release, ok := s.admit(ctx, w, o.weight)
		if !ok {
			return
		}
		defer release()
		resp, err := o.run(ctx, call)
		if err != nil {
			status, msg := s.statusOf(err)
			writeError(w, status, msg)
			return
		}
		writeJSON(w, resp)
	}
}

func (s *Server) compile(ctx context.Context, c *simCall) (any, error) {
	cfg := s.config(ctx, c)
	pr, err := bench.CompileBaseline(c.workload, cfg)
	if err != nil {
		return nil, err
	}
	resp := &CompileResponse{
		Workload:    c.req.Workload,
		Cores:       c.req.Cores,
		Scale:       c.req.Scale,
		Funcs:       len(pr.Funcs),
		SourceBytes: len(c.workload.Source(c.req.Cores, c.req.Scale)),
	}
	if c.spans {
		resp.Spans = spansFrom(ctx).tree()
	}
	return resp, nil
}

func (s *Server) translate(ctx context.Context, c *simCall) (any, error) {
	cfg := s.config(ctx, c)
	tr, err := bench.TranslateWorkload(c.workload, cfg, c.policy)
	if err != nil {
		return nil, err
	}
	resp := &TranslateResponse{
		Workload:    c.req.Workload,
		Cores:       c.req.Cores,
		Scale:       c.req.Scale,
		Policy:      c.req.Policy,
		MPBBudget:   c.req.MPBBudget,
		OnChipBytes: tr.OnChipBytes,
		Source:      tr.Source,
	}
	if tr.Placement != nil {
		resp.PlacementDigest = tr.Placement.Digest()
	}
	if c.spans {
		resp.Spans = spansFrom(ctx).tree()
	}
	return resp, nil
}

func (s *Server) simulate(ctx context.Context, c *simCall) (any, error) {
	cfg := s.config(ctx, c)
	var rec *trace.Recorder
	if c.trace {
		// The translated (RCCE) run is never memoized, so the recorder
		// always observes this request's own simulation; the baseline
		// run may be a cache hit and is deliberately untraced.
		rec = trace.NewRecorder(nil, 0)
		cfg.Hooks.TraceRCCE = rec
	}
	both, err := bench.RunBothBackends(c.workload, cfg, c.policy)
	if err != nil {
		return nil, err
	}
	resp := &SimulateResponse{
		Workload:  c.req.Workload,
		Cores:     c.req.Cores,
		Scale:     c.req.Scale,
		Policy:    c.req.Policy,
		MPBBudget: c.req.MPBBudget,
		Outcome:   both.Outcome(),
	}
	if rec != nil {
		resp.Trace = rec.Export()
	}
	if c.spans {
		resp.Spans = spansFrom(ctx).tree()
	}
	return resp, nil
}

// validateGrid admits a grid spec under the server limits and returns
// its cell count. The count is the product of the axis lengths, taken
// without building a cell and cut short once it passes the limit (the
// refusal names the product so far), so a small body cannot make the
// daemon build millions of cells to refuse them.
func (s *Server) validateGrid(g bench.Grid) (int, error) {
	if err := g.Validate(); err != nil {
		return 0, errBadRequest("%v", err)
	}
	workloads := len(g.Workloads)
	if workloads == 0 {
		workloads = len(bench.All())
	}
	cells := 1
	for _, axis := range []int{workloads, len(g.Cores), len(g.Policies), max(len(g.MPBBudgets), 1)} {
		if cells *= axis; cells > s.limits.MaxGridCells {
			return 0, errBadRequest("grid has %d cells, limit %d", cells, s.limits.MaxGridCells)
		}
	}
	scale := g.Scale
	if scale == 0 {
		scale = 1.0
	}
	return cells, s.checkWork(scale, g.Cores, g.Workloads)
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req GridRequest
	if err := decodeJSON(r, &req); err != nil {
		status, msg := s.statusOf(err)
		writeError(w, status, msg)
		return
	}
	cells, err := s.validateGrid(req.Grid)
	if err != nil {
		status, msg := s.statusOf(err)
		writeError(w, status, msg)
		return
	}
	ctx, cancel := s.withDeadline(r.Context(), req.DeadlineMs)
	defer cancel()
	release, ok := s.admit(ctx, w, cells)
	if !ok {
		return
	}
	defer release()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	_, err = bench.RunGrid(req.Grid, bench.RunOptions{
		Parallel: req.Parallel,
		Cache:    s.cache,
		Hooks:    bench.Hooks{Cancel: ctx.Err, Fault: s.fault},
		OnResult: func(res bench.CellResult) {
			// Callbacks arrive serialized in cell-index order; each line
			// is one CellResult. Once the request context has ended,
			// remaining cells are all canceled noise — suppress them and
			// let the terminal stream record below tell the story.
			if ctx.Err() != nil {
				return
			}
			started = true
			enc.Encode(res)
			if flusher != nil {
				flusher.Flush()
			}
		},
	})
	if err != nil {
		// Spec errors surface before any cell ran (Validate re-run), so
		// the stream is still clean here in practice; report and stop.
		status, msg := s.statusOf(err)
		if started {
			writeStreamError(w, status, msg)
		} else {
			writeError(w, status, msg)
		}
		return
	}
	if cerr := ctx.Err(); cerr != nil {
		// The deadline (or a drain cancel) cut the run short. If lines
		// already went out, close the stream with the terminal error
		// record so the client can tell truncation from completion;
		// otherwise the plain error envelope still fits.
		status, msg := s.statusOf(cerr)
		if started {
			writeStreamError(w, status, msg)
		} else {
			writeError(w, status, msg)
		}
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		status, msg := s.statusOf(err)
		writeError(w, status, msg)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > s.limits.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, limit %d", len(req.Items), s.limits.MaxBatch))
		return
	}
	ctx, cancel := s.withDeadline(r.Context(), req.DeadlineMs)
	defer cancel()
	weight := 0
	for _, item := range req.Items {
		weight += max(s.ops[item.Op].weight, 1) // an unknown op still charges one slot
	}
	release, ok := s.admit(ctx, w, weight)
	if !ok {
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	lines := make([]BatchLine, len(req.Items))
	bench.InOrder(len(req.Items), req.Parallel, func(i int) {
		lines[i] = s.runBatchItemSafe(ctx, i, req.Items[i])
	}, func(i int) {
		enc.Encode(lines[i])
		if flusher != nil {
			flusher.Flush()
		}
	})
}

// runBatchItemSafe is runBatchItem behind a panic boundary: batch items
// run on worker goroutines where the instrument-level recover cannot
// reach, so an unrecovered panic there would kill the process. Instead
// it costs exactly its item — a 500-status error line in the stream.
func (s *Server) runBatchItemSafe(ctx context.Context, idx int, item BatchItem) (line BatchLine) {
	defer func() {
		if v := recover(); v != nil {
			s.metrics.panicked()
			line = BatchLine{
				Index:  idx,
				Op:     item.Op,
				Status: http.StatusInternalServerError,
				Error:  fmt.Sprintf("panic: %v", v),
			}
		}
	}()
	return s.runBatchItem(ctx, idx, item)
}

// runBatchItem executes one batch item, mapping failures to an
// error-carrying line instead of failing the stream.
func (s *Server) runBatchItem(ctx context.Context, idx int, item BatchItem) BatchLine {
	line := BatchLine{Index: idx, Op: item.Op}
	fail := func(err error) BatchLine {
		line.Status, line.Error = s.statusOf(err)
		return line
	}
	call, err := s.resolve(&item.SimRequest)
	if err != nil {
		return fail(err)
	}
	o, ok := s.ops[item.Op]
	if !ok {
		return fail(errBadRequest("unknown op %q (want compile, translate or simulate)", item.Op))
	}
	resp, err := o.run(ctx, call)
	if err != nil {
		return fail(err)
	}
	switch resp := resp.(type) {
	case *CompileResponse:
		line.Compile = resp
	case *TranslateResponse:
		line.Translate = resp
	case *SimulateResponse:
		line.Simulate = resp
	}
	return line
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	snap := s.metrics.Snapshot(s.cache.Stats(), s.gate.stats(), s.draining.Load())
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, snap)
	case "prometheus":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		renderPrometheus(w, snap)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown metrics format %q (want json or prometheus)", format))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		// Draining: tell the load balancer to take us out of rotation
		// while in-flight work finishes.
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}
