package serve

// The endpoint integration suite: every endpoint exercised over real
// HTTP (httptest) against golden request/response pairs — success
// bodies, error envelopes, method rejections — plus the two dynamic
// properties goldens cannot pin: warm-vs-cold byte identity and
// cancellation consistency. Regenerate goldens with
// `go test ./internal/serve -run TestGolden -update` after an
// intentional response-shape or simulator change.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, ts *httptest.Server, method, path, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// goldenCase is one request/response pair of the conformance suite.
type goldenCase struct {
	name   string
	method string
	path   string
	body   string
	status int
}

// goldenCases covers every endpoint: the success path and each
// distinct error path (validation, admission limits, method, body
// framing). Scales are tiny — the suite pins shapes and statuses, the
// load-test harness pins behavior at volume.
func goldenCases() []goldenCase {
	return []goldenCase{
		{"compile_ok", "POST", "/v1/compile", `{"workload":"pi","cores":2,"scale":0.01}`, 200},
		{"compile_synth_ok", "POST", "/v1/compile", `{"workload":"synth:s7:o24:m0.5:l0.5:h0.25:d2:a8:p8:r2:ki","cores":2}`, 200},
		{"translate_ok", "POST", "/v1/translate", `{"workload":"pi","cores":2,"scale":0.01,"policy":"size"}`, 200},
		{"simulate_ok", "POST", "/v1/simulate", `{"workload":"pi","cores":2,"scale":0.01,"policy":"size"}`, 200},
		{"simulate_offchip_ok", "POST", "/v1/simulate", `{"workload":"dot","cores":2,"scale":0.01,"policy":"offchip"}`, 200},
		{"grid_ok", "POST", "/v1/grid", `{"grid":{"name":"t","workloads":["pi"],"cores":[1,2],"policies":["offchip","size"],"scale":0.01}}`, 200},
		{"batch_ok", "POST", "/v1/batch", `{"items":[{"op":"compile","workload":"pi","cores":2,"scale":0.01},{"op":"simulate","workload":"pi","cores":2,"scale":0.01}]}`, 200},
		{"healthz_ok", "GET", "/healthz", "", 200},

		// Error paths: validation.
		{"err_missing_workload", "POST", "/v1/simulate", `{"cores":2}`, 400},
		{"err_unknown_workload", "POST", "/v1/simulate", `{"workload":"nope"}`, 400},
		{"err_bad_synth_key", "POST", "/v1/simulate", `{"workload":"synth:garbage"}`, 400},
		{"err_synth_over_budget", "POST", "/v1/simulate", `{"workload":"synth:s1:o65536:m0.5:l0.5:h0.25:d2:a8:p8:r8:ki"}`, 400},
		{"err_over_limit_cores", "POST", "/v1/simulate", `{"workload":"pi","cores":1048576}`, 400},
		{"err_over_limit_scale", "POST", "/v1/simulate", `{"workload":"pi","scale":1000000}`, 400},
		{"err_negative_budget", "POST", "/v1/simulate", `{"workload":"pi","mpb_budget":-1}`, 400},
		{"err_budget_over_mpb", "POST", "/v1/translate", `{"workload":"pi","mpb_budget":99999999}`, 400},
		{"err_bad_policy", "POST", "/v1/simulate", `{"workload":"pi","policy":"mystery"}`, 400},
		{"err_engine_field_rejected", "POST", "/v1/simulate", `{"workload":"pi","cores":2,"scale":0.01,"engine":"treewalk"}`, 400},

		// Error paths: body framing.
		{"err_bad_json", "POST", "/v1/simulate", `{"workload":`, 400},
		{"err_unknown_field", "POST", "/v1/simulate", `{"workload":"pi","surprise":1}`, 400},
		{"err_trailing_data", "POST", "/v1/simulate", `{"workload":"pi"}{"workload":"pi"}`, 400},

		// Error paths: method and batch/grid admission.
		{"err_get_on_post", "GET", "/v1/simulate", "", 405},
		{"err_post_on_metrics", "POST", "/metrics", "", 405},
		{"err_empty_batch", "POST", "/v1/batch", `{"items":[]}`, 400},
		{"err_batch_unknown_op", "POST", "/v1/batch", `{"items":[{"op":"explode","workload":"pi","cores":2,"scale":0.01}]}`, 200},
		{"err_grid_bad_cores", "POST", "/v1/grid", `{"grid":{"name":"t","workloads":["pi"],"cores":[1048576],"policies":["size"],"scale":0.01}}`, 400},
		{"err_grid_bad_synth", "POST", "/v1/grid", `{"grid":{"name":"t","workloads":["synth:zzz"],"cores":[2],"policies":["size"],"scale":0.01}}`, 400},
	}
}

// TestGoldenEndpoints replays every case against one server and
// compares status + body with the checked-in golden bytes.
func TestGoldenEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(t, ts, tc.method, tc.path, tc.body)
			if status != tc.status {
				t.Fatalf("status %d, want %d; body: %s", status, tc.status, body)
			}
			got := fmt.Sprintf("status: %d\n%s", status, body)
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("response diverged from golden %s:\n got: %s\nwant: %s", path, got, want)
			}
		})
	}
}

// TestEngineFieldRejected: no endpoint accepts an execution-engine
// selector — a client cannot ask the server for goroutine-backed
// contexts. The strict decoder refuses the field on batch items and grid
// requests as it does on /v1/simulate (the err_engine_field_rejected
// golden).
func TestEngineFieldRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for path, body := range map[string]string{
		"/v1/batch": `{"items":[{"op":"simulate","workload":"pi","cores":2,"scale":0.01,"engine":"treewalk"}]}`,
		"/v1/grid":  `{"grid":{"name":"t","workloads":["pi"],"cores":[1],"policies":["size"],"scale":0.01},"engine":"treewalk"}`,
	} {
		status, got := do(t, ts, "POST", path, body)
		if status != http.StatusBadRequest || !strings.Contains(got, `unknown field \"engine\"`) {
			t.Errorf("%s: status %d body %s, want 400 naming the engine field", path, status, got)
		}
	}
}

// TestWarmColdByteIdentity pins the determinism contract: the same
// simulate request answers byte-identically from a cold cache, from a
// warm cache, and from a different server instance entirely.
func TestWarmColdByteIdentity(t *testing.T) {
	const req = `{"workload":"dot","cores":4,"scale":0.02,"policy":"size"}`
	_, a := newTestServer(t, Options{})
	status, cold := do(t, a, "POST", "/v1/simulate", req)
	if status != 200 {
		t.Fatalf("cold status %d: %s", status, cold)
	}
	_, warm := do(t, a, "POST", "/v1/simulate", req)
	if warm != cold {
		t.Fatalf("warm response diverged from cold:\nwarm: %s\ncold: %s", warm, cold)
	}
	_, b := newTestServer(t, Options{})
	_, other := do(t, b, "POST", "/v1/simulate", req)
	if other != cold {
		t.Fatalf("fresh-server response diverged:\nother: %s\n cold: %s", other, cold)
	}
	// The streaming endpoints carry the same contract.
	const grid = `{"grid":{"name":"t","workloads":["pi"],"cores":[1,2],"policies":["offchip","size"],"scale":0.01},"parallel":2}`
	_, g1 := do(t, a, "POST", "/v1/grid", grid)
	_, g2 := do(t, a, "POST", "/v1/grid", grid)
	if g1 != g2 {
		t.Fatalf("grid stream diverged between warm repeats:\n1: %s\n2: %s", g1, g2)
	}
}

// TestDeadline504NoPartialResults pins the deadline contract: a
// simulate whose budget fires mid-run answers 504 with exactly the
// JSON error envelope — no partial simulation fields ever leak.
func TestDeadline504NoPartialResults(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := do(t, ts, "POST", "/v1/simulate",
		`{"workload":"lu","cores":8,"scale":0.5,"deadline_ms":1}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body: %s", status, body)
	}
	var envelope struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&envelope); err != nil {
		t.Fatalf("504 body is not the bare error envelope: %v\nbody: %s", err, body)
	}
	if envelope.Status != 504 || envelope.Error == "" {
		t.Fatalf("malformed error envelope: %+v", envelope)
	}
	if strings.Contains(body, "baseline_ps") || strings.Contains(body, "speedup") {
		t.Fatalf("504 body leaks simulation fields: %s", body)
	}
}

// TestSimulateCancelConsistency is the cache-consistency half of the
// cancellation story: a request canceled mid-simulation must stop the
// stepper promptly (bounded 504 latency), must not poison the cache
// with partial or errored entries, and an identical request afterwards
// must produce the same bytes as a never-canceled server.
func TestSimulateCancelConsistency(t *testing.T) {
	const req = `{"workload":"lu","cores":8,"scale":0.3,"policy":"size"}`
	const doomed = `{"workload":"lu","cores":8,"scale":0.3,"policy":"size","deadline_ms":1}`

	// Reference: the request on a server that never saw a cancellation.
	_, clean := newTestServer(t, Options{})
	status, want := do(t, clean, "POST", "/v1/simulate", req)
	if status != 200 {
		t.Fatalf("reference run failed: %d %s", status, want)
	}

	// Victim server: cancel the same work mid-flight, repeatedly.
	s, ts := newTestServer(t, Options{})
	sawCancel := false
	for i := 0; i < 3; i++ {
		status, body := do(t, ts, "POST", "/v1/simulate", doomed)
		switch status {
		case http.StatusGatewayTimeout:
			sawCancel = true
		case http.StatusOK:
			// A warm cache can beat even 1 ms; fine.
		default:
			t.Fatalf("doomed request %d: status %d: %s", i, status, body)
		}
	}
	if !sawCancel {
		t.Skip("no doomed request actually timed out — host too fast for the 1ms budget to fire")
	}

	// The canceled computations must not have been cached as errors:
	// the full request now succeeds and matches the clean server
	// byte-for-byte.
	status, got := do(t, ts, "POST", "/v1/simulate", req)
	if status != 200 {
		t.Fatalf("post-cancel run failed: %d %s — a canceled computation poisoned the cache", status, got)
	}
	if got != want {
		t.Fatalf("post-cancel response diverged from never-canceled server:\n got: %s\nwant: %s", got, want)
	}
	if s.Cache().Stats().Entries == 0 {
		t.Fatal("cache is empty after a successful run")
	}
}

// TestMetricsSnapshot sanity-checks /metrics after traffic: request
// counts, status buckets and cache counters must reflect what happened.
func TestMetricsSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	do(t, ts, "POST", "/v1/simulate", `{"workload":"pi","cores":2,"scale":0.01}`)
	do(t, ts, "POST", "/v1/simulate", `{"workload":"pi","cores":2,"scale":0.01}`)
	do(t, ts, "POST", "/v1/simulate", `{"workload":"nope"}`)
	status, body := do(t, ts, "GET", "/metrics", "")
	if status != 200 {
		t.Fatalf("metrics status %d", status)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	sim := snap.Endpoints["simulate"]
	if sim.Requests != 3 {
		t.Fatalf("simulate requests %d, want 3", sim.Requests)
	}
	if sim.ByStatus[200] != 2 || sim.ByStatus[400] != 1 {
		t.Fatalf("simulate status counts %v, want 200:2 400:1", sim.ByStatus)
	}
	if snap.Cache.Hits == 0 {
		t.Fatal("repeat request produced no cache hit")
	}
	if snap.CacheHitRate <= 0 {
		t.Fatal("cache hit rate is zero after a warm repeat")
	}
}

// TestBodyTooLarge pins the request-size bound.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	big := `{"workload":"pi","policy":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	status, _ := do(t, ts, "POST", "/v1/simulate", big)
	if status != 400 {
		t.Fatalf("oversized body got status %d, want 400", status)
	}
}

// TestGridOverLimitRefusedUnbuilt pins the cell limit's cost: a 6 KB
// body asking for 10^6 cells (1000 copies of one core count times 1000
// copies of one budget) is refused with the limit message before a
// single cell is built.
func TestGridOverLimitRefusedUnbuilt(t *testing.T) {
	s := New(Options{})
	body := `{"grid":{"name":"t","workloads":["pi"],"cores":[4` + strings.Repeat(",4", 999) +
		`],"policies":["size"],"mpb_budgets":[0` + strings.Repeat(",0", 999) + `]}}`
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/grid", strings.NewReader(body))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	want := `{"error":"grid has 1000000 cells, limit 4096","status":400}` + "\n"
	if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
		t.Fatalf("status %d body %q, want 400 %q", rec.Code, rec.Body.String(), want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("refusing the grid allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestBatchDeterminism is TestGridDeterminism for batches: one body,
// mixing every op, a profiled placement and failing items, answers
// byte-identically with one worker and with eight.
func TestBatchDeterminism(t *testing.T) {
	const items = `"items":[` +
		`{"op":"simulate","workload":"dot","cores":4,"scale":0.02},` +
		`{"op":"compile","workload":"pi","cores":2,"scale":0.01},` +
		`{"op":"translate","workload":"hist","cores":2,"scale":0.01,"policy":"profiled"},` +
		`{"op":"explode","workload":"pi"},` +
		`{"op":"simulate","workload":"pi","cores":-1},` +
		`{"op":"simulate","workload":"hist","cores":3,"scale":0.01,"policy":"offchip","mpb_budget":512},` +
		`{"op":"simulate","workload":"nope"},` +
		`{"op":"compile","workload":"stream","cores":4,"scale":0.01}]`
	var streams [2]string
	for i, parallel := range []int{1, 8} {
		_, ts := newTestServer(t, Options{})
		status, got := do(t, ts, "POST", "/v1/batch", fmt.Sprintf(`{%s,"parallel":%d}`, items, parallel))
		if status != http.StatusOK || strings.Count(got, "\n") != 8 {
			t.Fatalf("parallel %d: status %d, want 200 and 8 lines:\n%s", parallel, status, got)
		}
		streams[i] = got
	}
	if streams[0] != streams[1] {
		t.Errorf("batch stream differs between parallel 1 and 8\n--- 1 ---\n%s--- 8 ---\n%s", streams[0], streams[1])
	}
}
