package serve

// FuzzServeRequest hammers the daemon's admission surface — the JSON
// request decoder, the limit checks and the synth-key parser behind
// them — with arbitrary bodies. The property is total: any input either
// resolves or returns an error; nothing panics, and a synth key that
// parses must round-trip through its canonical re-encoding. No
// simulations run here (decode/resolve only), so the fuzzer gets
// millions of executions, not dozens.

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"hsmcc/internal/synth"
)

func FuzzServeRequest(f *testing.F) {
	for _, tc := range goldenCases() {
		if tc.method != "POST" {
			continue
		}
		var sel uint8
		switch tc.path {
		case "/v1/grid":
			sel = 1
		case "/v1/batch":
			sel = 2
		}
		f.Add(sel, []byte(tc.body))
	}
	f.Add(uint8(0), []byte(`{"workload":"synth:s1:o24:m0.5:l1:h0:d2:a8:p8:r1:kf","cores":3,"scale":0.5}`))
	f.Add(uint8(0), []byte(`{"workload":"synth:s-1:o0:m2:l-1:h1e308:d0:a0:p0:r0:kx"}`))
	f.Add(uint8(1), []byte(`{"grid":{"workloads":["synth:"],"cores":[0],"policies":[""]}}`))
	f.Add(uint8(1), []byte(`{"grid":{"workloads":["pi"],"cores":[1],"policies":["size"]},"engine":"treewalk"}`))

	s := New(Options{})
	f.Fuzz(func(t *testing.T, sel uint8, body []byte) {
		r := httptest.NewRequest("POST", "/v1/x", bytes.NewReader(body))
		switch sel % 3 {
		case 0:
			var req SimRequest
			if err := decodeJSON(r, &req); err != nil {
				return
			}
			workload := req.Workload
			if _, err := s.resolve(&req); err == nil && synth.IsKey(workload) {
				// Admitted synth keys must round-trip: parse, re-encode,
				// re-parse to the same vector.
				p, err := synth.ParseKey(workload)
				if err != nil {
					t.Fatalf("resolve admitted unparseable synth key %q: %v", workload, err)
				}
				p2, err := synth.ParseKey(p.Key())
				if err != nil || p2 != p {
					t.Fatalf("synth key %q does not round-trip: %+v vs %+v (%v)", workload, p, p2, err)
				}
			}
		case 1:
			var req GridRequest
			if err := decodeJSON(r, &req); err != nil {
				return
			}
			s.validateGrid(req.Grid)
		case 2:
			var req BatchRequest
			if err := decodeJSON(r, &req); err != nil {
				return
			}
			for i := range req.Items {
				s.resolve(&req.Items[i].SimRequest)
			}
		}
	})
}
