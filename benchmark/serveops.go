package main

// serve_warm: "HTTP request in -> response bytes out". The daemon's
// handler runs on a loopback listener inside the benchmark process;
// procs keep-alive clients replay a seeded request sequence against its
// warm cache, and every response must equal, byte for byte, the response
// the identical request got during set-up.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"hsmcc/internal/serve"
)

// serveCacheBytes is the daemon cache bound: large enough that the hot
// set never evicts.
const serveCacheBytes = 256 << 20

type serveInst struct {
	reqs  []serveReq
	procs int

	srv     *http.Server
	served  chan struct{} // closed when srv.Serve has returned
	base    string
	clients []*http.Client

	// distinct maps a request to its index in bodies/expected/digests.
	distinct map[serveReq]int
	bodies   [][]byte
	// expected[d] is the set-up response to distinct request d; its
	// digest and (for simulate) simulated speed-up are derived once.
	expected [][]byte
	digests  [][sha256.Size]byte
	speedups [][]float64
}

func setupServeWarm(seed int64, opt options) (instance, error) {
	s := &serveInst{reqs: drawServeWarm(seed, opt.quick), procs: opt.procs, distinct: make(map[serveReq]int)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: serve.New(serve.Options{CacheBytes: serveCacheBytes}).Handler()}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns once close() shuts the server down
	}()
	for i := 0; i < s.procs; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	// Prewarm: issue every distinct request once and keep its bytes.
	for _, r := range s.reqs {
		r = canonical(r)
		if _, ok := s.distinct[r]; ok {
			continue
		}
		body, err := json.Marshal(struct {
			Workload string  `json:"workload"`
			Cores    int     `json:"cores"`
			Scale    float64 `json:"scale"`
			Policy   string  `json:"policy,omitempty"`
		}{r.Key, r.Cores, serveScale, r.Policy})
		if err != nil {
			s.close()
			return nil, err
		}
		s.distinct[r] = len(s.bodies)
		s.bodies = append(s.bodies, body)
		status, resp, err := s.post(0, r.Endpoint, "", body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, resp)
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("prewarm %s %s: %w", r.Endpoint, r.Key, err)
		}
		var sp []float64
		if r.Endpoint == "simulate" {
			var sim serve.SimulateResponse
			if err := json.Unmarshal(resp, &sim); err != nil || !sim.Match || sim.RCCEPs == 0 {
				s.close()
				return nil, fmt.Errorf("prewarm simulate %s: bad response (match=%v, err=%v)", r.Key, sim.Match, err)
			}
			sp = []float64{float64(sim.BaselinePs) / float64(sim.RCCEPs)}
		}
		s.expected = append(s.expected, resp)
		s.digests = append(s.digests, sha256.Sum256(resp))
		s.speedups = append(s.speedups, sp)
	}
	return s, nil
}

func (s *serveInst) size() int    { return len(s.reqs) }
func (s *serveInst) workers() int { return s.procs }

func (s *serveInst) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.srv.Close()
	<-s.served
}

// canonical drops what the endpoint ignores: /v1/compile has no policy.
func canonical(r serveReq) serveReq {
	if r.Endpoint == "compile" {
		r.Policy = ""
	}
	return r
}

// id resolves a request of the list to its distinct-request index.
func (s *serveInst) id(r serveReq) int { return s.distinct[canonical(r)] }

func (s *serveInst) post(worker int, endpoint, query string, body []byte) (int, []byte, error) {
	resp, err := s.clients[worker].Post(s.base+"/v1/"+endpoint+query, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *serveInst) run(worker, i int) outcome {
	r := s.reqs[i]
	d := s.id(r)
	status, resp, err := s.post(worker, r.Endpoint, "", s.bodies[d])
	switch {
	case err != nil:
		return outcome{fail: err.Error()}
	case status != http.StatusOK:
		return outcome{fail: fmt.Sprintf("%s %s: status %d", r.Endpoint, r.Key, status)}
	case !bytes.Equal(resp, s.expected[d]):
		return outcome{fail: fmt.Sprintf("%s %s: response differs from the prewarm response", r.Endpoint, r.Key)}
	}
	return outcome{digest: s.digests[d], speedups: s.speedups[d]}
}

// metricsSnapshot fetches GET /metrics.
func (s *serveInst) metricsSnapshot() (serve.MetricsSnapshot, error) {
	var snap serve.MetricsSnapshot
	resp, err := s.clients[0].Get(s.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// eachClient runs f(worker, i) for i in [0, n) on procs closed-loop
// clients and returns the wall time.
func (s *serveInst) eachClient(n int, f func(worker, i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < s.procs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(w, i)
			}
		}(w)
	}
	wg.Wait()
	return time.Since(t0)
}

var computeStages = map[string]bool{"compile": true, "translate": true, "baseline": true, "simulate": true, "profile": true}

func (s *serveInst) traced(tr *tracer, led ledger) tracedResult {
	var res tracedResult
	var mu sync.Mutex // guards res and the per-request samples below
	q := len(s.reqs)
	outs := make([]outcome, q)

	// Pass A, untraced: client-side latency per endpoint, and the
	// daemon's own counters over exactly these requests.
	before, err := s.metricsSnapshot()
	if err != nil {
		res.fail(-1, "GET /metrics: "+err.Error())
		return res
	}
	byEndpoint := make(map[string][]float64)
	var all []float64
	var bytesOut int
	res.plain = s.eachClient(q, func(w, i int) {
		t0 := time.Now()
		out := s.run(w, i)
		lat := ms(time.Since(t0))
		mu.Lock()
		defer mu.Unlock()
		outs[i] = out
		ep := s.reqs[i].Endpoint
		byEndpoint[ep] = append(byEndpoint[ep], lat)
		all = append(all, lat)
		bytesOut += len(s.expected[s.id(s.reqs[i])])
		if out.fail != "" {
			res.fail(i, out.fail)
		}
	})
	after, err := s.metricsSnapshot()
	if err != nil {
		res.fail(-1, "GET /metrics: "+err.Error())
		return res
	}
	res.digest = digestOf(outs)
	for _, ep := range []string{"compile", "translate", "simulate"} {
		a, b := after.Endpoints[ep], before.Endpoints[ep]
		led.add("serve.requests", float64(a.Requests-b.Requests))
		for status, n := range a.ByStatus {
			led.add(fmt.Sprintf("serve.status_%dxx", status/100), float64(n-b.ByStatus[status]))
		}
		led["serve."+ep+"_ms_p50"] = percentile(sortedCopy(byEndpoint[ep]), 50)
	}
	led["serve.req_ms_p99"] = percentile(sortedCopy(all), 99)
	led["serve.bytes_out"] = float64(bytesOut)
	led["serve.shed"] = float64(after.Overload.Shed)
	led["serve.inflight_peak"] = float64(after.Overload.PeakInUse)
	// The daemon cache's lookups and computes over exactly these
	// requests; entries, evictions and cost are its state afterwards.
	cache := after.Cache
	cache.Hits -= before.Cache.Hits
	cache.Misses -= before.Cache.Misses
	cache.ProgramCompiles -= before.Cache.ProgramCompiles
	cache.TranslateRuns -= before.Cache.TranslateRuns
	cache.BaselineRuns -= before.Cache.BaselineRuns
	cache.ProfileRuns -= before.Cache.ProfileRuns
	addCacheStats(led, cache)

	// Pass B: the same requests with ?spans=1; the daemon's span tree is
	// hung under the client's span of the request.
	var decode, admission, compute, other []float64
	var computeUs, clientUs float64
	tracks := make([]*track, s.procs)
	for w := range tracks {
		tracks[w] = tr.track(w)
	}
	res.traced = s.eachClient(q, func(w, i int) {
		r := s.reqs[i]
		d := s.id(r)
		k := tracks[w]
		k.op = i
		end := k.begin("serve." + r.Endpoint)
		request := k.last
		t0 := time.Now()
		status, resp, err := s.post(w, r.Endpoint, "?spans=1", s.bodies[d])
		client := time.Since(t0)
		var tree *serve.Span
		if err == nil && status == http.StatusOK {
			tree, err = splitSpans(resp, s.expected[d])
		} else if err == nil {
			err = fmt.Errorf("status %d", status)
		}
		end()
		if tree != nil {
			importSpans(k, request, tree)
		}
		mu.Lock()
		defer mu.Unlock()
		res.attempted++
		if err != nil {
			res.fail(i, fmt.Sprintf("%s %s with spans: %v", r.Endpoint, r.Key, err))
			return
		}
		var dec, adm, comp, children float64
		for _, c := range tree.Children {
			children += float64(c.DurUs)
			switch {
			case c.Name == "decode":
				dec += float64(c.DurUs)
			case c.Name == "admission":
				adm += float64(c.DurUs)
			case computeStages[c.Name]:
				comp += float64(c.DurUs)
			}
		}
		decode = append(decode, dec)
		admission = append(admission, adm)
		compute = append(compute, comp)
		other = append(other, max(0, float64(tree.DurUs)-children))
		computeUs += comp
		clientUs += float64(client) / float64(time.Microsecond)
	})
	led["serve.span.decode_us_p50"] = percentile(sortedCopy(decode), 50)
	led["serve.span.admission_us_p50"] = percentile(sortedCopy(admission), 50)
	led["serve.span.compute_us_p50"] = percentile(sortedCopy(compute), 50)
	led["serve.span.other_us_p50"] = percentile(sortedCopy(other), 50)
	led["serve.compute_share"] = ratio(computeUs, clientUs)
	return res
}

// splitSpans takes a ?spans=1 response apart: the span tree, and the
// rest of the document, which must equal the expected (span-free)
// response.
func splitSpans(resp, expected []byte) (*serve.Span, error) {
	var got, want map[string]json.RawMessage
	if err := json.Unmarshal(resp, &got); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(expected, &want); err != nil {
		return nil, err
	}
	raw, ok := got["spans"]
	if !ok {
		return nil, fmt.Errorf("response carries no span tree")
	}
	delete(got, "spans")
	if len(got) != len(want) {
		return nil, fmt.Errorf("response has %d fields, expected %d", len(got), len(want))
	}
	for name, v := range want {
		if !bytes.Equal(got[name], v) {
			return nil, fmt.Errorf("field %q differs from the prewarm response", name)
		}
	}
	var tree serve.Span
	if err := json.Unmarshal(raw, &tree); err != nil {
		return nil, err
	}
	return &tree, nil
}

// importSpans records the daemon's span tree as modelled descendants of
// the client's span of the request. The daemon's clock starts when it
// accepted the request, which the client cannot see; offsets are taken
// from the client span's start, so server spans sit slightly early.
func importSpans(k *track, request int, tree *serve.Span) {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	base := k.t.startOf(request)
	var walk func(sp *serve.Span, parent int)
	walk = func(sp *serve.Span, parent int) {
		id := k.modelled("serve.span."+sp.Name, parent, base+us(sp.StartUs), us(sp.DurUs))
		for _, c := range sp.Children {
			walk(c, id)
		}
	}
	walk(tree, request)
}
