package serve

// The /metrics surface: per-endpoint request counts, status counts and
// latency histograms, the in-flight gauge, goroutine count, and the
// shared cache's stats (compute counters, hit/miss, LRU cost and
// evictions). Everything is a plain JSON document — no scrape-format
// dependency — and cheap enough to poll from the load-test harness
// after every scenario.

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"hsmcc/internal/bench"
)

// latencyBucketBoundsMs are the histogram's upper bounds; an implicit
// +Inf bucket follows the last.
var latencyBucketBoundsMs = []int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Metrics is the daemon's counter registry. Safe for concurrent use.
type Metrics struct {
	mu        sync.Mutex
	start     time.Time
	inFlight  int
	panics    int64
	endpoints map[string]*endpointCounters
}

type endpointCounters struct {
	requests int64
	byStatus map[int]int64
	buckets  []int64 // len(latencyBucketBoundsMs)+1, last = +Inf
	// totalUs accumulates latency in microseconds: most requests on a
	// warm cache finish well under a millisecond, so a millisecond
	// accumulator would truncate nearly all of them to zero and report
	// an average of 0ms under exactly the load the cache is for.
	totalUs int64
}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now(), endpoints: make(map[string]*endpointCounters)}
}

func (m *Metrics) endpoint(name string) *endpointCounters {
	e, ok := m.endpoints[name]
	if !ok {
		e = &endpointCounters{
			byStatus: make(map[int]int64),
			buckets:  make([]int64, len(latencyBucketBoundsMs)+1),
		}
		m.endpoints[name] = e
	}
	return e
}

func (m *Metrics) requestStarted(name string) {
	m.mu.Lock()
	m.inFlight++
	m.endpoint(name).requests++
	m.mu.Unlock()
}

func (m *Metrics) requestFinished(name string, status int, d time.Duration) {
	us := d.Microseconds()
	bucket := len(latencyBucketBoundsMs)
	for i, bound := range latencyBucketBoundsMs {
		// Bucket bounds stay in milliseconds (the published histogram
		// shape); comparing in microseconds keeps sub-ms requests from
		// all rounding into the first bucket's floor.
		if us <= bound*1000 {
			bucket = i
			break
		}
	}
	m.mu.Lock()
	m.inFlight--
	e := m.endpoint(name)
	e.byStatus[status]++
	e.buckets[bucket]++
	e.totalUs += us
	m.mu.Unlock()
}

// InFlight reports the current number of requests being served.
func (m *Metrics) InFlight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inFlight
}

// panicked counts one recovered panic (handler or compute).
func (m *Metrics) panicked() {
	m.mu.Lock()
	m.panics++
	m.mu.Unlock()
}

// Panics reports the recovered-panic count.
func (m *Metrics) Panics() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.panics
}

// EndpointSnapshot is one endpoint's counters at snapshot time.
type EndpointSnapshot struct {
	Requests int64 `json:"requests"`
	// ByStatus maps HTTP status to count.
	ByStatus map[int]int64 `json:"by_status"`
	// LatencyBucketMs are the histogram upper bounds (ms); the counts
	// align index-wise, with one extra final +Inf count.
	LatencyBucketMs []int64 `json:"latency_bucket_ms"`
	LatencyCounts   []int64 `json:"latency_counts"`
	AvgLatencyMs    float64 `json:"avg_latency_ms"`
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	UptimeMs   int64 `json:"uptime_ms"`
	InFlight   int   `json:"in_flight"`
	Goroutines int   `json:"goroutines"`
	// Panics counts recovered panics (handler and compute); each cost
	// exactly one request, never the process.
	Panics int64 `json:"panics"`
	// Draining reports whether the server has begun shutting down.
	Draining bool `json:"draining"`
	// Overload is the admission gate: slot occupancy, queue depth, shed
	// count.
	Overload  OverloadSnapshot            `json:"overload"`
	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
	// EndpointNames is sorted, for stable iteration by text consumers.
	EndpointNames []string         `json:"endpoint_names"`
	Cache         bench.CacheStats `json:"cache"`
	CacheHitRate  float64          `json:"cache_hit_rate"`
}

// Snapshot captures the registry plus the given cache stats and
// control-plane state.
func (m *Metrics) Snapshot(cache bench.CacheStats, overload OverloadSnapshot, draining bool) MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := MetricsSnapshot{
		UptimeMs:     time.Since(m.start).Milliseconds(),
		InFlight:     m.inFlight,
		Goroutines:   runtime.NumGoroutine(),
		Panics:       m.panics,
		Draining:     draining,
		Overload:     overload,
		Endpoints:    make(map[string]EndpointSnapshot, len(m.endpoints)),
		Cache:        cache,
		CacheHitRate: cache.HitRate(),
	}
	for name, e := range m.endpoints {
		es := EndpointSnapshot{
			Requests:        e.requests,
			ByStatus:        make(map[int]int64, len(e.byStatus)),
			LatencyBucketMs: latencyBucketBoundsMs,
			LatencyCounts:   append([]int64(nil), e.buckets...),
		}
		for k, v := range e.byStatus {
			es.ByStatus[k] = v
		}
		var finished int64
		for _, c := range e.buckets {
			finished += c
		}
		if finished > 0 {
			es.AvgLatencyMs = float64(e.totalUs) / 1000 / float64(finished)
		}
		snap.Endpoints[name] = es
		snap.EndpointNames = append(snap.EndpointNames, name)
	}
	sort.Strings(snap.EndpointNames)
	return snap
}
