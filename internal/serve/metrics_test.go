package serve

// Metrics-surface tests: the two /metrics renderings golden-tested
// from one handcrafted snapshot (the live registry is timing-dependent,
// a fixture is not), plus the microsecond-precision property the
// accumulator fix exists for — a cache-hot request well under a
// millisecond must still move the average.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hsmcc/internal/bench"
)

// fixtureSnapshot is a fully handcrafted MetricsSnapshot: every field
// populated with distinct values so both renderings exercise their
// whole vocabulary deterministically.
func fixtureSnapshot() MetricsSnapshot {
	return MetricsSnapshot{
		UptimeMs:   90500,
		InFlight:   3,
		Goroutines: 42,
		Panics:     2,
		Draining:   false,
		Overload: OverloadSnapshot{
			SlotCapacity: 64,
			SlotsInUse:   5,
			PeakInUse:    61,
			QueueDepth:   1,
			MaxQueue:     256,
			Shed:         7,
		},
		Endpoints: map[string]EndpointSnapshot{
			"simulate": {
				Requests:        120,
				ByStatus:        map[int]int64{200: 115, 400: 3, 504: 2},
				LatencyBucketMs: latencyBucketBoundsMs,
				LatencyCounts:   []int64{40, 30, 20, 10, 8, 6, 3, 2, 1, 0, 0, 0, 0, 0},
				AvgLatencyMs:    4.625,
			},
			"metrics": {
				Requests:        9,
				ByStatus:        map[int]int64{200: 9},
				LatencyBucketMs: latencyBucketBoundsMs,
				LatencyCounts:   []int64{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
				AvgLatencyMs:    0.125,
			},
		},
		EndpointNames: []string{"metrics", "simulate"},
		Cache: bench.CacheStats{
			AnalyzeRuns:     9,
			ProgramCompiles: 12,
			TranslateRuns:   11,
			BaselineRuns:    10,
			ProfileRuns:     4,
			Hits:            300,
			Misses:          37,
			Entries:         37,
			Evictions:       5,
			CostBytes:       1 << 20,
			MaxCostBytes:    256 << 20,
		},
		CacheHitRate: 300.0 / 337.0,
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestMetricsJSONGolden(t *testing.T) {
	got, err := json.MarshalIndent(fixtureSnapshot(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "metrics_fixture.json.golden", append(got, '\n'))
}

func TestMetricsPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	renderPrometheus(&buf, fixtureSnapshot())
	compareGolden(t, "metrics_fixture.prom.golden", buf.Bytes())

	// Structural sanity independent of the golden: every sample line
	// belongs to the hsmccd_ namespace and every histogram is
	// cumulative-monotonic by construction (spot-check the fixture's
	// +Inf equals the request count).
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "hsmccd_") {
			t.Fatalf("sample outside the hsmccd_ namespace: %q", line)
		}
	}
	if !strings.Contains(buf.String(), `hsmccd_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 120`) {
		t.Fatal("simulate +Inf bucket does not equal the finished-request count")
	}
}

// TestLatencyMicrosecondPrecision pins the fix for the truncating
// accumulator: sub-millisecond requests must contribute their actual
// duration (the old int64-milliseconds sum recorded them as zero).
func TestLatencyMicrosecondPrecision(t *testing.T) {
	m := newMetrics()
	m.requestStarted("x")
	m.requestFinished("x", 200, 250*time.Microsecond)
	m.requestStarted("x")
	m.requestFinished("x", 200, 1400*time.Microsecond)
	snap := m.Snapshot(bench.CacheStats{}, OverloadSnapshot{}, false)
	e := snap.Endpoints["x"]
	if want := float64(250+1400) / 1000 / 2; e.AvgLatencyMs != want {
		t.Fatalf("AvgLatencyMs = %v, want %v (sub-ms latency truncated?)", e.AvgLatencyMs, want)
	}
	// Bucketing compares microseconds against the ms bounds: 250µs is
	// ≤1ms (bucket 0), 1400µs is ≤2ms (bucket 1) — under the old
	// truncation 1400µs rounded to 1ms and landed in bucket 0.
	if e.LatencyCounts[0] != 1 || e.LatencyCounts[1] != 1 {
		t.Fatalf("bucket counts = %v, want [1 1 0 ...]", e.LatencyCounts)
	}
}
