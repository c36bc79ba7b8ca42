package serve

// Prometheus text exposition (format version 0.0.4) of the metrics
// snapshot: GET /metrics?format=prometheus. The renderer is a pure
// function of a MetricsSnapshot value — given the same snapshot it
// writes the same bytes (endpoint names and status codes are sorted) —
// so both formats golden-test against handcrafted snapshots. The JSON
// document stays the default; this surface exists for scrapers.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// promFloat renders a float the way Prometheus expects: shortest exact
// decimal form.
func promFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

func promBool(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// writePromMetric emits one # HELP / # TYPE header pair followed by the
// sample lines the caller appends.
func promHeader(w io.Writer, name, kind, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

// renderPrometheus writes snap in the Prometheus text exposition
// format.
func renderPrometheus(w io.Writer, snap MetricsSnapshot) {
	promHeader(w, "hsmccd_uptime_seconds", "gauge", "Seconds since the daemon started.")
	fmt.Fprintf(w, "hsmccd_uptime_seconds %s\n", promFloat(float64(snap.UptimeMs)/1000))

	promHeader(w, "hsmccd_in_flight", "gauge", "Requests currently being served.")
	fmt.Fprintf(w, "hsmccd_in_flight %d\n", snap.InFlight)

	promHeader(w, "hsmccd_goroutines", "gauge", "Goroutines in the process.")
	fmt.Fprintf(w, "hsmccd_goroutines %d\n", snap.Goroutines)

	promHeader(w, "hsmccd_panics_total", "counter", "Recovered panics (handler and compute); each cost one request.")
	fmt.Fprintf(w, "hsmccd_panics_total %d\n", snap.Panics)

	promHeader(w, "hsmccd_draining", "gauge", "1 while the daemon is draining for shutdown.")
	fmt.Fprintf(w, "hsmccd_draining %s\n", promBool(snap.Draining))

	promHeader(w, "hsmccd_overload_slot_capacity", "gauge", "Weighted in-flight work bound of the admission gate.")
	fmt.Fprintf(w, "hsmccd_overload_slot_capacity %d\n", snap.Overload.SlotCapacity)
	promHeader(w, "hsmccd_overload_slots_in_use", "gauge", "Weighted work currently holding admission slots.")
	fmt.Fprintf(w, "hsmccd_overload_slots_in_use %d\n", snap.Overload.SlotsInUse)
	promHeader(w, "hsmccd_overload_peak_in_use", "gauge", "High-water mark of weighted slots in use.")
	fmt.Fprintf(w, "hsmccd_overload_peak_in_use %d\n", snap.Overload.PeakInUse)
	promHeader(w, "hsmccd_overload_queue_depth", "gauge", "Requests waiting in the admission queue.")
	fmt.Fprintf(w, "hsmccd_overload_queue_depth %d\n", snap.Overload.QueueDepth)
	promHeader(w, "hsmccd_overload_max_queue", "gauge", "Admission queue depth bound.")
	fmt.Fprintf(w, "hsmccd_overload_max_queue %d\n", snap.Overload.MaxQueue)
	promHeader(w, "hsmccd_overload_shed_total", "counter", "Requests shed (503) by the admission gate.")
	fmt.Fprintf(w, "hsmccd_overload_shed_total %d\n", snap.Overload.Shed)

	promHeader(w, "hsmccd_requests_total", "counter", "Requests accepted, by endpoint.")
	for _, name := range snap.EndpointNames {
		fmt.Fprintf(w, "hsmccd_requests_total{endpoint=%q} %d\n", name, snap.Endpoints[name].Requests)
	}

	promHeader(w, "hsmccd_responses_total", "counter", "Responses written, by endpoint and HTTP status code.")
	for _, name := range snap.EndpointNames {
		e := snap.Endpoints[name]
		codes := make([]int, 0, len(e.ByStatus))
		for code := range e.ByStatus {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "hsmccd_responses_total{endpoint=%q,code=\"%d\"} %d\n", name, code, e.ByStatus[code])
		}
	}

	promHeader(w, "hsmccd_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, name := range snap.EndpointNames {
		e := snap.Endpoints[name]
		// The snapshot's per-bucket counts become the cumulative counts
		// Prometheus histograms carry.
		var cum int64
		for i, bound := range e.LatencyBucketMs {
			cum += e.LatencyCounts[i]
			fmt.Fprintf(w, "hsmccd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, promFloat(float64(bound)/1000), cum)
		}
		cum += e.LatencyCounts[len(e.LatencyCounts)-1]
		fmt.Fprintf(w, "hsmccd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "hsmccd_request_duration_seconds_sum{endpoint=%q} %s\n",
			name, promFloat(e.AvgLatencyMs/1000*float64(cum)))
		fmt.Fprintf(w, "hsmccd_request_duration_seconds_count{endpoint=%q} %d\n", name, cum)
	}

	promHeader(w, "hsmccd_cache_analyze_runs_total", "counter", "Source analyses (parse, sema, Stages 1-3) executed by the shared cache, one per distinct Pthread source.")
	fmt.Fprintf(w, "hsmccd_cache_analyze_runs_total %d\n", snap.Cache.AnalyzeRuns)
	promHeader(w, "hsmccd_cache_program_compiles_total", "counter", "Pthread-source program compiles executed by the shared cache; a translated program is lowered inside its translation run.")
	fmt.Fprintf(w, "hsmccd_cache_program_compiles_total %d\n", snap.Cache.ProgramCompiles)
	promHeader(w, "hsmccd_cache_translate_runs_total", "counter", "Translation runs executed by the shared cache.")
	fmt.Fprintf(w, "hsmccd_cache_translate_runs_total %d\n", snap.Cache.TranslateRuns)
	promHeader(w, "hsmccd_cache_baseline_runs_total", "counter", "Baseline simulations executed by the shared cache.")
	fmt.Fprintf(w, "hsmccd_cache_baseline_runs_total %d\n", snap.Cache.BaselineRuns)
	promHeader(w, "hsmccd_cache_profile_runs_total", "counter", "Profiling passes executed by the shared cache.")
	fmt.Fprintf(w, "hsmccd_cache_profile_runs_total %d\n", snap.Cache.ProfileRuns)
	promHeader(w, "hsmccd_cache_hits_total", "counter", "Cache lookups answered from memory.")
	fmt.Fprintf(w, "hsmccd_cache_hits_total %d\n", snap.Cache.Hits)
	promHeader(w, "hsmccd_cache_misses_total", "counter", "Cache lookups that had to compute.")
	fmt.Fprintf(w, "hsmccd_cache_misses_total %d\n", snap.Cache.Misses)
	promHeader(w, "hsmccd_cache_entries", "gauge", "Live cache entries.")
	fmt.Fprintf(w, "hsmccd_cache_entries %d\n", snap.Cache.Entries)
	promHeader(w, "hsmccd_cache_cost_bytes", "gauge", "Estimated resident bytes held by the cache.")
	fmt.Fprintf(w, "hsmccd_cache_cost_bytes %d\n", snap.Cache.CostBytes)
	promHeader(w, "hsmccd_cache_max_cost_bytes", "gauge", "Cache budget in estimated resident bytes (0 = unbounded).")
	fmt.Fprintf(w, "hsmccd_cache_max_cost_bytes %d\n", snap.Cache.MaxCostBytes)
	promHeader(w, "hsmccd_cache_evictions_total", "counter", "Entries evicted by the LRU budget.")
	fmt.Fprintf(w, "hsmccd_cache_evictions_total %d\n", snap.Cache.Evictions)
	promHeader(w, "hsmccd_cache_hit_rate", "gauge", "Hits over lookups, 0 when no lookups happened.")
	fmt.Fprintf(w, "hsmccd_cache_hit_rate %s\n", promFloat(snap.CacheHitRate))
}
