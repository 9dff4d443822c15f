package main

import (
	"fmt"
	"io"
	"math"
)

// metricDef declares one metric. BENCHMARK.json repeats these tables for
// the driver; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
}

// endToEnd is what an analyst (or an operator restarting or replicating the
// service) sees. A bound is the issue's (10% / 15% / 1%) where three times
// the spread measured between runs fits inside it, and otherwise as much of
// three times that spread as the contract's 25% cap allows; README.md lists
// the measured spreads next to each bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_approx_p50_ms", "ms", "lower", 0.25},
	{"query_approx_p90_ms", "ms", "lower", 0.25},
	{"query_exact_p50_ms", "ms", "lower", 0.25},
	{"query_exact_p90_ms", "ms", "lower", 0.25},
	{"query_exact_par_p50_ms", "ms", "lower", 0.25},
	{"stream_first_p50_ms", "ms", "lower", 0.25},
	{"repeat_query_p25_ms", "ms", "lower", 0.25},
	{"ingest_p50_ms", "ms", "lower", 0.25},
	{"query_under_ingest_mean_ms", "ms", "lower", 0.25},
	{"recover_open_s", "s", "lower", 0.15},
	{"warm_open_s", "s", "lower", 0.25},
	{"replica_catchup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"store_amplification", "x", "lower", 0.01},
}

// perLayer is measured by the traced run, one group per module.
var perLayer = []metricDef{
	{name: "dist.dtw_ns", unit: "ns", better: "lower"},
	{name: "dist.dtw_early_abandon_ns", unit: "ns", better: "lower"},
	{name: "dist.lb_keogh_ns", unit: "ns", better: "lower"},
	{name: "dist.lb_kim_ns", unit: "ns", better: "lower"},
	{name: "dist.envelope_ns", unit: "ns", better: "lower"},
	{name: "dist.dtw_path_ns", unit: "ns", better: "lower"},
	{name: "dist.dtw_allocs_per_op", unit: "count", better: "lower"},
	{name: "dist.dtw_path_bytes_per_op", unit: "B", better: "lower"},

	{name: "core.find_approx_p50_us", unit: "us", better: "lower"},
	{name: "core.find_exact_p50_us", unit: "us", better: "lower"},
	{name: "core.groups_per_query", unit: "count", better: "lower"},
	{name: "core.pruned_ratio", unit: "ratio", better: "higher"},
	{name: "core.refined_per_query", unit: "count", better: "lower"},
	{name: "core.candidates_per_query", unit: "count", better: "lower"},
	{name: "core.dtws_per_query", unit: "count", better: "lower"},
	{name: "core.dtw_share", unit: "ratio", better: "lower"},
	{name: "core.find_allocs_per_op", unit: "count", better: "lower"},
	{name: "core.find_bytes_per_op", unit: "B", better: "lower"},
	{name: "core.par_speedup", unit: "x", better: "higher"},
	{name: "core.stream_first_p50_us", unit: "us", better: "lower"},
	{name: "core.stream_done_p50_us", unit: "us", better: "lower"},
	{name: "core.stream_waves", unit: "count", better: "lower"},

	{name: "grouping.build_s", unit: "s", better: "lower"},
	{name: "grouping.subsequences", unit: "count", better: "lower"},
	{name: "grouping.groups", unit: "count", better: "lower"},
	{name: "grouping.compaction_ratio", unit: "x", better: "higher"},
	{name: "grouping.add_series_p50_ms", unit: "ms", better: "lower"},
	{name: "grouping.checksum_ms", unit: "ms", better: "lower"},
	{name: "grouping.write_ms", unit: "ms", better: "lower"},
	{name: "grouping.read_ms", unit: "ms", better: "lower"},

	{name: "ts.normalize_ms", unit: "ms", better: "lower"},

	{name: "onex.find_approx_p50_us", unit: "us", better: "lower"},
	{name: "onex.find_exact_p50_us", unit: "us", better: "lower"},
	{name: "onex.open_s", unit: "s", better: "lower"},
	{name: "onex.recommend_st_s", unit: "s", better: "lower"},
	{name: "onex.add_series_mem_p50_ms", unit: "ms", better: "lower"},
	{name: "onex.add_series_store_p50_ms", unit: "ms", better: "lower"},
	{name: "onex.apply_replicated_p50_ms", unit: "ms", better: "lower"},
	{name: "onex.find_under_ingest_p50_us", unit: "us", better: "lower"},

	{name: "store.encode_snapshot_ms", unit: "ms", better: "lower"},
	{name: "store.decode_snapshot_ms", unit: "ms", better: "lower"},
	{name: "store.snapshot_bytes", unit: "B", better: "lower"},
	{name: "store.load_ms", unit: "ms", better: "lower"},
	{name: "store.wal_append_fsync_p50_us", unit: "us", better: "lower"},
	{name: "store.wal_append_nosync_p50_us", unit: "us", better: "lower"},
	{name: "store.wal_bytes_per_record", unit: "B", better: "lower"},
	{name: "store.decode_wal_ms", unit: "ms", better: "lower"},

	{name: "mmapdata.open_state_ms", unit: "ms", better: "lower"},
	{name: "mmapdata.mapped_bytes", unit: "B", better: "lower"},
	{name: "mmapdata.resident_after_open_bytes", unit: "B", better: "lower"},
	{name: "mmapdata.resident_after_queries_bytes", unit: "B", better: "lower"},
	{name: "mmapdata.heap_live_eager_mb", unit: "MB", better: "lower"},
	{name: "mmapdata.heap_live_mmap_mb", unit: "MB", better: "lower"},

	{name: "servecache.get_hit_ns", unit: "ns", better: "lower"},
	{name: "servecache.put_ns", unit: "ns", better: "lower"},
	{name: "servecache.canonical_query_ns", unit: "ns", better: "lower"},
	{name: "servecache.hit_rate", unit: "ratio", better: "higher"},
	{name: "servecache.evictions", unit: "count", better: "lower"},

	{name: "server.handler_query_p50_us", unit: "us", better: "lower"},
	{name: "server.http_overhead_p50_us", unit: "us", better: "lower"},
	{name: "server.facade_overhead_p50_us", unit: "us", better: "lower"},
	{name: "server.response_bytes_p50", unit: "B", better: "lower"},
	{name: "server.ingest_handler_p50_ms", unit: "ms", better: "lower"},
	{name: "server.rejected", unit: "count", better: "lower"},

	{name: "replica.bootstrap_s", unit: "s", better: "lower"},
	{name: "replica.apply_per_s", unit: "1/s", better: "higher"},
	{name: "replica.ship_bytes", unit: "B", better: "lower"},

	{name: "proc.heap_live_after_setup_mb", unit: "MB", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "proc.mallocs_per_query", unit: "count", better: "lower"},

	{name: "trace.http_self_us", unit: "us", better: "lower"},
	{name: "trace.handler_self_us", unit: "us", better: "lower"},
	{name: "trace.onex_self_us", unit: "us", better: "lower"},
	{name: "trace.core_self_us", unit: "us", better: "lower"},
	{name: "trace.dist_us", unit: "us", better: "lower"},
	{name: "trace.self_sum_vs_e2e_pct", unit: "%", better: "lower"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}

// report collects one run's metrics and operation counts.
type report struct {
	defs      []metricDef
	values    map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	failures  []string // the first few, for the log
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, samples: map[string]int{}}
}

// add records a metric. Emitting an undeclared name, a name twice, or a
// non-finite value is a bug in the benchmark and counts as a failure, so
// it cannot pass silently.
func (r *report) add(name string, v float64, samples int) {
	declared := false
	for _, d := range r.defs {
		declared = declared || d.name == name
	}
	_, dup := r.values[name]
	switch {
	case !declared:
		r.fail("metric %q emitted but not declared", name)
	case dup:
		r.fail("metric %q emitted twice", name)
	case math.IsNaN(v) || math.IsInf(v, 0):
		r.fail("metric %q is not finite", name)
	default:
		r.values[name] = v
		r.samples[name] = samples
	}
}

// op counts one attempted operation; a non-empty reason marks it failed.
func (r *report) op(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// missing lists declared metrics the run never emitted.
func (r *report) missing() []string {
	var out []string
	for _, d := range r.defs {
		if _, ok := r.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

// print writes every metric by name with its unit, in declaration order.
func (r *report) print(w io.Writer) {
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-40s %14.6g %-6s", d.name, v, d.unit)
		if n := r.samples[d.name]; n > 0 {
			fmt.Fprintf(w, " n=%d", n)
		}
		fmt.Fprintln(w)
	}
}
