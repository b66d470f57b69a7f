package main

// metricSpec is one reported metric: its unit, which way is better and,
// for a gated end-to-end metric, the share of the parent's median by which
// it may worsen before a change counts as a regression. BENCHMARK.json at
// the root of the repository states the same tables for the driver; a test
// keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what every workload's run against the real binary reports.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"saturation_rps", "1/s", "higher", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.20},
	{"recover_s", "s", "lower", 0.25},
	{"catchup_s", "s", "lower", 0.25},
}

// perLayer is what every workload's trace run reports. None is gated.
var perLayer = []metricSpec{
	{"net.self_us", "us", "lower", 0},
	{"portal.handler_us.browse-page", "us", "lower", 0},
	{"portal.handler_us.browse-revalidate", "us", "lower", 0},
	{"portal.handler_us.object", "us", "lower", 0},
	{"portal.handler_us.tasks", "us", "lower", 0},
	{"portal.handler_us.stats", "us", "lower", 0},
	{"portal.handler_us.stats-group", "us", "lower", 0},
	{"portal.handler_us.search", "us", "lower", 0},
	{"portal.handler_us.create-sample", "us", "lower", 0},
	{"portal.handler_us.create-extract", "us", "lower", 0},
	{"portal.handler_us.create-annotation", "us", "lower", 0},
	{"portal.self_us.read", "us", "lower", 0},
	{"portal.self_us.write", "us", "lower", 0},
	{"portal.resp_bytes_per_read", "B", "lower", 0},
	{"portal.etag_304_ratio", "ratio", "higher", 0},
	{"portal.refused_503", "count", "lower", 0},
	{"client.read_p50_us", "us", "lower", 0},
	{"client.write_p50_us", "us", "lower", 0},
	{"client.search_p50_us", "us", "lower", 0},
	{"auth.session_user_us", "us", "lower", 0},
	{"model.create_sample_us", "us", "lower", 0},
	{"model.stats_us", "us", "lower", 0},
	{"store.query_page_us", "us", "lower", 0},
	{"store.get_ref_us", "us", "lower", 0},
	{"store.agg_us", "us", "lower", 0},
	{"store.commit_us", "us", "lower", 0},
	{"store.query_page_under_write_us", "us", "lower", 0},
	{"store.commits_per_write", "count", "lower", 0},
	{"store.commit_bytes_per_write", "B", "lower", 0},
	{"wal.fsyncs_per_write", "count", "lower", 0},
	{"wal.fsync_us.p50", "us", "lower", 0},
	{"wal.fsync_us.p99", "us", "lower", 0},
	{"wal.write_us.p50", "us", "lower", 0},
	{"wal.bytes_per_write", "B", "lower", 0},
	{"wal.durable_commit_us", "us", "lower", 0},
	{"disk_write_amp", "ratio", "lower", 0},
	{"durability.acked_lost", "count", "lower", 0},
	{"snapshot.write_ms", "ms", "lower", 0},
	{"snapshot.bytes", "B", "lower", 0},
	{"recover.from_wal_ms", "ms", "lower", 0},
	{"recover.from_snapshot_ms", "ms", "lower", 0},
	{"recover.reindex_ms", "ms", "lower", 0},
	{"events.per_write", "count", "lower", 0},
	{"fanout.audit_us", "us", "lower", 0},
	{"fanout.search_us", "us", "lower", 0},
	{"fanout.tasks_us", "us", "lower", 0},
	{"vocab.similar_us", "us", "lower", 0},
	{"search.query_us", "us", "lower", 0},
	{"search.flush_us", "us", "lower", 0},
	{"search.docs", "count", "lower", 0},
	{"repl.apply_us", "us", "lower", 0},
	{"repl.catchup_log_ms", "ms", "lower", 0},
	{"repl.catchup_snapshot_ms", "ms", "lower", 0},
	{"repl.visible_us.p50", "us", "lower", 0},
	{"repl.visible_us.p99", "us", "lower", 0},
	{"repl.lag_commits_p99", "count", "lower", 0},
	{"proc.alloc_kb_per_req", "KB", "lower", 0},
	{"proc.allocs_per_req", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"p99_ms", "ms", "lower", 0},
	{"gen.lag_p99_ms", "ms", "lower", 0},
	{"gen.late_ratio", "ratio", "lower", 0},
	{"gen.drift_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.reconcile_ratio", "ratio", "higher", 0},
}

func specOf(name string) (metricSpec, bool) {
	for _, s := range endToEnd {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}
