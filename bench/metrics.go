package main

// metricDef names one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// all of them. The bounds are what the reference host can resolve, not
// what one would wish: the benchmark contract wants ten seeds of one
// commit to spread (interquartile range / median) by less than a third
// of a metric's bound, and in a calm hour the best-slice timings spread
// by 3–14% there, in a noisy one by 10–50% (README.md, noise rules). A
// bound below the spread rejects unchanged code.
var endToEnd = []metricDef{
	{"updates_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"cpu_s_per_mupdate", "s", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
	{"wal_bytes_per_update", "B", "lower", 0.02},
	{"recovery_s", "s", "lower", 0.25},
}

// perLayer is the -trace ledger: in-process timings around each
// layer's exported calls, plus live client-side spans and /metrics
// deltas over one traced round. README.md says which end-to-end metric
// each should move, on which workload.
var perLayer = []metricDef{
	{Name: "hashing.poly_hash_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "core.digest_batch_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.replay_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "core.merge_ns_per_family", Unit: "ns", Better: "lower"},
	{Name: "core.serialize_ns_per_family", Unit: "ns", Better: "lower"},
	{Name: "core.family_bytes", Unit: "B", Better: "lower"},
	{Name: "core.estimate_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "core.estimate_warm_ns", Unit: "ns", Better: "lower"},
	{Name: "expr.parse_compile_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.update_ns_per_update_hot", Unit: "ns", Better: "lower"},
	{Name: "ingest.update_ns_per_update_cold", Unit: "ns", Better: "lower"},
	{Name: "ingest.flush_ns", Unit: "ns", Better: "lower"},
	{Name: "ingest.digest_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ingest.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "wal.build_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "wal.append_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wal.fsync_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "wal.record_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "wal.replay_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "wal.append_busy_s", Unit: "s", Better: "lower"},
	{Name: "wal.fsync_busy_s", Unit: "s", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "distributed.apply_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "distributed.apply_wal_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "distributed.apply_delta_ns", Unit: "ns", Better: "lower"},
	{Name: "distributed.estimate_ns", Unit: "ns", Better: "lower"},
	{Name: "distributed.recover_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "distributed.wire_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "distributed.query_wire_us", Unit: "us", Better: "lower"},
	{Name: "distributed.handle_busy_s", Unit: "s", Better: "lower"},
	{Name: "distributed.digest_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "distributed.compile_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "distributed.estimate_busy_s", Unit: "s", Better: "lower"},
	{Name: "distributed.ingest_ack_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cq.observe_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "cq.evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "cq.rotate_ns", Unit: "ns", Better: "lower"},
	{Name: "datagen.fill_ns_per_update", Unit: "ns", Better: "lower"},
	{Name: "gen_late_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ledger.wire_us", Unit: "us", Better: "lower"},
	{Name: "ledger.digest_us", Unit: "us", Better: "lower"},
	{Name: "ledger.wal_build_us", Unit: "us", Better: "lower"},
	{Name: "ledger.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "ledger.wal_fsync_us", Unit: "us", Better: "lower"},
	{Name: "ledger.replay_us", Unit: "us", Better: "lower"},
	{Name: "ledger.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace_overhead", Unit: "ratio", Better: "higher"},
}
