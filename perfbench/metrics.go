package main

// metricDef is one metric the benchmark reports. BENCHMARK.json lists
// the same names, units, directions and bounds, and README.md what each
// measures and which end-to-end metric it should move on which
// workload; metrics_test.go keeps the three in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// Every workload reports every end-to-end metric. The unit of work
// ("op") differs per workload: a grid cell on sweep, an image build on
// rebuild, a profile delta on ingest.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "success_rate", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "round_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer metrics come from the traced run. A layer a workload does
// not exercise reports 0; workloads lists the ones each must measure.
var perLayer = []metricDef{
	{"kernel.generate_ms", "ms", "lower", 0},
	{"workload.profile_ms.lmbench", "ms", "lower", 0},
	{"workload.profile_ms.apache", "ms", "lower", 0},
	{"workload.profile_ms.nginx", "ms", "lower", 0},
	{"workload.profile_ms.dbench", "ms", "lower", 0},
	{"workload.measure_ms_p50", "ms", "lower", 0},
	{"workload.measure_ms_max", "ms", "lower", 0},
	{"interp.machine_run_ns", "ns", "lower", 0},
	{"interp.sim_mcycles_per_s", "Mcycles/s", "higher", 0},
	{"cpu.instructions", "count", "lower", 0},
	{"cpu.icache_accesses", "count", "lower", 0},
	{"cpu.icache_miss_rate", "ratio", "lower", 0},
	{"cpu.btb_miss_rate", "ratio", "lower", 0},
	{"cpu.rsb_miss_rate", "ratio", "lower", 0},
	{"cpu.pht_miss_rate", "ratio", "lower", 0},
	{"cpu.thunked_calls", "count", "lower", 0},
	{"cpu.thunked_rets", "count", "lower", 0},
	{"ir.clone_ms", "ms", "lower", 0},
	{"ir.verify_ms", "ms", "lower", 0},
	{"interp.compile_ms", "ms", "lower", 0},
	{"pibe.build_ms_p90", "ms", "lower", 0},
	{"ir.instrs.clone", "count", "lower", 0},
	{"ir.instrs.icp", "count", "lower", 0},
	{"ir.instrs.inline", "count", "lower", 0},
	{"ir.instrs.harden", "count", "lower", 0},
	{"icp.run_ms", "ms", "lower", 0},
	{"icp.promoted_sites", "count", "higher", 0},
	{"inline.run_ms", "ms", "lower", 0},
	{"inline.elided_return_frac", "ratio", "higher", 0},
	{"harden.apply_ms", "ms", "lower", 0},
	{"harden.defended_sites", "count", "higher", 0},
	{"prof.write_ms", "ms", "lower", 0},
	{"prof.read_ms", "ms", "lower", 0},
	{"prof.merge_ms", "ms", "lower", 0},
	{"prof.bytes", "bytes", "lower", 0},
	{"attack.evaluate_ms", "ms", "lower", 0},
	{"sweep.build_ms_p50", "ms", "lower", 0},
	{"sweep.build_ms_p90", "ms", "lower", 0},
	{"sweep.measure_ms_p50", "ms", "lower", 0},
	{"sweep.measure_ms_p90", "ms", "lower", 0},
	{"sweep.baseline_ms", "ms", "lower", 0},
	{"ingest.submit_us_p50", "us", "lower", 0},
	{"ingest.submit_us_p99", "us", "lower", 0},
	{"ingest.open_ms_p99", "ms", "lower", 0},
	{"ingest.end_round_ms", "ms", "lower", 0},
	{"ingest.snapshot_ms", "ms", "lower", 0},
	{"ingest.merge_us_p50", "us", "lower", 0},
	{"ingest.merge_us_p99", "us", "lower", 0},
	{"ingest.queue_high_water", "count", "lower", 0},
	{"ingest.batches", "count", "lower", 0},
	{"ingest.evictions", "count", "lower", 0},
	{"ingest.resurrections", "count", "lower", 0},
	{"fleet.stripe_merge_imbalance", "ratio", "lower", 0},
	{"ckpt.state_bytes", "bytes", "lower", 0},
	{"resilience.poison", "count", "lower", 0},
	{"resilience.quarantine_dropped", "count", "lower", 0},
	{"resilience.trips", "count", "lower", 0},
	{"loadgen.lag_ms_p99", "ms", "lower", 0},
	{"loadgen.late_frac", "ratio", "lower", 0},
	{"loadgen.delta_gen_us", "us", "lower", 0},
	{"trace.overhead_s", "s", "lower", 0},
	{"trace.unattributed_frac", "ratio", "lower", 0},
}
