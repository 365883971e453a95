package main

// metricDef names one metric; BENCHMARK.json lists the same names, and
// bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a caller of the system sees. Every workload
// reports every one of them, so each is defined for both kinds of
// caller: the scf_* workloads call scf.RunHF in process, serve_jobs
// submits jobs over HTTP.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // everything before the first timed call, fastest of many
	{"scf_wall_s", "s", "lower"},   // call (RunHF / POST) -> converged energy in the caller's hands, every step at its fastest
	{"fock_build_s", "s", "lower"}, // one Fock build inside those solves (the paper's T_fock), fastest
	{"rss_mb", "MB", "lower"},      // resident set of the run's process, median of a sample after every iteration or job
}

// perLayer is the ledger: what each module did or cost in the workload,
// measured from outside by timing public calls or read from what the
// layer already returns. A layer the workload does not exercise reports 0.
var perLayer = []metricDef{
	{"integrals.ns_per_quartet.ss_ss", "ns", "lower"},
	{"integrals.ns_per_quartet.ps_ss", "ns", "lower"},
	{"integrals.ns_per_quartet.pp_ss", "ns", "lower"},
	{"integrals.ns_per_quartet.pp_pp", "ns", "lower"},
	{"integrals.ns_per_quartet.ds_ss", "ns", "lower"},
	{"integrals.ns_per_quartet.pd_ps", "ns", "lower"},
	{"integrals.ns_per_quartet.dd_dd", "ns", "lower"},
	{"integrals.time_share_pp_pp", "ratio", "lower"},
	{"integrals.time_share_d", "ratio", "lower"},
	{"integrals.batch_task_ns_per_quartet", "ns", "lower"},
	{"integrals.allocs_per_op", "count", "lower"},
	{"integrals.quartets_fast_sp", "count", "lower"},
	{"integrals.quartets_fast_gen", "count", "lower"},
	{"integrals.quartets_general", "count", "lower"},
	{"integrals.pairtable_build_s", "s", "lower"},

	{"screen.compute_s", "s", "lower"},
	{"screen.unique_quartets", "count", "lower"},
	{"screen.avg_partners", "count", "lower"},

	{"core.build_1w_s", "s", "lower"},
	{"core.build_2w_s", "s", "lower"},
	{"core.par_eff", "ratio", "higher"},
	{"core.t_comp_s", "s", "lower"},
	{"core.t_ov_s", "s", "lower"},
	{"core.load_balance", "ratio", "lower"},
	{"core.steals_total", "count", "lower"},
	{"core.tasks_total", "count", "lower"},
	{"core.queue_ops_per_proc", "count", "lower"},
	{"core.record_build_s", "s", "lower"},
	{"core.replay_build_s", "s", "lower"},
	{"core.replay_hit_rate", "ratio", "higher"},
	{"core.store_bytes", "count", "lower"},
	{"core.fault_runtime_overhead", "ratio", "lower"},

	{"dist.calls_per_proc", "count", "lower"},
	{"dist.mb_per_proc", "MB", "lower"},
	{"dist.get_us", "us", "lower"},
	{"dist.acc_us", "us", "lower"},

	{"net.get_us", "us", "lower"},
	{"net.acc_us", "us", "lower"},
	{"net.acc_fsync_us", "us", "lower"},
	{"net.dial_hello_ms", "ms", "lower"},
	{"net.checkpoint_ms", "ms", "lower"},
	{"net.rpc_calls", "count", "lower"},
	{"net.rpc_retries", "count", "lower"},
	{"net.rpc_mean_us", "us", "lower"},
	{"net.rpc_p95_us", "us", "lower"},
	{"net.journal_bytes", "count", "lower"},
	{"net.overhead_ratio", "ratio", "lower"},

	{"scf.iterations", "count", "lower"},
	{"scf.fock_share", "ratio", "lower"},
	{"scf.density_s_per_iter", "s", "lower"},
	{"scf.diis_s_per_iter", "s", "lower"},
	{"scf.checkpoint_ms", "ms", "lower"},
	{"scf.energy_ha", "Ha", "lower"},
	{"scf.wall_p50_s", "s", "lower"},
	{"scf.wall_hi_s", "s", "lower"},
	{"scf.fock_build_p50_s", "s", "lower"},
	{"scf.fock_build_hi_s", "s", "lower"},
	{"scf.fock_build_hi_pct", "%", "higher"},
	{"scf.fock_build_samples", "count", "higher"},

	{"linalg.eig_ms", "ms", "lower"},
	{"linalg.matmul_ms", "ms", "lower"},
	{"purify.density_ms", "ms", "lower"},
	{"purify.iters", "count", "lower"},

	{"serve.submit_ms", "ms", "lower"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.run_ms", "ms", "lower"},
	{"serve.solo_scf_ms", "ms", "lower"},
	{"serve.overhead_ratio", "ratio", "lower"},
	{"serve.registry_create_us", "us", "lower"},
	{"serve.registry_finish_us", "us", "lower"},
	{"serve.events_per_job", "count", "lower"},
	{"serve.admitted", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"serve.retries_total", "count", "lower"},
	{"serve.job_latency_hi_s", "s", "lower"},
	{"serve.jobs_per_s", "1/s", "higher"},

	{"trace_overhead_frac", "ratio", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"harness.peak_rss_mb", "MB", "lower"},
	{"harness.steal_frac", "ratio", "lower"},
	{"harness.cpu_probe_us", "us", "lower"},
	{"harness.cpu_slowdown", "ratio", "lower"},
}
