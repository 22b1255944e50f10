package main

// metric is one reported number. The tables below are the benchmark's
// vocabulary: BENCHMARK.json at the repository root lists exactly these
// names, units and directions (a test keeps the two in step).
type metric struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen
	// pct is the percentile a run reports over its samples (end-to-end
	// only; runUntraced says what each metric's samples are). Rates report
	// the decile on their fast side and set-up times their p5: on the shared
	// reference host other tenants only ever slow the program down, by up to
	// 2× and for anything from milliseconds to minutes, so the fast tail is
	// the reproducible part of the distribution (README.md, "The reference
	// host"). Memory is not perturbed that way and reports its median.
	pct float64
}

// endToEnd are the four metrics a user of the system sees, the same on
// every workload. They are measured with tracing off.
//
// The time and rate bounds are the widest the contract allows. The issue
// asked for 10 %; the reference host (2 vCPUs of a shared VM) does not
// support it: its speed on CPU-bound work moves by a factor of up to 1.8 for
// minutes at a time (README.md has the runs), and a bound narrower than the
// host's own drift would reject unchanged code.
var (
	// Samples consumed until the trailing mean of the last 8×ranks batch
	// losses first falls to the workload's frozen target, over the run's
	// samples_per_s; the median over the run's repetitions. The wall-clock
	// time from the first worker launch is printed beside it.
	timeToTarget = metric{"time_to_target_s", "s", "lower", 0.25, 50}
	// batch × compute steps over wall time, per window of spec.window steps
	// started after the warm-up step; the fast-side decile over all windows of
	// the run.
	samplesPerS = metric{"samples_per_s", "1/s", "higher", 0.25, 90}
	// The repetition's process peak resident set (VmHWM).
	peakRSS = metric{"peak_rss_mb", "MB", "lower", 0.10, 50}
	// Dataset and model build, mesh dial and hello negotiation, controller
	// and PS-server start; every repetition sets up 1 + extraSetups times.
	setupS = metric{"setup_s", "s", "lower", 0.25, 5}

	endToEnd = []metric{timeToTarget, samplesPerS, peakRSS, setupS}
)

// perLayer are the traced pass's metrics. Names are <layer>.<what>; the
// comment after each says where it is read: S = in situ from the wrappers
// during one repetition, P = a stand-alone probe at the workload's geometry.
var perLayer = []metric{
	{name: "transport.send_ms_per_sync", unit: "ms", better: "lower"},      // S
	{name: "transport.recv_wait_ms_per_sync", unit: "ms", better: "lower"}, // S
	{name: "transport.msgs_per_sync", unit: "count", better: "lower"},      // S
	{name: "transport.bytes_per_sync", unit: "bytes", better: "lower"},     // S
	{name: "transport.rtt_us_p50", unit: "us", better: "lower"},            // P
	{name: "transport.rtt_us_p99", unit: "us", better: "lower"},            // P
	{name: "transport.stream_mb_per_s", unit: "MB/s", better: "higher"},    // P
	{name: "transport.allocs_per_msg", unit: "count", better: "lower"},     // P
	{name: "transport.dial_ms", unit: "ms", better: "lower"},               // P

	{name: "collective.allreduce_ms_p50", unit: "ms", better: "lower"},            // P
	{name: "collective.allreduce_ms_p99", unit: "ms", better: "lower"},            // P
	{name: "collective.allreduce_mem_ms_p50", unit: "ms", better: "lower"},        // P
	{name: "collective.partial_allreduce_ms_p50", unit: "ms", better: "lower"},    // P
	{name: "collective.broadcast_ms_p50", unit: "ms", better: "lower"},            // P
	{name: "collective.algo_id", unit: "id", better: "lower"},                     // P
	{name: "collective.predicted_over_measured", unit: "ratio", better: "higher"}, // P

	{name: "controller.null_contrib_share", unit: "share", better: "lower"},     // S
	{name: "controller.contributors_per_sync", unit: "count", better: "higher"}, // S
	{name: "controller.ready_await_us_p50", unit: "us", better: "lower"},        // P
	{name: "controller.ready_await_poc_us_p50", unit: "us", better: "lower"},    // P

	{name: "core.step_ms_p50", unit: "ms", better: "lower"},                 // S
	{name: "core.step_ms_p99", unit: "ms", better: "lower"},                 // S
	{name: "core.sync_ms_p50", unit: "ms", better: "lower"},                 // S
	{name: "core.sync_ms_p99", unit: "ms", better: "lower"},                 // S
	{name: "core.residual_ms_per_step", unit: "ms", better: "lower"},        // S
	{name: "core.residual_share", unit: "share", better: "lower"},           // S
	{name: "core.allocs_per_sync", unit: "count", better: "lower"},          // S
	{name: "core.alloc_bytes_per_sync", unit: "bytes", better: "lower"},     // S
	{name: "core.rank_elapsed_spread", unit: "share", better: "lower"},      // S
	{name: "core.accumulator_put_take_us", unit: "us", better: "lower"},     // P
	{name: "core.single_rank_samples_per_s", unit: "1/s", better: "higher"}, // P

	{name: "model.gradient_ms_p50", unit: "ms", better: "lower"},      // S
	{name: "model.gradient_solo_ms_p50", unit: "ms", better: "lower"}, // P
	{name: "model.contention_ratio", unit: "ratio", better: "lower"},  // S over P

	{name: "hetero.injected_ms_per_step", unit: "ms", better: "lower"},  // S
	{name: "hetero.oversleep_ms_per_step", unit: "ms", better: "lower"}, // S

	{name: "opt.step_ns_per_elem", unit: "ns", better: "lower"},   // P
	{name: "tensor.add_ns_per_elem", unit: "ns", better: "lower"}, // P

	{name: "ps.leader_ms_per_exchange", unit: "ms", better: "lower"}, // S
	{name: "ps.pushpull_ms_p50", unit: "ms", better: "lower"},        // P
	{name: "ps.pushpull_ms_p99", unit: "ms", better: "lower"},        // P
	{name: "ps.store_pushpull_ms_p50", unit: "ms", better: "lower"},  // P

	{name: "topology.partition_us", unit: "us", better: "lower"}, // P

	// Harness: 1 − traced/untraced samples_per_s on the same inputs.
	{name: "trace_overhead_share", unit: "share", better: "lower"},
}
