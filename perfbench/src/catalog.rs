//! The metric catalog: every metric the benchmark reports, with its unit,
//! its direction and — for per-layer counts — whether it is exact.
//!
//! `BENCHMARK.json` mirrors these tables; `check.py` compares every run's
//! metric names and units with it.

/// Which direction of change is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric behaves across runs of the same seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Repeat {
    /// Wall-clock derived: varies run to run.
    Timed,
    /// A work count that depends only on the inputs and the pool width:
    /// identical across runs of the same seed on the same host.
    Exact,
    /// A count that depends on thread scheduling (steals, lost claims).
    Variable,
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub repeat: Repeat,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, repeat: Repeat::Timed }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, repeat: Repeat::Exact }
}

const fn variable(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better, repeat: Repeat::Variable }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    timed("setup_s", "s", Lower),
    timed("solve_s", "s", Lower),
    timed("events_per_s", "1/s", Higher),
    timed("event_latency_p50_us", "us", Lower),
    timed("event_latency_p99_us", "us", Lower),
    exact("quality_ratio", "ratio", Lower),
    exact("success_frac", "ratio", Higher),
    timed("peak_rss_mib", "MiB", Lower),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A metric
/// whose layer does no work on a workload reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // graph
    timed("graph.read_s", "s", Lower),
    exact("graph.read_bytes", "bytes", Lower),
    // core
    timed("core.lower_bound_s", "s", Lower),
    timed("core.validate_s", "s", Lower),
    timed("core.solve.exact-bisection_s", "s", Lower),
    timed("core.solve.cost-scaling_s", "s", Lower),
    timed("core.solve.hk-semi_s", "s", Lower),
    timed("core.solve.sgh_s", "s", Lower),
    timed("core.solve.vgh_s", "s", Lower),
    timed("core.solve.egh_s", "s", Lower),
    timed("core.solve.evg_s", "s", Lower),
    timed("core.solve.evg-refined_s", "s", Lower),
    timed("core.refine_s", "s", Lower),
    timed("core.par_speedup.cost-scaling", "x", Higher),
    timed("core.par_speedup.hk-semi", "x", Higher),
    exact("cost_scaling.probes", "count", Lower),
    exact("cost_scaling.partitions", "count", Lower),
    exact("cost_scaling.deficiency_skips", "count", Higher),
    exact("cost_scaling.rollbacks", "count", Lower),
    // matching
    exact("flow.augmentations", "count", Lower),
    exact("flow.dinic_phases", "count", Lower),
    exact("flow.csr_rebuilds", "count", Lower),
    exact("hk_semi.phases", "count", Lower),
    exact("hk_semi.bfs_levels", "count", Lower),
    variable("hk_semi.paths_extracted", "count", Lower),
    variable("hk_semi.par.cas_failure_ratio", "ratio", Lower),
    // rayon pool
    variable("pool.tasks_executed", "count", Lower),
    variable("pool.steals", "count", Lower),
    variable("pool.sleeps", "count", Lower),
    variable("pool.wakes", "count", Lower),
    // serve
    timed("serve.apply_ns_p50", "ns", Lower),
    timed("serve.apply_ns_p99", "ns", Lower),
    exact("serve.placements", "count", Lower),
    exact("serve.repairs", "count", Lower),
    exact("serve.searches", "count", Lower),
    exact("serve.shifts", "count", Lower),
    exact("serve.moves", "count", Lower),
    exact("serve.search_yield", "ratio", Higher),
    // daemon
    timed("daemon.submit_ns_per_event", "ns", Lower),
    timed("daemon.publish_s", "s", Lower),
    timed("daemon.queue_wait_us_p50", "us", Lower),
    timed("daemon.queue_wait_us_p99", "us", Lower),
    timed("daemon.pump_ms_p50", "ms", Lower),
    timed("daemon.pump_ms_p99", "ms", Lower),
    timed("daemon.engine_share", "ratio", Higher),
    exact("daemon.shard_skew", "ratio", Lower),
    timed("daemon.status_s", "s", Lower),
    exact("daemon.shed", "count", Lower),
    exact("daemon.budget_exhaustions", "count", Lower),
    // bench
    timed("bench.unattributed_frac", "ratio", Lower),
    timed("bench.trace_overhead_frac", "ratio", Lower),
    timed("bench.steal_frac", "ratio", Lower),
];

/// Whether the per-layer metric `name` is labelled exact.
pub fn is_exact(name: &str) -> bool {
    PER_LAYER.iter().any(|d| d.name == name && d.repeat == Repeat::Exact)
}
