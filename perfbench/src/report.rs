//! Statistics, the run outcome and its rendering: a human table on stderr,
//! a full record line, and the one-line result the contract reads last.

use std::collections::BTreeMap;

use semimatch::rayon::{PoolStats, ThreadPool};

use crate::catalog::{Def, Repeat, END_TO_END, PER_LAYER};
use crate::spans::Total;

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// CPU-seconds this guest's CPUs have lost to the hypervisor so far (the
/// `steal` column of `/proc/stat`, in 10 ms ticks); 0 where unavailable.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Median of `values` over the passes whose share of time lost to the
/// hypervisor (`steal`, one per pass) is at most the median pass's. On a
/// shared host a pass that lost its CPUs to other guests measures that
/// loss, not the program; with no steal every pass counts.
pub fn quiet_median(values: &[f64], steal: &[f64]) -> f64 {
    let cut = median(steal);
    let kept: Vec<f64> =
        values.iter().zip(steal).filter(|(_, s)| **s <= cut).map(|(v, _)| *v).collect();
    median(&kept)
}

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `pool.*` metrics: work-stealing activity of `pool` since `before`.
pub fn pool_delta(pool: &ThreadPool, before: &PoolStats) -> [(&'static str, f64); 4] {
    let now = pool.stats();
    [
        ("pool.tasks_executed", (now.tasks_executed() - before.tasks_executed()) as f64),
        ("pool.steals", (now.steals() - before.steals()) as f64),
        ("pool.sleeps", (now.sleeps() - before.sleeps()) as f64),
        ("pool.wakes", (now.wakes - before.wakes) as f64),
    ]
}

/// Everything one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations offered: solves, or submitted events plus admissions.
    pub attempted: u64,
    /// Operations that returned an error, were shed or were rejected.
    pub failed: u64,
    /// Metric values by catalog name.
    pub values: BTreeMap<&'static str, f64>,
    /// Timed passes behind the medians (untraced, traced).
    pub passes: (usize, usize),
    /// Span totals of the traced passes.
    pub spans: BTreeMap<&'static str, Total>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// Run provenance stamped into the record line.
pub struct Stamp {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub pool_width: usize,
    pub run: semimatch_bench::RunStamp,
}

fn json_str(s: &str) -> String {
    semimatch::obs::registry::json_string(s)
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// Prints the human table (stderr), the record line and the result line
/// (stdout, last). End-to-end metrics a traced run measured go to the
/// table and the record too, but the result line carries only the
/// catalog of the run's mode.
pub fn emit(stamp: &Stamp, out: &Outcome) {
    // A layer that does no work on this workload reads 0.
    let mut values = out.values.clone();
    if stamp.trace {
        for d in PER_LAYER {
            values.entry(d.name).or_insert(0.0);
        }
    }
    for d in END_TO_END {
        assert!(values.contains_key(d.name), "end-to-end metric {} was not measured", d.name);
    }
    let mut table = String::new();
    for (title, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        if !defs.iter().any(|d| values.contains_key(d.name)) {
            continue;
        }
        table.push_str(&format!("{title} ({}, seed {}):\n", stamp.workload, stamp.seed));
        for d in defs {
            if let Some(v) = values.get(d.name) {
                let tag = match d.repeat {
                    Repeat::Timed => "",
                    Repeat::Exact => " [exact]",
                    Repeat::Variable => " [variable]",
                };
                table.push_str(&format!(
                    "  {:<32} {:>16.6} {:<6} ({} is better){tag}\n",
                    d.name,
                    v,
                    d.unit,
                    d.better.as_str()
                ));
            }
        }
    }
    eprint!("{table}");

    let metric_list = |defs: &[Def]| -> String {
        defs.iter()
            .filter_map(|d| {
                let v = values.get(d.name)?;
                Some(format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": \"{}\", \
                     \"repeat\": \"{}\"}}",
                    json_str(d.name),
                    json_num(*v),
                    json_str(d.unit),
                    d.better.as_str(),
                    match d.repeat {
                        Repeat::Timed => "timed",
                        Repeat::Exact => "exact",
                        Repeat::Variable => "variable",
                    }
                ))
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let spans = out
        .spans
        .iter()
        .map(|(name, t)| {
            format!(
                "{}: {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
                json_str(name),
                t.count,
                json_num(t.total_s),
                json_num(t.self_s)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"pool_width\": {}, {}, \"passes\": {{\"untraced\": {}, \"traced\": {}}}, \
         \"attempted\": {}, \"failed\": {}, \"end_to_end\": [{}], \"per_layer\": [{}], \
         \"spans\": {{{}}}}}}}",
        json_str(stamp.workload),
        stamp.seed,
        stamp.seconds,
        u8::from(stamp.trace),
        stamp.pool_width,
        stamp.run.json_fields(),
        out.passes.0,
        out.passes.1,
        out.attempted,
        out.failed,
        metric_list(END_TO_END),
        metric_list(PER_LAYER),
        spans
    );

    let metrics = if stamp.trace { PER_LAYER } else { END_TO_END }
        .iter()
        .map(|d| {
            let v = values[d.name];
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(d.name),
                json_num(v),
                json_str(d.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted, out.failed, metrics
    );
}
