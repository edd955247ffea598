//! Parallel scaling: the serving workload the work-stealing pool
//! accelerates inside a run, replayed under local pools of 1, 2, 4, …
//! workers.
//!
//! * **streaming** — a sharded `Engine::replay` of a generated
//!   hypergraph trace, where the repair pass sweeps shards concurrently.
//!
//! The exact solvers are sequential, so they have no row here. Every
//! pool size reports best-of-`REPEATS` wall-clock seconds and the
//! speedup over the 1-worker run;
//! the run asserts the result checksum is identical at every pool size
//! (the determinism contract). The report lands as markdown **and** as
//! `results/BENCH_parallel.json` with the host core count — on a 1-core
//! host the pools are oversubscribed and the speedup column honestly
//! records ≈1× (the numbers are only meaningful read next to
//! `host_cores`).

use std::sync::Arc;
use std::time::Instant;

use semimatch_bench::{
    emit_report, guard_host_cores, indent_json, markdown_table, record_pool_stats, Options,
    RunStamp,
};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::trace::{generate_trace, Trace, TraceParams};
use semimatch_serve::{Engine, EngineConfig};

/// Timing repeats per cell; the best run is reported.
const REPEATS: usize = 3;

/// Pool sizes to sweep: 1, 2, 4 and (when larger) every host core.
fn thread_counts() -> Vec<usize> {
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut ts = vec![1usize, 2, 4];
    if host > 4 {
        ts.push(host);
    }
    ts
}

/// The sharded serving trace of the `streaming` bench group.
fn streaming_trace(arrivals: u32, seed: u64) -> Trace {
    let params = TraceParams {
        n_procs: 64,
        arrivals,
        churn_pct: 10,
        max_configs: 4,
        max_pins: 3,
        max_weight: 16,
        proc_events: 0,
        burst_every: 0,
        burst_len: 0,
    };
    generate_trace(&params, &mut Xoshiro256::seed_from_u64(seed))
}

/// The one workload row of the report.
const WORKLOAD: &str = "streaming/replay-sharded";

struct Cell {
    threads: usize,
    seconds: f64,
}

/// Runs `work` under a `threads`-worker pool `REPEATS` times; returns
/// (best seconds, checksum).
fn time_under<F: FnMut() -> u64 + Send>(threads: usize, mut work: F) -> (f64, u64) {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("local pool");
    let mut best = f64::INFINITY;
    let mut checksum = 0u64;
    for _ in 0..REPEATS {
        let start = Instant::now();
        checksum = pool.install(&mut work);
        best = best.min(start.elapsed().as_secs_f64());
    }
    // Additive fold across every local pool of the sweep: the report's
    // `metrics` object then carries fleet totals (tasks, steals, sleeps).
    record_pool_stats(&pool.stats());
    (best, checksum)
}

fn main() {
    let opts = Options::from_args();
    let scale = opts.scale.max(1);
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    guard_host_cores("BENCH_parallel.json", host_cores, opts.force);
    let counts = thread_counts();
    let stamp = RunStamp::capture(*counts.last().expect("nonempty"));
    let collecting = Arc::new(semimatch_obs::Collecting::new());
    semimatch_obs::install(collecting.clone());

    let trace = streaming_trace((8192 / scale).max(128), opts.seed);
    let serve_cfg = EngineConfig { shards: 8, ..EngineConfig::default() };

    let mut cells: Vec<Cell> = Vec::new();
    let mut checksum = None;
    for &t in &counts {
        let (seconds, sum) = time_under(t, || {
            Engine::replay(serve_cfg, &trace).expect("coverable trace").bottleneck()
        });
        let expect = *checksum.get_or_insert(sum);
        assert_eq!(sum, expect, "{WORKLOAD}: result changed at {t} threads");
        cells.push(Cell { threads: t, seconds });
    }

    semimatch_obs::uninstall();
    let metrics = collecting.registry().render_json();

    let base = cells[0].seconds;
    let speedup = |c: &Cell| base / c.seconds.max(f64::EPSILON);
    let widest = cells.last().expect("nonempty");

    // Markdown: the workload as the row, pool sizes as columns.
    let mut headers = vec!["Workload".to_string()];
    headers.extend(counts.iter().map(|t| format!("{t}T s (×)")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut row = vec![WORKLOAD.to_string()];
    row.extend(cells.iter().map(|c| format!("{:.3} ({:.2}×)", c.seconds, speedup(c))));
    let report = format!(
        "# Parallel scaling\n\nscale = {}, seed = {}, host cores = {}, repeats = {}\n\n{}\n\
         speedup at {} workers: {:.2}×\n\n\
         Checksums identical at every pool size (the sharded sweep is \
         deterministic-equivalent to the sequential shard loop).\n",
        scale,
        opts.seed,
        host_cores,
        REPEATS,
        markdown_table(&header_refs, &[row]),
        widest.threads,
        speedup(widest)
    );
    emit_report("parallel_scaling.md", &report);

    // Machine-readable trajectory record.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\"scale\": {}, \"seed\": {}, {}, \"repeats\": {}, \
         \"widest_pool\": {}, \"speedup_at_widest\": {:.4}}},\n  \"rows\": [\n",
        scale,
        opts.seed,
        stamp.json_fields(),
        REPEATS,
        widest.threads,
        speedup(widest)
    ));
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{WORKLOAD}\", \"threads\": {}, \"seconds\": {:.6}, \
             \"speedup_vs_1t\": {:.4}}}{}\n",
            c.threads,
            c.seconds,
            speedup(c),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    // Whole-sweep telemetry: serve counters across every pool size plus
    // the summed work-stealing stats of all local pools.
    json.push_str(&format!("  \"metrics\": {}\n", indent_json(&metrics, "  ")));
    json.push_str("}\n");
    emit_report("BENCH_parallel.json", &json);
}
