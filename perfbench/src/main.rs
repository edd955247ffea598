//! `semimatch-perfbench`: one layered benchmark for solving and serving.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve-exact --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `solve-exact`, `solve-hyper`, `serve-eager`, `serve-fleet`
//! (see `perfbench/README.md` for why each exists and which layer it
//! stresses). Inputs are generated from `--seed` on the benchmark's side
//! and handed to the program as serialized instances or event traces.
//! Timed passes repeat while another one fits in `--seconds`; timings are
//! medians over passes. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes and reports the
//! per-layer metrics. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full record (run stamp, every metric with its direction and
//! exact/variable label, span totals). A failed correctness gate exits 1
//! without a result line.

mod catalog;
mod report;
mod serve;
mod solve;
mod spans;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use semimatch::rayon;

use crate::report::{emit, Outcome, Stamp};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["solve-exact", "solve-hyper", "serve-eager", "serve-fleet"];

/// What one run is asked to do.
pub struct Run {
    pub seed: u64,
    /// The timed loop's time budget (see [`Run::another_round`]).
    pub budget: Duration,
    pub trace: bool,
    /// The benchmark-owned work-stealing pool (`nproc` workers).
    pub pool: rayon::ThreadPool,
}

impl Run {
    /// Whether the timed loop, begun at `start`, runs another round after
    /// `rounds`: always a first one, then while one more of average length
    /// still fits in the budget.
    pub fn another_round(&self, start: Instant, rounds: usize) -> bool {
        let elapsed = start.elapsed();
        rounds == 0 || elapsed + elapsed / rounds as u32 <= self.budget
    }
}

/// The pool's worker count, as a float for ratios.
pub fn width(run: &Run) -> f64 {
    run.pool.current_num_threads() as f64
}

const USAGE: &str = "usage: semimatch-perfbench --workload <solve-exact|solve-hyper|serve-eager|\
                     serve-fleet> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(&'static str, u64, u64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(bad)?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) if secs >= 1 => Ok((w, s, secs, t)),
        _ => Err("all four flags are required, --seconds at least 1".to_string()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The source revision, looked up inside the working directory only
/// (`"unknown"` outside a git checkout).
fn git_revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.as_os_str().to_owned()).unwrap_or_default();
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(workload: &'static str, run: &Run) -> Result<Outcome, String> {
    let mut out = match workload {
        "solve-exact" => solve::run(solve::Set::Exact, run)?,
        "solve-hyper" => solve::run(solve::Set::Hyper, run)?,
        "serve-eager" => serve::run(serve::Mode::Eager, run)?,
        "serve-fleet" => serve::run(serve::Mode::Fleet, run)?,
        _ => unreachable!("parse_args admits only known workloads"),
    };
    // Every load must have run on the benchmark-owned pool.
    if rayon::global_pool_stats().is_some() {
        return Err("work escaped to the global rayon pool".to_string());
    }
    out.set("peak_rss_mib", peak_rss_mib()?);
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("semimatch-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pool_width = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(pool_width)
        .build()
        .expect("the vendored pool builder does not fail");
    let r = Run { seed, budget: Duration::from_secs(seconds), trace, pool };
    match run(workload, &r) {
        Ok(out) => {
            let stamp = Stamp {
                workload,
                seed,
                seconds,
                trace,
                pool_width,
                run: semimatch_bench::RunStamp {
                    host_cores: pool_width,
                    threads: pool_width,
                    git: git_revision(),
                },
            };
            emit(&stamp, &out);
            ExitCode::SUCCESS
        }
        Err(violation) => {
            eprintln!("semimatch-perfbench: {workload}: correctness gate failed: {violation}");
            ExitCode::FAILURE
        }
    }
}
