//! The solving workloads: parse serialized instances, then lower-bound,
//! solve, validate and score every instance with every kind of the set.
//!
//! * `solve-exact` — sixteen tall SINGLEPROC-UNIT instances (n = 32768,
//!   p = 64, g = 4, d = 2; alternately `hilo_permuted` and `fewg_manyg`)
//!   as `.bg` text, solved by the three exact backends under the
//!   `nproc`-wide pool.
//! * `solve-hyper` — the paper's 24-row Table I MULTIPROC grid with
//!   related weights (`-W`) at a quarter of its n and p, two instances per
//!   row, as `.hg` text, solved by the Table II/III heuristics plus
//!   `evg-refined`.

use std::sync::Arc;
use std::time::Instant;

use semimatch::core::solver::{KindSolver, Problem, Solver, SolverKind};
use semimatch::core::Objective;
use semimatch::gen::params::scaled_grid;
use semimatch::gen::{fewg_manyg, hilo_permuted, WeightScheme, Xoshiro256};
use semimatch::graph::io::{read_bipartite, read_hypergraph, write_bipartite, write_hypergraph};
use semimatch::graph::{Bipartite, Hypergraph};
use semimatch::obs;
use semimatch::rayon;

use crate::catalog::is_exact;
use crate::report::{median, pool_delta, quantile, quiet_median, ratio, steal_s, Outcome};
use crate::spans::{secs, Spans};
use crate::{width, Run};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Set {
    Exact,
    Hyper,
}

/// `solve-exact` shape: tall (n/p = 512, as the n = 131072, p = 256 shape
/// at a quarter of its size) so the exact backends, not parsing, dominate;
/// loose counting bounds so the load-range search probes; far above the
/// task thresholds of the parallel probes and of `semi_par`. The time of
/// one instance depends strongly on its draw, so a pass solves sixteen.
const EXACT_INSTANCES: u64 = 16;
const EXACT_N: u32 = 32_768;
const EXACT_P: u32 = 64;
const EXACT_G: u32 = 4;
const EXACT_D: u32 = 2;

/// `solve-hyper` divides the Table I sizes by this factor and draws this
/// many instances per configuration (the paper draws 10 at full size).
const HYPER_SCALE: u32 = 4;
const HYPER_INSTANCES: u64 = 2;

/// Untraced setups measured before the timed loop (their median is
/// `setup_s`).
const SETUP_REPS: usize = 9;

/// Every kind either set runs: (kind, span name, per-layer metric).
const KINDS: [(SolverKind, &str, &str); 8] = [
    (SolverKind::ExactBisection, "core.solve.exact-bisection", "core.solve.exact-bisection_s"),
    (SolverKind::CostScaling, "core.solve.cost-scaling", "core.solve.cost-scaling_s"),
    (SolverKind::HopcroftKarpSemi, "core.solve.hk-semi", "core.solve.hk-semi_s"),
    (SolverKind::Sgh, "core.solve.sgh", "core.solve.sgh_s"),
    (SolverKind::Vgh, "core.solve.vgh", "core.solve.vgh_s"),
    (SolverKind::Egh, "core.solve.egh", "core.solve.egh_s"),
    (SolverKind::Evg, "core.solve.evg", "core.solve.evg_s"),
    (SolverKind::EvgRefined, "core.solve.evg-refined", "core.solve.evg-refined_s"),
];

/// Program counters read from the `Collecting` registry after a traced
/// pass, reported under the same name.
const REGISTRY_COUNTERS: [&str; 10] = [
    "cost_scaling.probes",
    "cost_scaling.partitions",
    "cost_scaling.deficiency_skips",
    "cost_scaling.rollbacks",
    "flow.augmentations",
    "flow.dinic_phases",
    "flow.csr_rebuilds",
    "hk_semi.phases",
    "hk_semi.bfs_levels",
    "hk_semi.paths_extracted",
];

fn kinds(set: Set) -> &'static [(SolverKind, &'static str, &'static str)] {
    match set {
        Set::Exact => &KINDS[..3],
        Set::Hyper => &KINDS[3..],
    }
}

enum Graph {
    Bi(Bipartite),
    Hyper(Hypergraph),
}

impl Graph {
    fn problem(&self) -> Problem<'_> {
        match self {
            Graph::Bi(g) => Problem::from(g),
            Graph::Hyper(h) => Problem::from(h),
        }
    }
}

/// The serialized instance set of `seed` (the program's only input).
fn generate(set: Set, seed: u64) -> Vec<Vec<u8>> {
    match set {
        Set::Exact => {
            let root = Xoshiro256::seed_from_u64(seed);
            (0..EXACT_INSTANCES)
                .map(|i| {
                    let mut rng = root.stream(i);
                    let g = if i % 2 == 0 {
                        hilo_permuted(EXACT_N, EXACT_P, EXACT_G, EXACT_D, &mut rng)
                    } else {
                        fewg_manyg(EXACT_N, EXACT_P, EXACT_G, EXACT_D, &mut rng)
                    };
                    let mut buf = Vec::new();
                    write_bipartite(&g, &mut buf).expect("writing to memory cannot fail");
                    buf
                })
                .collect()
        }
        Set::Hyper => scaled_grid(WeightScheme::Related, HYPER_SCALE)
            .iter()
            .flat_map(|c| (0..HYPER_INSTANCES).map(move |i| c.instance(seed, i)))
            .map(|h| {
                let mut buf = Vec::new();
                write_hypergraph(&h, &mut buf).expect("writing to memory cannot fail");
                buf
            })
            .collect(),
    }
}

/// Parses every instance and builds one solver per kind.
fn setup(
    set: Set,
    inputs: &[Vec<u8>],
    sp: &mut Spans,
) -> Result<(Vec<Graph>, Vec<KindSolver>), String> {
    let graphs = inputs
        .iter()
        .map(|bytes| {
            sp.span("graph.read", |_| match set {
                Set::Exact => read_bipartite(&bytes[..]).map(Graph::Bi),
                Set::Hyper => read_hypergraph(&bytes[..]).map(Graph::Hyper),
            })
            .map_err(|e| format!("generated instance does not parse: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let solvers =
        sp.span("core.build", |_| kinds(set).iter().map(|&(k, _, _)| k.solver()).collect());
    Ok((graphs, solvers))
}

/// What one pass over the instance set produced.
struct Pass {
    wall_s: f64,
    /// Seconds of each solve plus its validation and scoring.
    latency_s: Vec<f64>,
    /// Seconds of the `solve` calls alone, per kind, summed over instances.
    kind_s: Vec<f64>,
    /// Makespan per (instance, kind); `None` where the solve failed.
    makespans: Vec<Option<u64>>,
    /// makespan ÷ lower bound per successful solve.
    ratios: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// One pass: lower bound, then every kind's solve, validation and score.
/// A violated gate (invalid solution, score below the lower bound, exact
/// kinds disagreeing) is an `Err`; a solver error is a counted failure.
fn pass(
    set: Set,
    graphs: &[Graph],
    solvers: &mut [KindSolver],
    sp: &mut Spans,
) -> Result<Pass, String> {
    let start = Instant::now();
    let mut out = Pass {
        wall_s: 0.0,
        latency_s: Vec::new(),
        kind_s: vec![0.0; solvers.len()],
        makespans: Vec::new(),
        ratios: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for (i, g) in graphs.iter().enumerate() {
        let p = g.problem();
        let lb = sp
            .span("core.lower_bound", |_| p.lower_bound(Objective::Makespan))
            .map_err(|e| format!("instance {i}: lower bound failed: {e}"))?
            .0;
        if lb == 0 {
            return Err(format!("instance {i}: zero lower bound"));
        }
        for (k, solver) in solvers.iter_mut().enumerate() {
            let (kind, span, _) = kinds(set)[k];
            let t = Instant::now();
            out.attempted += 1;
            let solved = sp.span(span, |_| solver.solve(p));
            out.kind_s[k] += secs(t);
            let Ok(sol) = solved else {
                out.failed += 1;
                out.latency_s.push(secs(t));
                out.makespans.push(None);
                continue;
            };
            let score = sp
                .span("core.validate", |_| {
                    sol.validate(&p)?;
                    sol.score(&p, Objective::Makespan)
                })
                .map_err(|e| format!("instance {i}: {kind} returned an invalid solution: {e}"))?
                .0;
            out.latency_s.push(secs(t));
            if score < lb {
                return Err(format!("instance {i}: {kind} scored {score} below the bound {lb}"));
            }
            let makespan = u64::try_from(score).map_err(|_| "makespan exceeds u64")?;
            out.makespans.push(Some(makespan));
            out.ratios.push(score as f64 / lb as f64);
        }
        if set == Set::Exact {
            let row = &out.makespans[out.makespans.len() - solvers.len()..];
            let mut ok = row.iter().flatten();
            if let Some(first) = ok.next() {
                if let Some(other) = ok.find(|m| *m != first) {
                    return Err(format!("instance {i}: exact kinds disagree ({first} vs {other})"));
                }
            }
        }
    }
    out.wall_s = secs(start);
    Ok(out)
}

/// Counter values of the program's registry (absent counters read 0).
fn registry_counters(c: &obs::Collecting) -> Vec<(&'static str, u64)> {
    let snap = c.registry().snapshot();
    let get = |name: &str| {
        snap.iter()
            .find_map(|(n, v)| match v {
                obs::MetricValue::Counter(x) if n == name => Some(*x),
                _ => None,
            })
            .unwrap_or(0)
    };
    REGISTRY_COUNTERS
        .iter()
        .chain(["hk_semi.par.cas_failures"].iter())
        .map(|&n| (n, get(n)))
        .collect()
}

pub fn run(set: Set, run: &Run) -> Result<Outcome, String> {
    let inputs = generate(set, run.seed);
    let read_bytes: usize = inputs.iter().map(Vec::len).sum();
    let mut off = Spans::new(false);

    let mut setups = Vec::new();
    let mut state = None;
    if !run.trace {
        for _ in 0..SETUP_REPS {
            // Free the previous set-up first, so every one starts alike.
            drop(state.take());
            let t = Instant::now();
            state = Some(setup(set, &inputs, &mut off)?);
            setups.push(secs(t));
        }
    }

    let mut untraced: Vec<Pass> = Vec::new();
    // Per untraced pass: CPU-seconds lost to the hypervisor per second.
    let mut steal = Vec::new();
    let mut untraced_iter_s = Vec::new();
    let mut traced_iter_s = Vec::new();
    let mut traced = Spans::new(true);
    let mut first_counters: Option<Vec<(&'static str, u64)>> = None;
    let mut first_pool = None;
    let start = Instant::now();
    while run.another_round(start, untraced.len()) {
        // Untraced pass (in a traced run, an untraced setup + pass, the
        // twin of the traced iteration below).
        let t = Instant::now();
        if run.trace {
            drop(state.take());
            let s = Instant::now();
            state = Some(setup(set, &inputs, &mut off)?);
            setups.push(secs(s));
        }
        let (graphs, solvers) = state.as_mut().expect("set up above");
        let stolen = steal_s();
        let p = run.pool.install(|| pass(set, graphs, solvers, &mut off))?;
        steal.push((steal_s() - stolen) / p.wall_s);
        untraced_iter_s.push(secs(t));
        if untraced.first().is_some_and(|f| f.makespans != p.makespans) {
            return Err("makespans changed between passes over the same inputs".into());
        }
        untraced.push(p);
        if !run.trace {
            continue;
        }

        // Traced iteration: setup + pass inside one root span, with the
        // program's collecting recorder installed for its counters.
        let collecting = Arc::new(obs::Collecting::new());
        obs::install(collecting.clone());
        let before = run.pool.stats();
        let t = Instant::now();
        let result = traced.span("bench.iteration", |sp| {
            let (graphs, mut solvers) = sp.span("bench.setup", |sp| setup(set, &inputs, sp))?;
            run.pool.install(|| pass(set, &graphs, &mut solvers, sp))
        });
        traced_iter_s.push(secs(t));
        obs::uninstall();
        result?;
        let counters = registry_counters(&collecting);
        let pool = pool_delta(&run.pool, &before);
        match &first_counters {
            None => {
                first_counters = Some(counters);
                first_pool = Some(pool);
            }
            Some(first) => {
                for name in REGISTRY_COUNTERS.into_iter().filter(|n| is_exact(n)) {
                    let a = first.iter().find(|(n, _)| *n == name);
                    let b = counters.iter().find(|(n, _)| *n == name);
                    if a != b {
                        return Err(format!("exact counter {name} changed: {a:?} vs {b:?}"));
                    }
                }
            }
        }
    }

    let mut out = Outcome {
        attempted: untraced.iter().map(|p| p.attempted).sum(),
        failed: untraced.iter().map(|p| p.failed).sum(),
        passes: (untraced.len(), traced_iter_s.len()),
        ..Outcome::default()
    };
    // Every timing is a median over the quieter untraced passes.
    let over_passes = |f: &dyn Fn(&Pass) -> f64| {
        quiet_median(&untraced.iter().map(f).collect::<Vec<_>>(), &steal)
    };
    let ratios = &untraced[0].ratios;
    out.set("setup_s", median(&setups));
    out.set("solve_s", over_passes(&|p| p.wall_s));
    out.set("events_per_s", over_passes(&|p| p.attempted as f64 / p.wall_s));
    out.set("event_latency_p50_us", over_passes(&|p| quantile(&p.latency_s, 0.50) * 1e6));
    out.set("event_latency_p99_us", over_passes(&|p| quantile(&p.latency_s, 0.99) * 1e6));
    out.set("quality_ratio", ratio(ratios.iter().sum(), ratios.len() as f64));
    out.set("success_frac", 1.0 - ratio(out.failed as f64, out.attempted as f64));
    if !run.trace {
        return Ok(out);
    }

    // Per-layer metrics: span totals per traced iteration.
    let iters = traced_iter_s.len() as f64;
    let per_iter = |name: &str| traced.total_s(name) / iters;
    out.set("graph.read_s", per_iter("graph.read"));
    out.set("graph.read_bytes", read_bytes as f64);
    out.set("core.lower_bound_s", per_iter("core.lower_bound"));
    out.set("core.validate_s", per_iter("core.validate"));
    for (_, span, metric) in KINDS {
        out.set(metric, per_iter(span));
    }
    if set == Set::Hyper {
        out.set("core.refine_s", per_iter("core.solve.evg-refined") - per_iter("core.solve.evg"));
    }
    let counters = first_counters.expect("at least one traced iteration ran");
    let counter = |name: &str| counters.iter().find(|(n, _)| *n == name).map_or(0, |c| c.1);
    for name in REGISTRY_COUNTERS {
        out.set(name, counter(name) as f64);
    }
    out.set(
        "hk_semi.par.cas_failure_ratio",
        ratio(
            counter("hk_semi.par.cas_failures") as f64,
            counter("hk_semi.paths_extracted") as f64,
        ),
    );
    for (name, v) in first_pool.expect("recorded with the counters") {
        out.set(name, v);
    }

    // Parallel speed-up of the two parallel exact backends: the same warm
    // solvers re-run every instance on a 1-worker pool.
    if set == Set::Exact {
        let one = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("the vendored pool builder does not fail");
        let (graphs, solvers) = state.as_mut().expect("set up in the loop");
        for (k, metric) in
            [(1usize, "core.par_speedup.cost-scaling"), (2, "core.par_speedup.hk-semi")]
        {
            let mut single_s = 0.0;
            for g in graphs.iter() {
                let t = Instant::now();
                one.install(|| solvers[k].solve(g.problem()))
                    .map_err(|e| format!("1-worker re-solve failed: {e}"))?;
                single_s += secs(t);
            }
            out.set(metric, single_s / over_passes(&|p| p.kind_s[k]));
        }
    }

    out.set("bench.steal_frac", steal.iter().sum::<f64>() / steal.len() as f64 / width(run));
    let root = traced.totals().get("bench.iteration").copied().unwrap_or_default();
    out.set("bench.unattributed_frac", ratio(root.self_s, root.total_s));
    out.set("bench.trace_overhead_frac", median(&traced_iter_s) / median(&untraced_iter_s) - 1.0);
    out.spans = traced.totals();
    Ok(out)
}
