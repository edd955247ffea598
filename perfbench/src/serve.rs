//! The serving workloads: a closed loop of one client that submits a
//! batch of events to the daemon, pumps, and repeats — the shape of
//! `Daemon::run` and the CLI.
//!
//! * `serve-eager` — the daemon's default policy (`Eager`, `evg` resolve
//!   kind, makespan) on a Zipf-multiplexed unit-singleton trace; exact
//!   augmenting-path repair dominates. Telemetry off.
//! * `serve-fleet` — 64 tenants on the generator's weighted-hypergraph
//!   shape under placement-only serving (`Lazy { slack: u64::MAX }`), with
//!   a `Collecting` recorder installed and `publish_metrics` after every
//!   pump; routing, queues, greedy placement and telemetry dominate.

use std::sync::Arc;
use std::time::Instant;

use semimatch::core::solver::{Problem, SolverKind};
use semimatch::daemon::{
    generate_multiplexed, Daemon, DaemonConfig, Engine, EngineConfig, Event, MultiplexParams,
    MultiplexedTrace, RepairPolicy, TenantStatus,
};
use semimatch::gen::trace::TraceParams;
use semimatch::gen::Xoshiro256;
use semimatch::obs;
use semimatch::serve::Counters;

use crate::report::{median, pool_delta, quantile, quiet_median, ratio, steal_s, Outcome};
use crate::spans::{secs, Spans};
use crate::{width, Run};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Eager,
    Fleet,
}

/// Events submitted between pumps (below the queue capacity, so a
/// healthy daemon sheds nothing).
const BATCH: usize = 256;
const QUEUE_CAPACITY: usize = 1024;
const PROCS: u32 = 32;

/// Independent deployments (each its own trace and daemon) served per
/// pass, so one seed's trace does not decide the figures alone.
fn deployments(mode: Mode) -> u64 {
    match mode {
        Mode::Eager => 4,
        Mode::Fleet => 1,
    }
}

fn params(mode: Mode) -> MultiplexParams {
    let (tenants, per_tenant) = match mode {
        Mode::Eager => (
            16,
            TraceParams {
                n_procs: PROCS,
                arrivals: 2048,
                churn_pct: 20,
                max_configs: 3,
                max_pins: 1,
                max_weight: 1,
                proc_events: 0,
                burst_every: 0,
                burst_len: 0,
            },
        ),
        Mode::Fleet => (
            64,
            TraceParams {
                n_procs: PROCS,
                arrivals: 65_536,
                churn_pct: 20,
                ..TraceParams::default()
            },
        ),
    };
    MultiplexParams { tenants, hotness: 1, per_tenant }
}

fn config(mode: Mode, shards: u32, tenants: u32) -> DaemonConfig {
    let policy = match mode {
        Mode::Eager => RepairPolicy::Eager,
        Mode::Fleet => RepairPolicy::Lazy { slack: u64::MAX },
    };
    DaemonConfig {
        shards,
        engine: EngineConfig { policy, ..EngineConfig::default() },
        queue_capacity: QUEUE_CAPACITY,
        migration_budget: u64::MAX,
        max_tenants: tenants as usize,
        slo_gap: u128::MAX,
    }
}

/// Per-batch and per-event timings of one loop over a trace.
#[derive(Default)]
struct Batches {
    /// Seconds of each batch: its submits, its pump and (fleet) publish.
    batch_s: Vec<f64>,
    pump_s: Vec<f64>,
    /// Per accepted event: submit → return of the pump that applied it, µs.
    latency_us: Vec<f64>,
    /// Per accepted event: submit → start of that pump, µs.
    wait_us: Vec<f64>,
}

impl Batches {
    /// Appends the batches of the next deployment.
    fn append(&mut self, other: Batches) {
        self.batch_s.extend(other.batch_s);
        self.pump_s.extend(other.pump_s);
        self.latency_us.extend(other.latency_us);
        self.wait_us.extend(other.wait_us);
    }
}

/// Windows a pass's events are cut into for [`windowed`].
const WINDOWS: usize = 32;

/// The `q`-quantile of `v` taken within each of [`WINDOWS`] consecutive
/// windows, then the median over the windows: a stall of the host that
/// lands in one window does not move it, a slower program moves them all.
fn windowed(v: &[f64], q: f64) -> f64 {
    let n = v.len();
    let w = WINDOWS.min(n.max(1));
    median(&(0..w).map(|k| quantile(&v[k * n / w..(k + 1) * n / w], q)).collect::<Vec<_>>())
}

/// The figures of one pass over every deployment.
struct Summary {
    loop_s: f64,
    pump_s: f64,
    latency_us: [f64; 2],
    wait_us: [f64; 2],
    pump_ms: [f64; 2],
}

impl Summary {
    fn of(b: &Batches) -> Summary {
        let pump_ms: Vec<f64> = b.pump_s.iter().map(|s| s * 1e3).collect();
        Summary {
            loop_s: b.batch_s.iter().sum(),
            pump_s: b.pump_s.iter().sum(),
            latency_us: [windowed(&b.latency_us, 0.50), windowed(&b.latency_us, 0.99)],
            wait_us: [windowed(&b.wait_us, 0.50), windowed(&b.wait_us, 0.99)],
            pump_ms: [quantile(&pump_ms, 0.50), quantile(&pump_ms, 0.99)],
        }
    }
}

/// What one iteration (set-up, the submit/pump loop, the status read)
/// produced.
struct Pass {
    setup_s: f64,
    batches: Batches,
    applied: u64,
    attempted: u64,
    failed: u64,
    statuses: Vec<TenantStatus>,
    shed: u64,
    budget_exhaustions: u64,
}

fn iteration(
    mode: Mode,
    cfg: DaemonConfig,
    trace: &MultiplexedTrace,
    events: Vec<(u32, Event)>,
    run: &Run,
    sp: &mut Spans,
) -> Result<(Pass, Daemon), String> {
    let begin = Instant::now();
    let mut daemon = sp.span("daemon.setup", |_| {
        let mut d = Daemon::new(cfg).map_err(|e| format!("daemon config rejected: {e}"))?;
        for tenant in 0..trace.tenants {
            // A rejected admission is counted by the daemon as a failure.
            let _ = d.admit(tenant, trace.n_procs);
        }
        Ok::<_, String>(d)
    })?;
    let setup_s = secs(begin);

    let n_events = events.len();
    let mut b = Batches {
        latency_us: Vec::with_capacity(n_events),
        wait_us: Vec::with_capacity(n_events),
        ..Batches::default()
    };
    let mut stamps: Vec<Instant> = Vec::with_capacity(BATCH);
    run.pool.install(|| {
        let mut events = events.into_iter().peekable();
        while events.peek().is_some() {
            let batch = Instant::now();
            stamps.clear();
            sp.span("daemon.submit", |_| {
                for (tenant, ev) in events.by_ref().take(BATCH) {
                    let at = Instant::now();
                    match daemon.submit(tenant, ev) {
                        Ok(true) => stamps.push(at),
                        Ok(false) => {}
                        Err(e) => return Err(format!("submit for tenant {tenant} failed: {e}")),
                    }
                }
                Ok(())
            })?;
            let start = Instant::now();
            sp.span("daemon.pump", |_| daemon.pump());
            let end = Instant::now();
            if mode == Mode::Fleet {
                sp.span("daemon.publish", |_| daemon.publish_metrics());
            }
            b.batch_s.push(secs(batch));
            b.pump_s.push((end - start).as_secs_f64());
            for at in &stamps {
                b.latency_us.push((end - *at).as_secs_f64() * 1e6);
                b.wait_us.push((start - *at).as_secs_f64() * 1e6);
            }
        }
        Ok::<_, String>(())
    })?;
    let statuses = sp.span("daemon.status", |_| daemon.statuses());

    let c = daemon.counters();
    let pass = Pass {
        setup_s,
        batches: b,
        applied: c.applied,
        attempted: n_events as u64 + trace.tenants as u64,
        failed: c.shed() + c.rejected_admissions,
        statuses,
        shed: c.shed(),
        budget_exhaustions: c.budget_exhaustions,
    };
    Ok((pass, daemon))
}

/// The direct replay of every tenant's demultiplexed stream through a
/// standalone engine: per-call apply times and the engines' end state.
struct Replay {
    apply_ns: Vec<f64>,
    counters: Counters,
    /// Final score per tenant, in the configured objective.
    scores: Vec<u128>,
}

fn replay(cfg: EngineConfig, trace: &MultiplexedTrace) -> Result<Replay, String> {
    let mut out =
        Replay { apply_ns: Vec::new(), counters: Counters::default(), scores: Vec::new() };
    for t in &trace.per_tenant() {
        let mut engine =
            Engine::new(cfg, t.n_procs).map_err(|e| format!("engine config rejected: {e}"))?;
        for ev in &t.events {
            let at = Instant::now();
            // The daemon sheds an event its engine rejects; so does this.
            let _ = engine.apply(ev);
            out.apply_ns.push(at.elapsed().as_nanos() as f64);
        }
        let c = engine.counters();
        out.counters.placements += c.placements;
        out.counters.repairs += c.repairs;
        out.counters.searches += c.searches;
        out.counters.shifts += c.shifts;
        out.counters.moves += c.moves;
        out.scores.push(engine.score(cfg.objective).0);
    }
    Ok(out)
}

/// The correctness gates on one daemon's final state: every tenant
/// matches its direct replay and its lower bound, and — under eager
/// repair — the from-scratch optimum of its live instance.
fn check(
    mode: Mode,
    run: &Run,
    statuses: &[TenantStatus],
    daemon: &Daemon,
    direct: &Replay,
) -> Result<(), String> {
    for st in statuses {
        let t = st.tenant;
        if st.score.0 < st.lower_bound.0 {
            return Err(format!("tenant {t}: score {} below its lower bound", st.score.0));
        }
        if direct.scores[t as usize] != st.score.0 {
            return Err(format!(
                "tenant {t}: daemon score {} differs from its direct replay {}",
                st.score.0, direct.scores[t as usize]
            ));
        }
        if mode != Mode::Eager {
            continue;
        }
        // Incremental ≡ from scratch: eager repair must hold the optimum.
        let snap = daemon.snapshot_of(t).ok_or(format!("tenant {t} vanished"))?;
        let g = snap.to_bipartite().ok_or(format!("tenant {t}: live state is not SINGLEPROC"))?;
        let optimum = if g.n_left() == 0 {
            0
        } else {
            let sol = run
                .pool
                .install(|| SolverKind::CostScaling.solve(Problem::from(&g)))
                .map_err(|e| format!("tenant {t}: from-scratch solve failed: {e}"))?;
            sol.makespan(&Problem::from(&g)).map_err(|e| format!("tenant {t}: {e}"))?
        };
        if u128::from(optimum) != st.score.0 {
            return Err(format!(
                "tenant {t}: incremental makespan {} but from-scratch optimum {optimum}",
                st.score.0
            ));
        }
    }
    Ok(())
}

pub fn run(mode: Mode, run: &Run) -> Result<Outcome, String> {
    let p = params(mode);
    let root = Xoshiro256::seed_from_u64(run.seed);
    let traces: Vec<MultiplexedTrace> =
        (0..deployments(mode)).map(|d| generate_multiplexed(&p, &mut root.stream(d))).collect();
    let shards = run.pool.current_num_threads() as u32;
    let cfg = config(mode, shards, p.tenants);
    // The fleet runs the way a `--metrics` deployment does: a collecting
    // recorder for the whole run, published after every pump.
    let recorder = (mode == Mode::Fleet).then(|| Arc::new(obs::Collecting::new()));
    if let Some(r) = &recorder {
        obs::install(r.clone());
    }
    let result = measure(mode, cfg, &traces, run);
    if recorder.is_some() {
        obs::uninstall();
    }
    result
}

/// One timed pass: every deployment's trace served by a fresh daemon.
fn serve_all(
    mode: Mode,
    cfg: DaemonConfig,
    traces: &[MultiplexedTrace],
    run: &Run,
    sp: &mut Spans,
) -> Result<Vec<(Pass, Daemon)>, String> {
    traces
        .iter()
        // Inputs are copied outside the timed region: the daemon takes
        // ownership of each submitted event.
        .map(|t| iteration(mode, cfg, t, t.events.clone(), run, sp))
        .collect()
}

fn measure(
    mode: Mode,
    cfg: DaemonConfig,
    traces: &[MultiplexedTrace],
    run: &Run,
) -> Result<Outcome, String> {
    // The oracle runs first and untimed; every pass is checked against it
    // as soon as its timing is done: the first pass in full, later ones by
    // equality with the first.
    let direct = traces.iter().map(|t| replay(cfg.engine, t)).collect::<Result<Vec<_>, _>>()?;
    let gate = |first: &[Pass], served: Vec<(Pass, Daemon)>| -> Result<Vec<Pass>, String> {
        let mut passes = Vec::with_capacity(served.len());
        for (d, (pass, daemon)) in served.into_iter().enumerate() {
            match first.get(d) {
                None => check(mode, run, &pass.statuses, &daemon, &direct[d])?,
                Some(f) if f.statuses != pass.statuses => {
                    return Err("tenant statuses changed between passes over the same trace".into())
                }
                Some(_) => {}
            }
            passes.push(pass);
        }
        Ok(passes)
    };

    let mut first: Vec<Pass> = Vec::new();
    let mut off = Spans::new(false);
    let mut traced = Spans::new(true);
    let mut summaries: Vec<Summary> = Vec::new();
    // Per untraced pass: CPU-seconds lost to the hypervisor per second.
    let mut steal = Vec::new();
    let (mut setup_s, mut untraced_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut first_pool = None;
    let start = Instant::now();
    while run.another_round(start, untraced_s.len()) {
        let t = Instant::now();
        let stolen = steal_s();
        let served = serve_all(mode, cfg, traces, run, &mut off)?;
        untraced_s.push(secs(t));
        steal.push((steal_s() - stolen) / secs(t));
        let mut passes = gate(&first, served)?;
        let mut batches = Batches::default();
        for p in &mut passes {
            setup_s.push(p.setup_s);
            attempted += p.attempted;
            failed += p.failed;
            batches.append(std::mem::take(&mut p.batches));
        }
        summaries.push(Summary::of(&batches));
        if first.is_empty() {
            first = passes;
        }
        if !run.trace {
            continue;
        }
        let before = run.pool.stats();
        let t = Instant::now();
        let served = traced.span("bench.iteration", |sp| serve_all(mode, cfg, traces, run, sp))?;
        traced_s.push(secs(t));
        gate(&first, served)?;
        first_pool.get_or_insert(pool_delta(&run.pool, &before));
    }
    let statuses: Vec<&TenantStatus> = first.iter().flat_map(|p| &p.statuses).collect();
    let applied: u64 = first.iter().map(|p| p.applied).sum();

    let mut out = Outcome {
        attempted,
        failed,
        passes: (untraced_s.len(), traced_s.len()),
        ..Outcome::default()
    };
    let ratios: Vec<f64> = statuses
        .iter()
        .filter(|s| s.lower_bound.0 > 0)
        .map(|s| s.score.0 as f64 / s.lower_bound.0 as f64)
        .collect();
    if ratios.is_empty() {
        return Err("no tenant ended with live work".into());
    }
    // Every timing is a median over the quieter untraced passes.
    let over_passes = |f: &dyn Fn(&Summary) -> f64| {
        quiet_median(&summaries.iter().map(f).collect::<Vec<_>>(), &steal)
    };
    out.set("setup_s", median(&setup_s));
    out.set("solve_s", over_passes(&|s| s.loop_s));
    out.set("events_per_s", over_passes(&|s| applied as f64 / s.loop_s));
    out.set("event_latency_p50_us", over_passes(&|s| s.latency_us[0]));
    out.set("event_latency_p99_us", over_passes(&|s| s.latency_us[1]));
    out.set("quality_ratio", ratios.iter().sum::<f64>() / ratios.len() as f64);
    out.set("success_frac", 1.0 - ratio(out.failed as f64, out.attempted as f64));
    if !run.trace {
        return Ok(out);
    }

    let apply_ns: Vec<f64> = direct.iter().flat_map(|r| r.apply_ns.iter().copied()).collect();
    out.set("serve.apply_ns_p50", quantile(&apply_ns, 0.50));
    out.set("serve.apply_ns_p99", quantile(&apply_ns, 0.99));
    let count = |f: fn(&Counters) -> u64| direct.iter().map(|r| f(&r.counters)).sum::<u64>() as f64;
    out.set("serve.placements", count(|c| c.placements));
    out.set("serve.repairs", count(|c| c.repairs));
    out.set("serve.searches", count(|c| c.searches));
    out.set("serve.shifts", count(|c| c.shifts));
    out.set("serve.moves", count(|c| c.moves));
    out.set("serve.search_yield", ratio(count(|c| c.shifts), count(|c| c.searches)));

    let iters = traced_s.len() as f64;
    let events: usize = traces.iter().map(|t| t.events.len()).sum();
    out.set(
        "daemon.submit_ns_per_event",
        traced.total_s("daemon.submit") * 1e9 / (iters * events as f64),
    );
    out.set("daemon.publish_s", traced.total_s("daemon.publish") / iters);
    out.set("daemon.status_s", traced.total_s("daemon.status") / iters);
    out.set("daemon.queue_wait_us_p50", over_passes(&|s| s.wait_us[0]));
    out.set("daemon.queue_wait_us_p99", over_passes(&|s| s.wait_us[1]));
    out.set("daemon.pump_ms_p50", over_passes(&|s| s.pump_ms[0]));
    out.set("daemon.pump_ms_p99", over_passes(&|s| s.pump_ms[1]));
    out.set(
        "daemon.engine_share",
        apply_ns.iter().sum::<f64>() * 1e-9 / over_passes(&|s| s.pump_s),
    );
    let mut per_shard = vec![0u64; cfg.shards as usize];
    for st in &statuses {
        per_shard[st.shard as usize] += st.applied;
    }
    let mean = per_shard.iter().sum::<u64>() as f64 / per_shard.len() as f64;
    out.set("daemon.shard_skew", ratio(*per_shard.iter().max().unwrap_or(&0) as f64, mean));
    out.set("daemon.shed", first.iter().map(|p| p.shed).sum::<u64>() as f64);
    out.set(
        "daemon.budget_exhaustions",
        first.iter().map(|p| p.budget_exhaustions).sum::<u64>() as f64,
    );
    for (name, v) in first_pool.expect("at least one traced pass ran") {
        out.set(name, v);
    }

    out.set("bench.steal_frac", steal.iter().sum::<f64>() / steal.len() as f64 / width(run));
    let root = traced.totals().get("bench.iteration").copied().unwrap_or_default();
    out.set("bench.unattributed_frac", ratio(root.self_s, root.total_s));
    out.set("bench.trace_overhead_frac", median(&traced_s) / median(&untraced_s) - 1.0);
    out.spans = traced.totals();
    Ok(out)
}
