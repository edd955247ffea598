//! Property tests for the objective axis: simultaneous optimality of the
//! exact unit solvers, objective-monotone refinement, and the
//! makespan-vs-flow-time disagreement the CLI `--objective` flag surfaces.

use proptest::prelude::*;
use semimatch::core::exact::{brute_force_multiproc_objective, brute_force_singleproc_objective};
use semimatch::core::objective::balanced_score;
use semimatch::core::refine::refine;
use semimatch::core::HyperMatching;
use semimatch::graph::{Bipartite, Hypergraph};
use semimatch::solver::{solve_with, Objective, Problem, Score, SolverKind};

/// Random unit-weight bipartite instances with every task covered, small
/// enough for brute force under every objective.
fn covered_bipartite() -> impl Strategy<Value = Bipartite> {
    (1u32..9, 1u32..6).prop_flat_map(|(n, p)| {
        proptest::collection::vec(
            proptest::collection::btree_set(0..p, 1..=(p as usize).min(3)),
            n as usize,
        )
        .prop_map(move |lists| {
            let lists: Vec<Vec<u32>> = lists.into_iter().map(|s| s.into_iter().collect()).collect();
            Bipartite::from_adjacency(n, p, &lists).unwrap()
        })
    })
}

/// Random weighted hypergraph instances: every task gets 1–3 distinct
/// configurations, each a nonempty processor set with weight 1–4.
fn weighted_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (1u32..7, 1u32..5).prop_flat_map(|(n, p)| {
        proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::btree_set(0..p, 1..=(p as usize).min(2)), 1u64..5),
                1..4,
            ),
            n as usize,
        )
        .prop_map(move |tasks| {
            let hedges: Vec<(u32, Vec<u32>, u64)> = tasks
                .iter()
                .enumerate()
                .flat_map(|(t, cfgs)| {
                    cfgs.iter().map(move |(pins, w)| (t as u32, pins.iter().copied().collect(), *w))
                })
                .collect();
            Hypergraph::from_hyperedges(n, p, hedges).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The satellite guarantee: the exact unit semi-matching (every exact
    /// SINGLEPROC kind, solved under FlowTime) is **simultaneously**
    /// optimal for the makespan and the flow time, verified against the
    /// objective-aware brute force on random instances.
    #[test]
    fn exact_unit_is_simultaneously_optimal(g in covered_bipartite()) {
        let problem = Problem::SingleProc(&g);
        let (flow_opt, _) =
            brute_force_singleproc_objective(&g, 5_000_000, Objective::FlowTime).unwrap();
        let (mk_opt, _) =
            brute_force_singleproc_objective(&g, 5_000_000, Objective::Makespan).unwrap();
        for kind in SolverKind::EXACT_SINGLEPROC {
            let sol = solve_with(problem, kind, Objective::FlowTime)
                .unwrap_or_else(|e| panic!("{kind} failed: {e}"));
            sol.validate(&problem).unwrap();
            prop_assert_eq!(
                sol.score(&problem, Objective::FlowTime).unwrap(),
                flow_opt,
                "{} missed the flow-time optimum",
                kind
            );
            prop_assert_eq!(
                sol.score(&problem, Objective::Makespan).unwrap(),
                mk_opt,
                "{} missed the makespan optimum",
                kind
            );
        }
    }

    /// Refinement under FlowTime never worsens the flow time (the
    /// acceptance-criterion proptest), starting from every heuristic the
    /// refined kinds build on — and the same holds per reported sum
    /// objective.
    #[test]
    fn refine_never_worsens_the_objective(h in weighted_hypergraph()) {
        for objective in [Objective::FlowTime, Objective::LpNorm(2), Objective::WeightedLoad] {
            for start_kind in [SolverKind::Sgh, SolverKind::Evg, SolverKind::StreamingGreedy] {
                let problem = Problem::MultiProc(&h);
                let sol = solve_with(problem, start_kind, objective).unwrap();
                let mut hm: HyperMatching = sol.into_hyper().unwrap();
                let before = hm.score(&h, objective);
                refine(&h, &mut hm, 16, objective).unwrap();
                hm.validate(&h).unwrap();
                prop_assert!(
                    hm.score(&h, objective) <= before,
                    "refine worsened {} from {} ({:?} -> {:?})",
                    objective, start_kind, before, hm.score(&h, objective)
                );
            }
        }
    }

    /// The balanced-spread score behind `lower_bound_objective_*` is a
    /// genuine floor for every load vector — including the degenerate
    /// corners (empty vectors, i.e. zero processors, and zero total work)
    /// — and huge per-processor loads never wrap it above a real cost.
    #[test]
    fn balanced_score_floors_every_load_vector(
        loads in proptest::collection::vec(0u64..1u64 << 40, 0..12),
    ) {
        let work: u128 = loads.iter().map(|&l| l as u128).sum();
        let p = loads.len() as u64;
        for obj in Objective::REPORTED {
            let floor = balanced_score(obj, work, p);
            if p == 0 {
                // Zero processors: defined, and "infeasible" iff work > 0.
                let expect = if work == 0 { Score(0) } else { Score(u128::MAX) };
                prop_assert_eq!(floor, expect, "{}", obj);
            } else {
                prop_assert!(
                    obj.evaluate(&loads) >= floor,
                    "{}: {:?} beat the balanced floor {:?}", obj, loads, floor
                );
            }
        }
    }

    /// Every kind under every reported objective stays feasible and never
    /// beats the objective-aware brute force.
    #[test]
    fn no_kind_beats_brute_force_under_any_objective(h in weighted_hypergraph()) {
        for objective in Objective::REPORTED {
            let problem = Problem::MultiProc(&h);
            let (opt, best) = brute_force_multiproc_objective(&h, 5_000_000, objective).unwrap();
            best.validate(&h).unwrap();
            prop_assert_eq!(best.score(&h, objective), opt);
            for kind in SolverKind::MULTIPROC {
                let sol = solve_with(problem, kind, objective)
                    .unwrap_or_else(|e| panic!("{kind} under {objective} failed: {e}"));
                sol.validate(&problem).unwrap();
                prop_assert!(
                    sol.score(&problem, objective).unwrap() >= opt,
                    "{} beat brute force under {}", kind, objective
                );
            }
        }
    }
}

/// Regression: saturated scores must not break candidate selection. Huge
/// weights under `LpNorm(8)` clamp every `u128` cost to `u128::MAX`
/// (integer marginals read 0), and `LpNorm(400)` overflows the `f64`
/// expected-load keys to `∞ − ∞` — both used to surface as a spurious
/// `UncoveredTask` on fully covered instances.
#[test]
fn saturated_objectives_still_solve_covered_instances() {
    let w = 1u64 << 40;
    let g = Bipartite::from_weighted_edges(
        4,
        2,
        &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)],
        &[w; 8],
    )
    .unwrap();
    let h = Hypergraph::from_hyperedges(
        2,
        2,
        vec![(0, vec![0], w), (0, vec![1], w), (1, vec![0], w), (1, vec![0, 1], w)],
    )
    .unwrap();
    for objective in [Objective::LpNorm(8), Objective::LpNorm(400)] {
        for kind in SolverKind::BI_HEURISTICS {
            let sol = solve_with(Problem::SingleProc(&g), kind, objective)
                .unwrap_or_else(|e| panic!("{kind} under {objective} failed: {e}"));
            sol.validate(&Problem::SingleProc(&g)).unwrap();
        }
        for kind in SolverKind::HYPER_HEURISTICS {
            let sol = solve_with(Problem::MultiProc(&h), kind, objective)
                .unwrap_or_else(|e| panic!("{kind} under {objective} failed: {e}"));
            sol.validate(&Problem::MultiProc(&h)).unwrap();
        }
    }
}

/// The instance where makespan and flow time genuinely disagree: T0 is
/// pinned to P0 with weight 3; T1 chooses between stacking P0 (flow-time
/// marginal 4) and a 7-processor spread (flow-time marginal 7, but
/// makespan 3 instead of 4).
fn disagreement_instance() -> Hypergraph {
    Hypergraph::from_hyperedges(
        2,
        8,
        vec![(0, vec![0], 3), (1, vec![0], 1), (1, vec![1, 2, 3, 4, 5, 6, 7], 1)],
    )
    .unwrap()
}

/// The acceptance-criterion integration test: `sgh` and `evg` under
/// `--objective flowtime` vs `--objective makespan` make different optimal
/// choices on an instance where the two objectives genuinely disagree.
#[test]
fn sgh_and_evg_choose_differently_per_objective() {
    let h = disagreement_instance();
    let problem = Problem::MultiProc(&h);
    // The objectives really do disagree on this instance: the brute-force
    // optima differ as assignments, not just as numbers.
    let (flow_opt, flow_best) =
        brute_force_multiproc_objective(&h, 1_000_000, Objective::FlowTime).unwrap();
    let (mk_opt, mk_best) =
        brute_force_multiproc_objective(&h, 1_000_000, Objective::Makespan).unwrap();
    assert_ne!(flow_best.hedge_of, mk_best.hedge_of, "objectives must genuinely disagree");
    assert!(flow_best.score(&h, Objective::Makespan) > mk_opt);
    assert!(mk_best.score(&h, Objective::FlowTime) > flow_opt);

    for kind in [SolverKind::Sgh, SolverKind::Evg] {
        let under_mk = solve_with(problem, kind, Objective::Makespan).unwrap();
        let under_flow = solve_with(problem, kind, Objective::FlowTime).unwrap();
        assert_ne!(under_mk, under_flow, "{kind} must choose differently per objective");
        // And each choice is optimal for its own objective here.
        assert_eq!(under_flow.score(&problem, Objective::FlowTime).unwrap(), flow_opt, "{kind}");
        assert_eq!(under_mk.score(&problem, Objective::Makespan).unwrap(), mk_opt, "{kind}");
    }
}
