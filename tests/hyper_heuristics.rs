//! Property tests for the `MULTIPROC` heuristics: validity, the
//! naive/optimized equivalence of the vector strategies, the
//! LB ≤ OPT ≤ heuristic sandwich, and refinement monotonicity — with all
//! algorithm selection routed through the solver registry.

mod common;

use common::covered_hypergraph;
use proptest::prelude::*;
use semimatch::core::hyper::evg::{expected_vector_greedy_hyp, expected_vector_greedy_hyp_naive};
use semimatch::core::hyper::vgh::{vector_greedy_hyp, vector_greedy_hyp_naive};
use semimatch::core::lower_bound::lower_bound_multiproc;
use semimatch::core::refine::refine;
use semimatch::solver::{solve, Objective, Problem, SolverKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heuristics_produce_valid_semi_matchings(h in covered_hypergraph(20, 8, 9)) {
        let problem = Problem::MultiProc(&h);
        for kind in SolverKind::HYPER_HEURISTICS {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn vgh_optimized_equals_naive(h in covered_hypergraph(20, 8, 9)) {
        let a = vector_greedy_hyp(&h).unwrap();
        let b = vector_greedy_hyp_naive(&h).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn evg_optimized_equals_naive(h in covered_hypergraph(20, 8, 9)) {
        let a = expected_vector_greedy_hyp(&h).unwrap();
        let b = expected_vector_greedy_hyp_naive(&h).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn lb_opt_heuristic_sandwich(h in covered_hypergraph(9, 5, 5)) {
        let problem = Problem::MultiProc(&h);
        let lb = lower_bound_multiproc(&h).unwrap();
        let brute = solve(problem, SolverKind::BruteForce).unwrap();
        brute.validate(&problem).unwrap();
        let opt = brute.makespan(&problem).unwrap();
        prop_assert!(lb <= opt, "LB {lb} exceeds optimum {opt}");
        for kind in SolverKind::MULTIPROC {
            let m = solve(problem, kind).unwrap().makespan(&problem).unwrap();
            prop_assert!(m >= opt, "{} beat the optimum: {m} < {opt}", kind.name());
        }
    }

    #[test]
    fn refinement_is_monotone_and_stabilizes(h in covered_hypergraph(16, 6, 9)) {
        let problem = Problem::MultiProc(&h);
        for kind in SolverKind::HYPER_HEURISTICS {
            let mut hm = solve(problem, kind).unwrap().into_hyper().unwrap();
            let before = hm.makespan(&h);
            refine(&h, &mut hm, 64, Objective::Makespan).unwrap();
            let after = hm.makespan(&h);
            prop_assert!(after <= before, "{} got worse", kind.name());
            hm.validate(&h).unwrap();
            // A second run from the fixpoint moves nothing.
            let frozen = hm.clone();
            let stats = refine(&h, &mut hm, 64, Objective::Makespan).unwrap();
            prop_assert_eq!(stats.moves, 0);
            prop_assert_eq!(&hm, &frozen);
        }
    }

    #[test]
    fn refined_kinds_never_lose_to_their_base(h in covered_hypergraph(16, 6, 9)) {
        let problem = Problem::MultiProc(&h);
        for (base, refined) in [
            (SolverKind::Evg, SolverKind::EvgRefined),
            (SolverKind::Sgh, SolverKind::SghRefined),
            (SolverKind::Sgh, SolverKind::SghIls),
        ] {
            let b = solve(problem, base).unwrap().makespan(&problem).unwrap();
            let r = solve(problem, refined).unwrap().makespan(&problem).unwrap();
            prop_assert!(r <= b, "{} worse than {}", refined.name(), base.name());
        }
    }

    #[test]
    fn loads_conserve_total_work(h in covered_hypergraph(16, 6, 9)) {
        // Σ_u l(u) must equal Σ_t w_{alloc(t)} · |alloc(t)|.
        let problem = Problem::MultiProc(&h);
        let hm = solve(problem, SolverKind::Sgh).unwrap().into_hyper().unwrap();
        let loads: u64 = hm.loads(&h).iter().sum();
        let work: u64 = hm
            .hedge_of
            .iter()
            .map(|&hid| h.weight(hid) * h.hedge_size(hid) as u64)
            .sum();
        prop_assert_eq!(loads, work);
    }
}
