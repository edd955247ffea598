//! Crate-local property tests for the algorithm layer, driven by the real
//! generators (the root integration suite uses abstract proptest
//! strategies; here the inputs are the paper's own instance families).

use proptest::prelude::*;
use semimatch_core::exact::{exact_unit, harvey_exact, SearchStrategy};
use semimatch_core::lower_bound::{lower_bound_multiproc, lower_bound_singleproc};
use semimatch_core::refine::refine;
use semimatch_core::solver::{Problem, SolverKind};
use semimatch_core::{HyperMatching, Objective, SemiMatching};
use semimatch_gen::hyper::{hyper_instance, HyperKind, HyperParams};
use semimatch_gen::rng::Xoshiro256;
use semimatch_gen::weights::{apply_weights, WeightScheme};
use semimatch_gen::{fewg_manyg, hilo_permuted};
use semimatch_graph::{Bipartite, Hypergraph};

/// The registry's makespan run of a bipartite heuristic kind.
fn run_bi(kind: SolverKind, g: &Bipartite) -> SemiMatching {
    kind.solve(Problem::SingleProc(g)).unwrap().into_semi().unwrap()
}

/// The registry's makespan run of a hypergraph heuristic kind.
fn run_hyper(kind: SolverKind, h: &Hypergraph) -> HyperMatching {
    kind.solve(Problem::MultiProc(h)).unwrap().into_hyper().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_singleproc_sandwich(seed in 0u64..10_000, hilo in proptest::bool::ANY) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let g = if hilo {
            hilo_permuted(80, 16, 4, 3, &mut rng)
        } else {
            fewg_manyg(80, 16, 4, 3, &mut rng)
        };
        let lb = lower_bound_singleproc(&g).unwrap();
        let exact = exact_unit(&g, SearchStrategy::Bisection).unwrap();
        let harvey = harvey_exact(&g).unwrap();
        prop_assert_eq!(exact.makespan, harvey.makespan(&g));
        prop_assert!(lb <= exact.makespan);
        for h in SolverKind::BI_HEURISTICS {
            let m = run_bi(h, &g).makespan(&g);
            prop_assert!(m >= exact.makespan, "{} beat the optimum", h.label());
            // The greedy family is never catastrophically off on these
            // benign random families (loose sanity bound).
            prop_assert!(m <= 4 * exact.makespan + 4, "{} at {m} vs {}", h.label(),
                exact.makespan);
        }
    }

    #[test]
    fn generated_multiproc_invariants(
        seed in 0u64..10_000,
        hilo in proptest::bool::ANY,
        weights in prop_oneof![
            Just(WeightScheme::Unit),
            Just(WeightScheme::Related),
            Just(WeightScheme::Random)
        ],
    ) {
        let kind = if hilo { HyperKind::HiLo } else { HyperKind::FewgManyg };
        let params = HyperParams { kind, n: 64, p: 16, g: 4, dv: 3, dh: 4 };
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut h = hyper_instance(params, &mut rng);
        apply_weights(&mut h, weights, &mut rng);
        let lb = lower_bound_multiproc(&h).unwrap();
        for heuristic in SolverKind::HYPER_HEURISTICS {
            let mut hm = run_hyper(heuristic, &h);
            hm.validate(&h).unwrap();
            let before = hm.makespan(&h);
            prop_assert!(before >= lb, "{} below LB", heuristic.label());
            refine(&h, &mut hm, 32, Objective::Makespan).unwrap();
            prop_assert!(hm.makespan(&h) <= before);
            prop_assert!(hm.makespan(&h) >= lb);
        }
    }

    #[test]
    fn vector_heuristics_agree_with_naive_on_generated(seed in 0u64..10_000) {
        use semimatch_core::hyper::evg::{
            expected_vector_greedy_hyp, expected_vector_greedy_hyp_naive,
        };
        use semimatch_core::hyper::vgh::{vector_greedy_hyp, vector_greedy_hyp_naive};
        let params =
            HyperParams { kind: HyperKind::FewgManyg, n: 48, p: 12, g: 4, dv: 3, dh: 3 };
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut h = hyper_instance(params, &mut rng);
        apply_weights(&mut h, WeightScheme::Related, &mut rng);
        prop_assert_eq!(vector_greedy_hyp(&h).unwrap(), vector_greedy_hyp_naive(&h).unwrap());
        prop_assert_eq!(
            expected_vector_greedy_hyp(&h).unwrap(),
            expected_vector_greedy_hyp_naive(&h).unwrap()
        );
    }

    #[test]
    fn exact_oracle_counts(seed in 0u64..10_000) {
        // Bisection's oracle count is logarithmic in the search interval.
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let g = fewg_manyg(96, 8, 4, 3, &mut rng);
        let inc = exact_unit(&g, SearchStrategy::Incremental).unwrap();
        let bis = exact_unit(&g, SearchStrategy::Bisection).unwrap();
        prop_assert_eq!(inc.makespan, bis.makespan);
        prop_assert!(bis.oracle_calls <= 2 * (96f64.log2().ceil() as u32) + 2);
        // Incremental pays one oracle per unit of gap above the bound.
        let lb = 96u32.div_ceil(8);
        prop_assert_eq!(inc.oracle_calls as u64, inc.makespan - lb as u64 + 1);
    }
}
