//! The paper's exact algorithm for `SINGLEPROC-UNIT` (§IV-A).
//!
//! A schedule of makespan ≤ D exists iff the deadline graph `G_D` (D copies
//! of every processor) has a matching covering all tasks. The paper runs a
//! matching black box for D = 1, 2, … until feasible and notes that
//! bisection would improve the worst case; both strategies are provided.
//! The feasibility oracle is either the capacitated max-flow formulation
//! (no graph blowup) or, paper-literally, a maximum matching on the
//! explicitly replicated `G_D`.

use semimatch_graph::Bipartite;
use semimatch_matching::capacitated::max_assignment_in;
use semimatch_matching::replicate::{project, replicate_in};
use semimatch_matching::{maximum_matching_in, Algorithm, SearchWorkspace};

use crate::error::{CoreError, Result};
use crate::problem::SemiMatching;

/// Deadline search strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchStrategy {
    /// D = lb, lb+1, lb+2, … (the paper's loop, started at the trivial
    /// lower bound `⌈n/p⌉` instead of 1).
    Incremental,
    /// Exponential expansion from the lower bound, then binary search —
    /// the improvement noted in §IV-A.
    Bisection,
}

/// Outcome of the exact algorithm.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// The optimal makespan `M_opt`.
    pub makespan: u64,
    /// An optimal semi-matching.
    pub solution: SemiMatching,
    /// Number of feasibility oracles (matchings) performed — the cost
    /// driver compared in `benches/exact.rs`.
    pub oracle_calls: u32,
}

/// Exact optimum for a unit-weight `SINGLEPROC` instance via capacitated
/// matching.
///
/// Errors with [`CoreError::RequiresUnitWeights`] on weighted instances
/// and [`CoreError::UncoveredTask`] when some task has no processor.
pub fn exact_unit(g: &Bipartite, strategy: SearchStrategy) -> Result<ExactResult> {
    exact_unit_in(g, strategy, &mut SearchWorkspace::new())
}

/// [`exact_unit`] threading one workspace through every feasibility oracle
/// call: the deadline search's repeated capacitated matchings share a flow
/// arena instead of rebuilding it per probe.
pub fn exact_unit_in(
    g: &Bipartite,
    strategy: SearchStrategy,
    ws: &mut SearchWorkspace,
) -> Result<ExactResult> {
    check_instance(g)?;
    let mut calls = 0u32;
    let oracle = |d: u32, calls: &mut u32, ws: &mut SearchWorkspace| -> Option<Vec<u32>> {
        *calls += 1;
        let a = max_assignment_in(g, d, ws);
        a.is_complete().then_some(a.task_to_proc)
    };
    search(g, strategy, oracle, &mut calls, ws)
}

/// Exact optimum via literal `G_D` replication and a maximum-matching
/// engine — the construction exactly as written in the paper. Quadratic
/// memory in `D`; prefer [`exact_unit`] beyond toy sizes.
pub fn exact_unit_replicated(
    g: &Bipartite,
    engine: Algorithm,
    strategy: SearchStrategy,
) -> Result<ExactResult> {
    exact_unit_replicated_in(g, engine, strategy, &mut SearchWorkspace::new())
}

/// [`exact_unit_replicated`] reusing one workspace across the deadline
/// probes (matching-engine scratch and the `G_D` edge staging buffer).
pub fn exact_unit_replicated_in(
    g: &Bipartite,
    engine: Algorithm,
    strategy: SearchStrategy,
    ws: &mut SearchWorkspace,
) -> Result<ExactResult> {
    check_instance(g)?;
    let mut calls = 0u32;
    let oracle = |d: u32, calls: &mut u32, ws: &mut SearchWorkspace| -> Option<Vec<u32>> {
        *calls += 1;
        let gd = replicate_in(g, d, ws);
        let m = maximum_matching_in(&gd, engine, ws);
        if m.is_left_perfect() {
            let (assign, _) = project(g, d, &m);
            Some(assign)
        } else {
            None
        }
    };
    search(g, strategy, oracle, &mut calls, ws)
}

/// Shared `SINGLEPROC-UNIT` precondition check for every exact backend.
pub(crate) fn check_instance(g: &Bipartite) -> Result<()> {
    if !g.is_unit() {
        return Err(CoreError::RequiresUnitWeights);
    }
    for v in 0..g.n_left() {
        if g.deg_left(v) == 0 {
            return Err(CoreError::UncoveredTask(v));
        }
    }
    Ok(())
}

fn search(
    g: &Bipartite,
    strategy: SearchStrategy,
    mut oracle: impl FnMut(u32, &mut u32, &mut SearchWorkspace) -> Option<Vec<u32>>,
    calls: &mut u32,
    ws: &mut SearchWorkspace,
) -> Result<ExactResult> {
    let n = g.n_left();
    if n == 0 {
        return Ok(ExactResult {
            makespan: 0,
            solution: SemiMatching { edge_of: Vec::new() },
            oracle_calls: 0,
        });
    }
    let lb = n.div_ceil(g.n_right().max(1)).max(1);
    let found = match strategy {
        SearchStrategy::Incremental => {
            let mut d = lb;
            loop {
                if let Some(assign) = oracle(d, calls, ws) {
                    break (d, assign);
                }
                debug_assert!(d < n, "D = n is always feasible for covered instances");
                d += 1;
            }
        }
        SearchStrategy::Bisection => {
            // Exponential expansion: find the first power-scaled feasible D.
            let mut lo = lb; // makespans < lo are infeasible (lower bound)
            let mut hi = lb;
            let mut witness;
            loop {
                match oracle(hi, calls, ws) {
                    Some(a) => {
                        witness = (hi, a);
                        break;
                    }
                    None => {
                        lo = hi + 1;
                        hi = (hi * 2).min(n);
                    }
                }
            }
            // Invariant: lo ≤ opt ≤ witness.0, witness feasible.
            while lo < witness.0 {
                let mid = lo + (witness.0 - lo) / 2;
                match oracle(mid, calls, ws) {
                    Some(a) => witness = (mid, a),
                    None => lo = mid + 1,
                }
            }
            witness
        }
    };
    let (d, assign) = found;
    let solution = SemiMatching::from_procs(g, &assign)?;
    debug_assert_eq!(solution.makespan(g), d as u64, "oracle witness has makespan ≤ D");
    // The witness has loads ≤ d but its makespan can be < d (d was only an
    // upper bound); recompute to report the true optimum. For Incremental
    // the first feasible d IS optimal; for Bisection likewise — but the
    // witness schedule itself might not saturate d, so use the max load.
    let makespan = solution.makespan(g).min(d as u64);
    Ok(ExactResult { makespan, solution, oracle_calls: *calls })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_all_ways(g: &Bipartite) -> Vec<u64> {
        let mut out = vec![
            exact_unit(g, SearchStrategy::Incremental).unwrap().makespan,
            exact_unit(g, SearchStrategy::Bisection).unwrap().makespan,
        ];
        for engine in [Algorithm::HopcroftKarp, Algorithm::PushRelabel] {
            out.push(
                exact_unit_replicated(g, engine, SearchStrategy::Incremental).unwrap().makespan,
            );
        }
        out
    }

    #[test]
    fn fig1_optimum_is_one() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        for m in exact_all_ways(&g) {
            assert_eq!(m, 1);
        }
    }

    #[test]
    fn forced_pileup() {
        // 5 tasks on one processor: optimum 5.
        let g = Bipartite::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        for m in exact_all_ways(&g) {
            assert_eq!(m, 5);
        }
    }

    #[test]
    fn mixed_instance() {
        // 4 tasks: T0..T2 share P0/P1, T3 only P0. Optimum 2.
        let g =
            Bipartite::from_edges(4, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)])
                .unwrap();
        for m in exact_all_ways(&g) {
            assert_eq!(m, 2);
        }
    }

    #[test]
    fn strategies_agree_and_bisection_uses_fewer_oracles_when_opt_is_large() {
        // Optimum 8 on a single processor: incremental needs 1 call
        // starting from lb = 8 here, so build a case where lb is loose:
        // two processors, 8 tasks, but all tasks restricted to P0.
        let edges: Vec<(u32, u32)> = (0..8).map(|t| (t, 0)).collect();
        let g = Bipartite::from_edges(8, 2, &edges).unwrap();
        let inc = exact_unit(&g, SearchStrategy::Incremental).unwrap();
        let bis = exact_unit(&g, SearchStrategy::Bisection).unwrap();
        assert_eq!(inc.makespan, 8);
        assert_eq!(bis.makespan, 8);
        // lb = ⌈8/2⌉ = 4: incremental probes 4,5,6,7,8 (5 calls);
        // bisection probes 4, 8, then binary-searches 5..8 (≈ 2+2 calls).
        assert!(inc.oracle_calls == 5, "incremental made {} calls", inc.oracle_calls);
        assert!(bis.oracle_calls <= 4, "bisection made {} calls", bis.oracle_calls);
    }

    #[test]
    fn weighted_instance_rejected() {
        let g = Bipartite::from_weighted_edges(1, 1, &[(0, 0)], &[2]).unwrap();
        assert_eq!(
            exact_unit(&g, SearchStrategy::Incremental).unwrap_err(),
            CoreError::RequiresUnitWeights
        );
    }

    #[test]
    fn uncovered_task_rejected() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(
            exact_unit(&g, SearchStrategy::Bisection).unwrap_err(),
            CoreError::UncoveredTask(1)
        );
    }

    #[test]
    fn empty_instance() {
        let g = Bipartite::from_edges(0, 3, &[]).unwrap();
        let r = exact_unit(&g, SearchStrategy::Incremental).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.oracle_calls, 0);
    }

    #[test]
    fn solution_is_valid_and_optimal_against_greedy_bound() {
        let g = Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (0, 1), (2, 2)],
        )
        .unwrap();
        let r = exact_unit(&g, SearchStrategy::Bisection).unwrap();
        r.solution.validate(&g).unwrap();
        assert_eq!(r.solution.makespan(&g), r.makespan);
        let greedy =
            crate::greedy::sorted::sorted_greedy(&g, crate::objective::Objective::Makespan)
                .unwrap();
        assert!(r.makespan <= greedy.makespan(&g));
    }
}
