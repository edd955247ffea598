//! Algorithm 1: basic-greedy.

use semimatch_graph::Bipartite;

use crate::error::{CoreError, Result};
use crate::objective::Objective;
use crate::problem::SemiMatching;

/// Basic-greedy (Algorithm 1): visit tasks in input order, assign each to
/// the incident processor with the smallest current load. `O(|E|)`.
///
/// The paper shows (Fig. 1, Fig. 3) that this heuristic has no
/// approximation guarantee. Under a sum-type `objective` the criterion
/// becomes the marginal cost of the edge.
pub fn basic_greedy(g: &Bipartite, objective: Objective) -> Result<SemiMatching> {
    let order: Vec<u32> = (0..g.n_left()).collect();
    greedy_in_order(g, &order, objective)
}

/// Shared core of basic- and sorted-greedy: each task along a
/// caller-chosen order takes the edge with the smallest greedy key — the
/// current load under the makespan (the paper's min-load criterion), the
/// marginal cost under a sum objective. Ties go to the first
/// (smallest-id) processor.
pub(crate) fn greedy_in_order(
    g: &Bipartite,
    order: &[u32],
    objective: Objective,
) -> Result<SemiMatching> {
    let mut loads = vec![0u64; g.n_right() as usize];
    let mut edge_of = vec![0u32; g.n_left() as usize];
    for &v in order {
        // Seed with the first candidate, not a MAX sentinel: a saturated
        // marginal (u128::MAX) must still be selectable, or fully covered
        // tasks would spuriously error as uncovered.
        let mut best_edge: Option<u32> = None;
        let mut best_key = 0u128;
        for e in g.edge_range(v) {
            let u = g.edge_right(e);
            let key = objective.greedy_key(loads[u as usize], g.weight(e));
            if best_edge.is_none() || key < best_key {
                best_key = key;
                best_edge = Some(e);
            }
        }
        let e = best_edge.ok_or(CoreError::UncoveredTask(v))?;
        edge_of[v as usize] = e;
        loads[g.edge_right(e) as usize] += g.weight(e);
    }
    Ok(SemiMatching { edge_of })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_worst_case() {
        // T0 picks P0 (tie, smallest id); T1 is then forced onto P0 too:
        // makespan 2 while the optimum is 1 — the paper's Fig. 1 story.
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let sm = basic_greedy(&g, Objective::Makespan).unwrap();
        sm.validate(&g).unwrap();
        assert_eq!(sm.makespan(&g), 2);
    }

    #[test]
    fn balances_when_possible() {
        // 4 tasks all eligible everywhere on 2 processors → 2 + 2.
        let g = Bipartite::from_edges(
            4,
            2,
            &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)],
        )
        .unwrap();
        let sm = basic_greedy(&g, Objective::Makespan).unwrap();
        assert_eq!(sm.makespan(&g), 2);
        let loads = sm.loads(&g);
        assert_eq!(loads, vec![2, 2]);
    }

    #[test]
    fn uses_weights_in_loads() {
        let g = Bipartite::from_weighted_edges(
            2,
            2,
            &[(0, 0), (0, 1), (1, 0), (1, 1)],
            &[10, 10, 1, 1],
        )
        .unwrap();
        let sm = basic_greedy(&g, Objective::Makespan).unwrap();
        // T0 → P0 (w 10); T1 then sees loads (10, 0) → P1 (w 1).
        assert_eq!(sm.loads(&g), vec![10, 1]);
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert_eq!(basic_greedy(&g, Objective::Makespan).unwrap_err(), CoreError::UncoveredTask(1));
    }

    #[test]
    fn empty_instance() {
        let g = Bipartite::from_edges(0, 3, &[]).unwrap();
        let sm = basic_greedy(&g, Objective::Makespan).unwrap();
        assert_eq!(sm.makespan(&g), 0);
    }
}
