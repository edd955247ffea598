//! Greedy heuristics for `SINGLEPROC` (§IV-B, Algorithms 1–3).
//!
//! All four heuristics run in `O(|E|)` (plus a counting sort) and differ in
//! the visiting order of tasks and in the criterion that picks a processor.
//! Each takes an [`Objective`](crate::objective::Objective): the criteria
//! below are the makespan ones; under a sum-type objective the load
//! criterion becomes the marginal cost of the edge (on the expected loads
//! for expected-greedy), with the same visit order and tie-breaks.
//!
//! | heuristic | task order | criterion (makespan) | tie-break |
//! |---|---|---|---|
//! | [`basic::basic_greedy`] | input order | min load | first (smallest id) |
//! | [`sorted::sorted_greedy`] | non-decreasing degree | min load | first |
//! | [`double_sorted::double_sorted`] | non-decreasing degree | min load | min processor in-degree (first on full tie) |
//! | [`expected::expected_greedy`] | non-decreasing degree | min *expected* load `o(u)` | first |
//!
//! The paper presents them for unit weights; the implementations accept
//! weighted instances by accumulating `w(e)` (they specialize to the
//! paper's pseudo-code when all weights are 1). [`lpt::lpt_greedy`] adds
//! the classical Graham LPT baseline for the weighted setting.

pub mod basic;
pub mod double_sorted;
pub mod expected;
pub mod lpt;
pub mod sorted;

use semimatch_graph::Bipartite;

/// Tasks ordered by non-decreasing out-degree; stable (ties keep input
/// order), via counting sort.
pub(crate) fn tasks_by_degree(g: &Bipartite) -> Vec<u32> {
    let n = g.n_left() as usize;
    let max_deg = (0..g.n_left()).map(|v| g.deg_left(v)).max().unwrap_or(0) as usize;
    let mut count = vec![0usize; max_deg + 2];
    for v in 0..g.n_left() {
        count[g.deg_left(v) as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        count[i + 1] += count[i];
    }
    let mut order = vec![0u32; n];
    for v in 0..g.n_left() {
        let d = g.deg_left(v) as usize;
        order[count[d]] = v;
        count[d] += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_order_is_stable() {
        let g =
            Bipartite::from_edges(4, 3, &[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1), (2, 2), (3, 1)])
                .unwrap();
        // degrees: 2, 1, 3, 1 → order: 1, 3 (deg 1, input order), 0, 2.
        assert_eq!(tasks_by_degree(&g), vec![1, 3, 0, 2]);
    }

    #[test]
    fn degree_order_handles_isolated() {
        let g = Bipartite::from_edges(3, 1, &[(1, 0)]).unwrap();
        assert_eq!(tasks_by_degree(&g), vec![0, 2, 1]);
    }

    #[test]
    fn empty() {
        let g = Bipartite::from_edges(0, 0, &[]).unwrap();
        assert!(tasks_by_degree(&g).is_empty());
    }
}
