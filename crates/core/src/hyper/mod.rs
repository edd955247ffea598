//! Greedy heuristics for `MULTIPROC` (§IV-D).
//!
//! | heuristic | criterion on candidate hyperedge `h` of task `v` |
//! |---|---|
//! | [`sgh::sorted_greedy_hyp`] | min `max_{u∈h} l(u)` (Algorithm 4) |
//! | [`egh::expected_greedy_hyp`] | min `max_{u∈h} o(u)` (Algorithm 5) |
//! | [`vgh::vector_greedy_hyp`] | lexicographically smallest resulting load vector |
//! | [`evg::expected_vector_greedy_hyp`] | lexicographically smallest tentative expected-load vector |
//!
//! All visit tasks by non-decreasing number of configurations. The vector
//! heuristics come in a naive `O(d_v · |V2| log |V2|)`-per-task form
//! (direct transcription) and in the sorted-list/multiset-difference form
//! sketched at the end of §IV-D3; both are exposed and property-tested
//! equal.

pub mod egh;
pub mod evg;
pub mod lex;
pub mod obj_greedy;
pub mod sgh;
pub mod vgh;

use semimatch_graph::Hypergraph;

/// Tasks ordered by non-decreasing configuration count; stable counting
/// sort (ties keep input order), matching the bipartite helper.
pub(crate) fn tasks_by_degree(h: &Hypergraph) -> Vec<u32> {
    let n = h.n_tasks() as usize;
    let max_deg = (0..h.n_tasks()).map(|t| h.deg_task(t)).max().unwrap_or(0) as usize;
    let mut count = vec![0usize; max_deg + 2];
    for t in 0..h.n_tasks() {
        count[h.deg_task(t) as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        count[i + 1] += count[i];
    }
    let mut order = vec![0u32; n];
    for t in 0..h.n_tasks() {
        let d = h.deg_task(t) as usize;
        order[count[d]] = t;
        count[d] += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_stable_by_degree() {
        let h = Hypergraph::from_configs(
            2,
            &[
                vec![vec![0], vec![1]],
                vec![vec![0]],
                vec![vec![1], vec![0], vec![0, 1]],
                vec![vec![0]],
            ],
        )
        .unwrap();
        assert_eq!(tasks_by_degree(&h), vec![1, 3, 0, 2]);
    }

    #[test]
    fn labels_match_paper_columns() {
        let labels: Vec<_> =
            crate::solver::SolverKind::HYPER_HEURISTICS.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["SGH", "VGH", "EGH", "EVG"]);
    }
}
