//! One-pass streaming semi-matching (Konrad & Rosén, "Approximating
//! Semi-Matchings in Streaming and in Two-Party Communication").
//!
//! The streaming model sees the edge (hyperedge) list once, in stream
//! order, with memory proportional to the vertex set only: per-processor
//! loads and one chosen edge per task. No adjacency is ever materialized
//! and nothing is re-read, so the pass works off a socket as well as off a
//! parsed instance. On a static [`Bipartite`]/[`Hypergraph`] the stream
//! order is edge-id order, which makes the pass deterministic and lets the
//! solver registry expose it as `SolverKind::StreamingGreedy` next to the
//! offline heuristics, and the multi-pass refinement as
//! `SolverKind::StreamingTwoPass`.
//!
//! The rule per streamed edge `(t, p, w)`: an unassigned task takes the
//! edge; an assigned task switches iff the switch strictly lowers the
//! resulting load of its own processor(s) — the MinResulting criterion of
//! [`crate::online`] restricted to the one edge in hand — or, under a
//! sum-type [`Objective`], its total marginal cost. Both sides are taken
//! with the task's own contribution removed. Each step is `O(|h ∩ V2|)`;
//! the whole pass is `O(Σ|h ∩ V2|)` time and `O(n + p)` memory.

use semimatch_graph::{Bipartite, Hypergraph};

use crate::error::{CoreError, Result};
use crate::objective::Objective;
use crate::problem::{HyperMatching, SemiMatching};

/// One-pass streaming greedy over a bipartite (`SINGLEPROC`) edge stream.
///
/// Processes edges in edge-id order with `O(n + p)` state, switching by
/// the rule of the module doc under `objective`. Ties keep the earlier
/// (lower-id) edge, so the result is deterministic.
pub fn streaming_greedy_bipartite(g: &Bipartite, objective: Objective) -> Result<SemiMatching> {
    let mut loads = vec![0u64; g.n_right() as usize];
    let mut edge_of = vec![u32::MAX; g.n_left() as usize];
    bipartite_pass(g, objective, &mut edge_of, &mut loads, None);
    if let Some(t) = edge_of.iter().position(|&e| e == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    Ok(SemiMatching { edge_of })
}

/// One-pass streaming greedy over a hypergraph (`MULTIPROC`) hyperedge
/// stream, processed in hyperedge-id order with `O(n + p)` state, under
/// the same strict-improvement switch rule as
/// [`streaming_greedy_bipartite`].
pub fn streaming_greedy_hyper(h: &Hypergraph, objective: Objective) -> Result<HyperMatching> {
    let mut loads = vec![0u64; h.n_procs() as usize];
    let mut hedge_of = vec![u32::MAX; h.n_tasks() as usize];
    hyper_pass(h, objective, &mut hedge_of, &mut loads, None);
    if let Some(t) = hedge_of.iter().position(|&e| e == u32::MAX) {
        return Err(CoreError::UncoveredTask(t as u32));
    }
    Ok(HyperMatching { hedge_of })
}

/// Two-pass streaming greedy over a bipartite edge stream (Konrad &
/// Rosén's multi-pass refinement): pass 1 is
/// [`streaming_greedy_bipartite`]; pass 2 re-streams the edges and
/// re-places only tasks currently sitting on an *overloaded* processor
/// (load above the balanced ceiling `⌈total/p⌉` after pass 1), under the
/// same strict-improvement switch rule. Every accepted switch strictly
/// lowers the affected pair's resulting load (bottleneck) or the total
/// cost (sum objectives), so the refined score is **never worse** than
/// one pass — the agreement property the tests pin.
pub fn streaming_greedy_bipartite_two_pass(
    g: &Bipartite,
    objective: Objective,
) -> Result<SemiMatching> {
    let mut sm = streaming_greedy_bipartite(g, objective)?;
    let mut loads = sm.loads(g);
    let overloaded = overloaded_procs(&loads);
    bipartite_pass(g, objective, &mut sm.edge_of, &mut loads, Some(&overloaded));
    Ok(sm)
}

/// Two-pass streaming greedy over a hyperedge stream: pass 1 is
/// [`streaming_greedy_hyper`]; pass 2 re-streams the hyperedges and
/// re-places only tasks whose current configuration touches an overloaded
/// processor, under the same strict-improvement rule (so the score never
/// worsens — see [`streaming_greedy_bipartite_two_pass`]).
pub fn streaming_greedy_hyper_two_pass(
    h: &Hypergraph,
    objective: Objective,
) -> Result<HyperMatching> {
    let mut hm = streaming_greedy_hyper(h, objective)?;
    let mut loads = hm.loads(h);
    let overloaded = overloaded_procs(&loads);
    hyper_pass(h, objective, &mut hm.hedge_of, &mut loads, Some(&overloaded));
    Ok(hm)
}

/// The switch key of holding a configuration of weight `w` on processors
/// whose loads (the task's own contribution removed) are `loads`: the
/// resulting bottleneck load under the makespan, the total marginal cost
/// under a sum-type objective. A task switches iff the streamed edge's key
/// is strictly smaller than the held one's.
fn switch_key(objective: Objective, loads: impl Iterator<Item = u64>, w: u64) -> u128 {
    if objective.is_bottleneck() {
        u128::from(loads.max().unwrap_or(0) + w)
    } else {
        loads.fold(0u128, |acc, l| acc.saturating_add(objective.marginal(l, w)))
    }
}

/// One pass over the edge stream. Unassigned tasks (`u32::MAX`) take the
/// streamed edge; assigned ones switch by [`switch_key`]. With
/// `overloaded`, only tasks on a flagged processor are reconsidered.
fn bipartite_pass(
    g: &Bipartite,
    objective: Objective,
    edge_of: &mut [u32],
    loads: &mut [u64],
    overloaded: Option<&[bool]>,
) {
    for e in 0..g.num_edges() as u32 {
        let t = g.edge_left(e) as usize;
        let p = g.edge_right(e) as usize;
        let w = g.weight(e);
        let cur = edge_of[t];
        if cur == u32::MAX {
            edge_of[t] = e;
            loads[p] += w;
            continue;
        }
        let (cp, cw) = (g.edge_right(cur) as usize, g.weight(cur));
        if overloaded.is_some_and(|o| !o[cp]) {
            continue;
        }
        // Compare with the task's contribution removed.
        let excl = |u: usize| loads[u] - if u == cp { cw } else { 0 };
        let key_new = switch_key(objective, std::iter::once(excl(p)), w);
        if key_new < switch_key(objective, std::iter::once(excl(cp)), cw) {
            loads[cp] -= cw;
            loads[p] += w;
            edge_of[t] = e;
        }
    }
}

/// [`bipartite_pass`] over the hyperedge stream; with `overloaded`, only
/// tasks whose configuration touches a flagged processor are reconsidered.
fn hyper_pass(
    h: &Hypergraph,
    objective: Objective,
    hedge_of: &mut [u32],
    loads: &mut [u64],
    overloaded: Option<&[bool]>,
) {
    for hid in 0..h.n_hedges() {
        let t = h.task_of(hid) as usize;
        let w = h.weight(hid);
        let cur = hedge_of[t];
        if cur == u32::MAX {
            hedge_of[t] = hid;
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            continue;
        }
        let cw = h.weight(cur);
        let cur_pins = h.procs_of(cur);
        if overloaded.is_some_and(|o| !cur_pins.iter().any(|&u| o[u as usize])) {
            continue;
        }
        // Loads with the task's current contribution removed.
        let excl =
            |u: &u32| loads[*u as usize] - if cur_pins.binary_search(u).is_ok() { cw } else { 0 };
        let key_new = switch_key(objective, h.procs_of(hid).iter().map(excl), w);
        if key_new < switch_key(objective, cur_pins.iter().map(excl), cw) {
            for &u in cur_pins {
                loads[u as usize] -= cw;
            }
            for &u in h.procs_of(hid) {
                loads[u as usize] += w;
            }
            hedge_of[t] = hid;
        }
    }
}

/// Processors whose load sits strictly above the balanced ceiling
/// `⌈total/p⌉` — the pass-2 targets.
fn overloaded_procs(loads: &[u64]) -> Vec<bool> {
    let total: u128 = loads.iter().map(|&l| l as u128).sum();
    let p = loads.len().max(1) as u128;
    let thresh = total.div_ceil(p);
    loads.iter().map(|&l| (l as u128) > thresh).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bipartite_pass_is_valid_and_single_state() {
        let g = Bipartite::from_weighted_edges(
            3,
            2,
            &[(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)],
            &[4, 1, 2, 3, 3],
        )
        .unwrap();
        let sm = streaming_greedy_bipartite(&g, Objective::Makespan).unwrap();
        sm.validate(&g).unwrap();
        // T0 takes e0 (P0 w4), then e1 streams in: resulting 1 < 4 → switch
        // to P1. T2 takes e3 (P0 w3), then e4: resulting 3+1=4 vs 2+3=5 → P1.
        assert_eq!(sm.proc_of(&g, 0), 1);
        assert_eq!(sm.proc_of(&g, 2), 1);
        assert_eq!(sm.makespan(&g), 4);
    }

    #[test]
    fn hyper_pass_is_valid_and_switches() {
        let h = Hypergraph::from_hyperedges(
            2,
            3,
            vec![(0, vec![0, 1], 5), (0, vec![2], 2), (1, vec![2], 3)],
        )
        .unwrap();
        let hm = streaming_greedy_hyper(&h, Objective::Makespan).unwrap();
        hm.validate(&h).unwrap();
        // T0 takes {P0,P1} w5, then {P2} w2 streams: 2 < 5 → switch.
        assert_eq!(hm.hedge_of[0], 1);
        assert_eq!(hm.makespan(&h), 5);
    }

    #[test]
    fn uncovered_task_errors() {
        let g = Bipartite::from_edges(2, 1, &[(0, 0)]).unwrap();
        assert!(matches!(
            streaming_greedy_bipartite(&g, Objective::Makespan),
            Err(CoreError::UncoveredTask(1))
        ));
        let h = Hypergraph::from_hyperedges(2, 1, vec![(0, vec![0], 1)]).unwrap();
        assert!(matches!(
            streaming_greedy_hyper(&h, Objective::Makespan),
            Err(CoreError::UncoveredTask(1))
        ));
    }

    #[test]
    fn second_pass_rescues_tasks_stranded_on_overloaded_procs() {
        // Stream order traps one pass: T0's P1 alternative streams while
        // P0 and P1 still tie (ties keep the held edge), then T1 and T2
        // pile onto P0 with no alternatives. Pass 1 ends at makespan 3;
        // pass 2 revisits the overloaded P0 and moves T0 to the idle P1
        // edge it skipped.
        let g = Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (2, 0)]).unwrap();
        let one = streaming_greedy_bipartite(&g, Objective::Makespan).unwrap();
        let two = streaming_greedy_bipartite_two_pass(&g, Objective::Makespan).unwrap();
        two.validate(&g).unwrap();
        assert_eq!(one.makespan(&g), 3);
        assert_eq!(two.makespan(&g), 2, "refinement strictly helps here");

        let h = Hypergraph::from_hyperedges(
            2,
            2,
            vec![(0, vec![0], 2), (0, vec![1], 2), (1, vec![0], 2)],
        )
        .unwrap();
        let one = streaming_greedy_hyper(&h, Objective::Makespan).unwrap();
        let two = streaming_greedy_hyper_two_pass(&h, Objective::Makespan).unwrap();
        two.validate(&h).unwrap();
        assert_eq!(one.makespan(&h), 4);
        assert_eq!(two.makespan(&h), 2);
    }

    #[test]
    fn ties_keep_the_earlier_edge() {
        // Both edges of T0 resolve to identical resulting loads: the pass
        // must keep the first-streamed edge.
        let g = Bipartite::from_edges(1, 2, &[(0, 0), (0, 1)]).unwrap();
        let sm = streaming_greedy_bipartite(&g, Objective::Makespan).unwrap();
        assert_eq!(sm.edge_of[0], 0);
        let h = Hypergraph::from_hyperedges(1, 2, vec![(0, vec![0], 2), (0, vec![1], 2)]).unwrap();
        let hm = streaming_greedy_hyper(&h, Objective::Makespan).unwrap();
        assert_eq!(hm.hedge_of[0], 0);
    }
}
