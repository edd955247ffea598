//! Cost-reducing-path exact algorithm for `SINGLEPROC-UNIT`.
//!
//! Harvey, Ladner, Lovász, Tamir (*Semi-matchings for bipartite graphs and
//! load balancing*, J. Algorithms 2006) show that a semi-matching admits no
//! *cost-reducing path* iff it minimizes `Σ_u l(u)·(l(u)+1)/2`, and that
//! such a semi-matching simultaneously minimizes the **maximum load**. A
//! cost-reducing path is an alternating path from a processor `x` to a
//! processor `y` with `l(y) ≤ l(x) − 2`; flipping it moves one unit of
//! load from `x` to `y`.
//!
//! This gives the repository a second exact algorithm with a completely
//! different mechanism than the matching-based one of §IV-A — the two are
//! cross-checked in tests and property tests.

use semimatch_graph::Bipartite;

use crate::error::{CoreError, Result};
use crate::greedy::sorted::sorted_greedy;
use crate::objective::Objective;
use crate::problem::SemiMatching;

/// Exact optimum via cost-reducing paths. Starts from sorted-greedy.
pub fn harvey_exact(g: &Bipartite) -> Result<SemiMatching> {
    if !g.is_unit() {
        return Err(CoreError::RequiresUnitWeights);
    }
    let start = sorted_greedy(g, Objective::Makespan)?;
    Ok(optimize(g, start))
}

/// Runs the cost-reducing descent from a caller-supplied semi-matching.
pub fn optimize(g: &Bipartite, sm: SemiMatching) -> SemiMatching {
    let n2 = g.n_right() as usize;
    // alloc[t] = processor of task t; assigned[u] = tasks on processor u.
    let mut alloc: Vec<u32> =
        (0..g.n_left()).map(|t| g.edge_right(sm.edge_of[t as usize])).collect();
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); n2];
    for (t, &u) in alloc.iter().enumerate() {
        assigned[u as usize].push(t as u32);
    }
    // pred[u] = (task, previous processor) discovering u in the BFS.
    let mut pred: Vec<(u32, u32)> = vec![(u32::MAX, u32::MAX); n2];
    let mut visited: Vec<u32> = vec![u32::MAX; n2];
    let mut stamp = 0u32;
    let mut queue: Vec<u32> = Vec::new();

    loop {
        // Search processors in decreasing load order; any cost-reducing
        // path strictly decreases Σ l(l+1)/2, which bounds the loop.
        let mut order: Vec<u32> = (0..n2 as u32).collect();
        order.sort_unstable_by_key(|&u| std::cmp::Reverse(assigned[u as usize].len()));
        let mut improved = false;
        for &x in &order {
            let lx = assigned[x as usize].len();
            if lx < 2 {
                break; // loads are sorted descending; nothing can improve
            }
            stamp += 1;
            queue.clear();
            queue.push(x);
            visited[x as usize] = stamp;
            let mut target: Option<u32> = None;
            let mut head = 0;
            'bfs: while head < queue.len() {
                let u = queue[head];
                head += 1;
                for ti in 0..assigned[u as usize].len() {
                    let t = assigned[u as usize][ti];
                    for &w in g.neighbors(t) {
                        if visited[w as usize] == stamp {
                            continue;
                        }
                        visited[w as usize] = stamp;
                        pred[w as usize] = (t, u);
                        if assigned[w as usize].len() + 2 <= lx {
                            target = Some(w);
                            break 'bfs;
                        }
                        queue.push(w);
                    }
                }
            }
            if let Some(mut w) = target {
                // Flip the path: every task on it moves one hop forward.
                while w != x {
                    let (t, u) = pred[w as usize];
                    let pos = assigned[u as usize]
                        .iter()
                        .position(|&q| q == t)
                        .expect("task is on its processor");
                    assigned[u as usize].swap_remove(pos);
                    assigned[w as usize].push(t);
                    alloc[t as usize] = w;
                    w = u;
                }
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    SemiMatching::from_procs(g, &alloc).expect("flips preserve eligibility")
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // edge-list test fixtures
mod tests {
    use super::*;
    use crate::exact::unit::{exact_unit, SearchStrategy};

    #[test]
    fn agrees_with_matching_based_exact() {
        let cases: Vec<(u32, u32, Vec<(u32, u32)>)> = vec![
            (2, 2, vec![(0, 0), (0, 1), (1, 0)]),
            (5, 1, vec![(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]),
            (4, 2, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]),
            (6, 3, vec![(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2), (0, 1), (2, 2)]),
            (7, 4, vec![(0, 0), (1, 0), (2, 0), (3, 1), (3, 2), (4, 2), (5, 3), (6, 3), (6, 0)]),
        ];
        for (n1, n2, edges) in cases {
            let g = Bipartite::from_edges(n1, n2, &edges).unwrap();
            let a = harvey_exact(&g).unwrap();
            a.validate(&g).unwrap();
            let b = exact_unit(&g, SearchStrategy::Bisection).unwrap();
            assert_eq!(a.makespan(&g), b.makespan, "edges {edges:?}");
        }
    }

    #[test]
    fn repairs_bad_greedy_start_on_fig3_shape() {
        // The k=3 adversarial chain: greedy reaches 3, optimum is 1 and the
        // cost-reducing descent must find it.
        let mut edges = Vec::new();
        let k = 3u32;
        let mut t = 0;
        for level in 0..k {
            let span = 1u32 << (k - 1 - level);
            for i in 1..=span {
                edges.push((t, i - 1));
                edges.push((t, i + span - 1));
                t += 1;
            }
        }
        let g = Bipartite::from_edges(t, 1 << k, &edges).unwrap();
        let sm = harvey_exact(&g).unwrap();
        assert_eq!(sm.makespan(&g), 1);
    }

    #[test]
    fn weighted_rejected() {
        let g = Bipartite::from_weighted_edges(1, 1, &[(0, 0)], &[3]).unwrap();
        assert_eq!(harvey_exact(&g).unwrap_err(), CoreError::RequiresUnitWeights);
    }

    #[test]
    fn optimize_from_worst_start() {
        // All tasks piled on P0 by hand; descent must spread them.
        let g = Bipartite::from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 0), (3, 1)],
        )
        .unwrap();
        let all_p0 = SemiMatching::from_procs(&g, &[0, 0, 0, 0]).unwrap();
        assert_eq!(all_p0.makespan(&g), 4);
        let opt = optimize(&g, all_p0);
        assert_eq!(opt.makespan(&g), 1);
        opt.validate(&g).unwrap();
    }

    #[test]
    fn already_optimal_is_stable() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (1, 1)]).unwrap();
        let sm = SemiMatching::from_procs(&g, &[0, 1]).unwrap();
        let opt = optimize(&g, sm.clone());
        assert_eq!(opt, sm);
    }
}
