//! DFS-based augmenting path algorithm (MC21 style, with lookahead).
//!
//! This is the classical `O(|V1|·|E|)` algorithm of Duff's MC21, as surveyed
//! in Duff, Kaya, Uçar (TOMS 2011): for every exposed left vertex, search an
//! augmenting path depth-first. The *lookahead* optimization first scans for
//! a directly-free neighbor (with a persistent per-vertex cursor) before
//! descending, which is the single most effective practical speedup.

use semimatch_graph::Bipartite;

use crate::greedy::greedy_init;
use crate::matching::{Matching, NONE};
use crate::workspace::SearchWorkspace;

/// Maximum matching by DFS augmentation, starting from a greedy matching.
pub fn mc21(g: &Bipartite) -> Matching {
    let init = greedy_init(g);
    mc21_from(g, init)
}

/// DFS augmentation **without** the lookahead optimization (the plain PF
/// algorithm). Same output cardinality as [`mc21`]; kept to quantify the
/// lookahead's effect — the MatchMaker study's headline observation is
/// that lookahead is what makes DFS competitive in practice.
pub fn dfs_plain(g: &Bipartite) -> Matching {
    let ws = &mut SearchWorkspace::new();
    let mut m = greedy_init(g);
    let n1 = g.n_left() as usize;
    ws.reserve(g.n_left(), g.n_right());
    for v0 in 0..n1 {
        if m.mate_left[v0] != NONE {
            continue;
        }
        let stamp = ws.next_stamp();
        ws.stack.clear();
        ws.stack.push((v0 as u32, g.edge_range(v0 as u32).start));
        let mut found: Option<u32> = None;
        'dfs: while let Some(&mut (v, ref mut cursor)) = ws.stack.last_mut() {
            let range_end = g.edge_range(v).end;
            let mut advanced = false;
            while *cursor < range_end {
                let u = g.edge_right(*cursor);
                *cursor += 1;
                if ws.visited[u as usize] == stamp {
                    continue;
                }
                ws.visited[u as usize] = stamp;
                let w = m.mate_right[u as usize];
                if w == NONE {
                    found = Some(u);
                    break 'dfs;
                }
                ws.stack.push((w, g.edge_range(w).start));
                advanced = true;
                break;
            }
            if !advanced {
                ws.stack.pop();
            }
        }
        if let Some(mut u) = found {
            while let Some((v, _)) = ws.stack.pop() {
                let prev_u = m.mate_left[v as usize];
                m.mate_left[v as usize] = u;
                m.mate_right[u as usize] = v;
                if prev_u == NONE {
                    break;
                }
                u = prev_u;
            }
        }
    }
    m
}

/// Maximum matching by DFS augmentation from a caller-supplied matching.
pub fn mc21_from(g: &Bipartite, m: Matching) -> Matching {
    mc21_from_in(g, m, &mut SearchWorkspace::new())
}

/// [`mc21_from`] drawing all scratch (visited marks, lookahead cursors, the
/// DFS stack) from a reusable workspace. Allocation-free once `ws` has seen
/// the graph's dimensions.
pub fn mc21_from_in(g: &Bipartite, mut m: Matching, ws: &mut SearchWorkspace) -> Matching {
    let n1 = g.n_left() as usize;
    ws.reserve(g.n_left(), g.n_right());
    // Persistent lookahead cursor per left vertex: neighbors before the
    // cursor are known to be matched (they can only become unmatched through
    // augmentation, which never unmatches a right vertex). Re-initialized
    // per call — the invariant is relative to this graph and matching.
    for v in 0..g.n_left() {
        ws.lookahead[v as usize] = g.edge_range(v).start;
    }
    for v0 in 0..n1 {
        if m.mate_left[v0] != NONE {
            continue;
        }
        let stamp = ws.next_stamp();
        ws.stack.clear();
        ws.stack.push((v0 as u32, g.edge_range(v0 as u32).start));
        let mut found: Option<u32> = None; // free right vertex ending the path

        'dfs: while let Some(&mut (v, ref mut cursor)) = ws.stack.last_mut() {
            // Lookahead: scan for an immediately free neighbor.
            let range_end = g.edge_range(v).end;
            {
                let la = &mut ws.lookahead[v as usize];
                while *la < range_end {
                    let u = g.edge_right(*la);
                    if m.mate_right[u as usize] == NONE {
                        // Do not advance past a free vertex: it will be
                        // matched right now.
                        ws.visited[u as usize] = stamp;
                        found = Some(u);
                        break 'dfs;
                    }
                    *la += 1;
                }
            }
            // Regular DFS scan.
            let mut advanced = false;
            while *cursor < range_end {
                let u = g.edge_right(*cursor);
                *cursor += 1;
                if ws.visited[u as usize] == stamp {
                    continue;
                }
                ws.visited[u as usize] = stamp;
                let w = m.mate_right[u as usize];
                if w == NONE {
                    found = Some(u);
                    break 'dfs;
                }
                ws.stack.push((w, g.edge_range(w).start));
                advanced = true;
                break;
            }
            if !advanced {
                ws.stack.pop();
            }
        }

        if let Some(mut u) = found {
            // Augment along the stack: the top pairs with u, the one below
            // pairs with the right vertex freed by the top, and so on.
            while let Some((v, _)) = ws.stack.pop() {
                let prev_u = m.mate_left[v as usize];
                m.mate_left[v as usize] = u;
                m.mate_right[u as usize] = v;
                if prev_u == NONE {
                    break; // reached the exposed root v0
                }
                u = prev_u;
            }
        }
    }
    m
}

#[cfg(test)]
#[allow(clippy::type_complexity)] // edge-list test fixtures
mod tests {
    use super::*;

    #[test]
    fn finds_perfect_matching_where_greedy_fails() {
        // Greedy matches L0-R0; L1 only knows R0 and stays exposed without
        // augmentation.
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let m = mc21(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.cardinality(), 2);
    }

    #[test]
    fn long_augmenting_chain() {
        // L_i: {R_i, R_{i+1}} for i<k, L_k: {R_0} forces a full-length chain.
        let k = 50u32;
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push((i, i));
            edges.push((i, i + 1));
        }
        edges.push((k, 0));
        let g = Bipartite::from_edges(k + 1, k + 1, &edges).unwrap();
        let m = mc21(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.cardinality(), (k + 1) as usize);
    }

    #[test]
    fn deficient_graph_matches_all_it_can() {
        // Three left vertices all adjacent only to R0.
        let g = Bipartite::from_edges(3, 1, &[(0, 0), (1, 0), (2, 0)]).unwrap();
        let m = mc21(&g);
        m.validate(&g).unwrap();
        assert_eq!(m.cardinality(), 1);
    }

    #[test]
    fn respects_initial_matching() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let mut init = Matching::empty(2, 2);
        init.couple(0, 1);
        let m = mc21_from(&g, init);
        m.validate(&g).unwrap();
        assert_eq!(m.cardinality(), 2);
        // L0 keeps R1: augmentation never unmatches a matched right vertex.
        assert_eq!(m.mate_left[0], 1);
    }

    #[test]
    fn empty_and_isolated() {
        let g = Bipartite::from_edges(2, 2, &[]).unwrap();
        assert_eq!(mc21(&g).cardinality(), 0);
        let g = Bipartite::from_edges(3, 2, &[(1, 0)]).unwrap();
        assert_eq!(mc21(&g).cardinality(), 1);
    }

    #[test]
    fn plain_dfs_matches_lookahead_cardinality() {
        let cases: Vec<(u32, u32, Vec<(u32, u32)>)> = vec![
            (2, 2, vec![(0, 0), (0, 1), (1, 0)]),
            (5, 4, vec![(0, 0), (1, 0), (2, 0), (3, 1), (3, 2), (4, 3), (0, 3)]),
            (6, 3, vec![(0, 0), (1, 0), (2, 1), (3, 1), (4, 2), (5, 2)]),
            (3, 1, vec![(0, 0), (1, 0), (2, 0)]),
        ];
        for (n1, n2, edges) in cases {
            let g = Bipartite::from_edges(n1, n2, &edges).unwrap();
            let plain = dfs_plain(&g);
            plain.validate(&g).unwrap();
            assert_eq!(plain.cardinality(), mc21(&g).cardinality(), "{edges:?}");
        }
    }
}
