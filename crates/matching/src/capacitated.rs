//! Capacitated bipartite assignment: matchings in the deadline graph `G_D`.
//!
//! The paper's exact algorithm for `SINGLEPROC-UNIT` (§IV-A) asks for a
//! maximum matching in `G_D`, the graph with `D` copies of every processor.
//! A matching in `G_D` covering all tasks is exactly an assignment of each
//! task to an eligible processor in which no processor receives more than
//! `D` tasks. We solve this directly as a max-flow problem with processor
//! capacities (see [`crate::flow`]), avoiding the `D`-fold blowup;
//! [`crate::replicate`] keeps the explicit construction as a cross-check.

use semimatch_graph::Bipartite;

use crate::matching::NONE;
use crate::workspace::SearchWorkspace;

/// Result of a capacitated assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Processor assigned to each task, or [`NONE`] for unassigned tasks.
    pub task_to_proc: Vec<u32>,
    /// Number of tasks assigned to each processor.
    pub loads: Vec<u32>,
}

impl Assignment {
    /// Number of assigned tasks.
    pub fn cardinality(&self) -> usize {
        self.task_to_proc.iter().filter(|&&p| p != NONE).count()
    }

    /// True when every task is assigned.
    pub fn is_complete(&self) -> bool {
        self.task_to_proc.iter().all(|&p| p != NONE)
    }

    /// Largest processor load.
    pub fn max_load(&self) -> u32 {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// Checks structural consistency against the instance graph and a
    /// uniform capacity.
    pub fn validate(&self, g: &Bipartite, capacity: u32) -> Result<(), String> {
        if self.task_to_proc.len() != g.n_left() as usize
            || self.loads.len() != g.n_right() as usize
        {
            return Err("assignment length mismatch".into());
        }
        let mut loads = vec![0u32; g.n_right() as usize];
        for (v, &p) in self.task_to_proc.iter().enumerate() {
            if p == NONE {
                continue;
            }
            if g.neighbors(v as u32).binary_search(&p).is_err() {
                return Err(format!("task {v} assigned to non-eligible processor {p}"));
            }
            loads[p as usize] += 1;
        }
        if loads != self.loads {
            return Err("stored loads are stale".into());
        }
        if let Some(u) = loads.iter().position(|&l| l > capacity) {
            return Err(format!("processor {u} exceeds capacity: {} > {capacity}", loads[u]));
        }
        Ok(())
    }
}

/// Maximum-cardinality assignment with uniform processor capacity.
///
/// Returns the largest set of tasks that can be placed so that every
/// processor serves at most `capacity` tasks. Runs Dinic's algorithm on the
/// unit-task flow network, `O(|E|·√|V|)`-ish in practice. No per-processor
/// capacity array is materialized for the uniform case.
pub fn max_assignment(g: &Bipartite, capacity: u32) -> Assignment {
    max_assignment_in(g, capacity, &mut SearchWorkspace::new())
}

/// [`max_assignment`] building the flow network inside a reusable
/// workspace arena. Warm repeated solves (the deadline-search inner loop)
/// allocate only the returned [`Assignment`].
pub fn max_assignment_in(g: &Bipartite, capacity: u32, ws: &mut SearchWorkspace) -> Assignment {
    solve_flow(g, |_| capacity as u64, ws)
}

/// Maximum-cardinality assignment with per-processor capacities.
pub fn max_assignment_with_capacities(g: &Bipartite, capacities: &[u32]) -> Assignment {
    assert_eq!(capacities.len(), g.n_right() as usize, "one capacity per processor");
    solve_flow(g, |u| capacities[u as usize] as u64, &mut SearchWorkspace::new())
}

/// Shared flow formulation over any capacity provider (uniform capacities
/// need no backing slice). Nodes: source 0, tasks `1..=n1`, processors
/// `n1+1..=n1+n2`, sink `n1+n2+1`.
fn solve_flow(
    g: &Bipartite,
    capacity_of: impl Fn(u32) -> u64,
    ws: &mut SearchWorkspace,
) -> Assignment {
    let n1 = g.n_left();
    let n2 = g.n_right();
    let source = 0u32;
    let task_base = 1u32;
    let proc_base = 1 + n1;
    let sink = 1 + n1 + n2;
    let (net, edge_arcs) = ws.flow_arena(sink as usize + 1);

    for v in 0..n1 {
        net.add_arc(source, task_base + v, 1);
    }
    // Record the arc id of every task→processor arc for extraction.
    for v in 0..n1 {
        for &u in g.neighbors(v) {
            edge_arcs.push(net.add_arc(task_base + v, proc_base + u, 1));
        }
    }
    for u in 0..n2 {
        let c = capacity_of(u);
        if c > 0 {
            net.add_arc(proc_base + u, sink, c);
        }
    }
    net.max_flow(source, sink);

    let mut task_to_proc = vec![NONE; n1 as usize];
    let mut loads = vec![0u32; n2 as usize];
    let mut k = 0usize;
    for v in 0..n1 {
        for &u in g.neighbors(v) {
            if net.flow(edge_arcs[k]) > 0 {
                task_to_proc[v as usize] = u;
                loads[u as usize] += 1;
            }
            k += 1;
        }
    }
    Assignment { task_to_proc, loads }
}

/// One uniform-capacity feasibility probe over the active subinstance
/// `(tasks, procs)`, built fresh in `ws`'s flow arena. Returns the maximum
/// number of active tasks assignable with every active processor serving
/// at most `capacity` tasks.
///
/// * `tasks` / `procs` — original vertex ids of the active subinstance.
/// * `proc_pos[u]` — position of original processor `u` in `procs`, or
///   [`NONE`] when `u` is inactive (edges to inactive processors are
///   excluded from the network).
///
/// Call [`extract_probe_in`] afterwards to read the assignment out of the
/// network.
pub fn probe_in(
    g: &Bipartite,
    tasks: &[u32],
    procs: &[u32],
    proc_pos: &[u32],
    capacity: u32,
    ws: &mut SearchWorkspace,
) -> u64 {
    let nt = tasks.len() as u32;
    let np = procs.len() as u32;
    let source = 0u32;
    let task_base = 1u32;
    let proc_base = 1 + nt;
    let sink = 1 + nt + np;
    let (net, edge_arcs) = ws.flow_arena(sink as usize + 1);
    for i in 0..nt {
        net.add_arc(source, task_base + i, 1);
    }
    for (i, &v) in tasks.iter().enumerate() {
        for &u in g.neighbors(v) {
            if proc_pos[u as usize] == NONE {
                continue;
            }
            edge_arcs.push(net.add_arc(task_base + i as u32, proc_base + proc_pos[u as usize], 1));
        }
    }
    for j in 0..np {
        net.add_arc(proc_base + j, sink, capacity as u64);
    }
    net.max_flow(source, sink)
}

/// Reads the assignment of the last [`probe_in`] out of the flow arena,
/// writing original processor ids (or [`NONE`]) into
/// `out[original task id]` for every active task. Inactive tasks are left
/// untouched.
pub fn extract_probe_in(
    g: &Bipartite,
    tasks: &[u32],
    proc_pos: &[u32],
    out: &mut [u32],
    ws: &SearchWorkspace,
) {
    let mut k = 0usize;
    for &v in tasks {
        out[v as usize] = NONE;
        for &u in g.neighbors(v) {
            if proc_pos[u as usize] == NONE {
                continue;
            }
            if ws.flow.flow(ws.edge_arcs[k]) > 0 {
                out[v as usize] = u;
            }
            k += 1;
        }
    }
}

/// True when all tasks fit under the uniform `capacity` (i.e. `G_D` with
/// `D = capacity` admits a matching covering `V1`).
pub fn feasible(g: &Bipartite, capacity: u32) -> bool {
    max_assignment(g, capacity).is_complete()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_one_is_plain_matching() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        let a = max_assignment(&g, 1);
        a.validate(&g, 1).unwrap();
        assert!(a.is_complete());
        assert_eq!(a.max_load(), 1);
    }

    #[test]
    fn capacity_bounds_processor_load() {
        // 5 tasks all eligible on P0 only.
        let g = Bipartite::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        let a2 = max_assignment(&g, 2);
        a2.validate(&g, 2).unwrap();
        assert_eq!(a2.cardinality(), 2);
        let a5 = max_assignment(&g, 5);
        assert!(a5.is_complete());
        assert_eq!(a5.max_load(), 5);
    }

    #[test]
    fn feasibility_threshold() {
        // Fig. 3-like: optimal makespan is 1, so capacity 1 is feasible.
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).unwrap();
        assert!(feasible(&g, 1));
        // Two tasks, one processor: needs capacity 2.
        let g = Bipartite::from_edges(2, 1, &[(0, 0), (1, 0)]).unwrap();
        assert!(!feasible(&g, 1));
        assert!(feasible(&g, 2));
    }

    #[test]
    fn per_processor_capacities() {
        // Tasks 0,1,2 all eligible on both processors; cap(P0)=1, cap(P1)=2.
        let g =
            Bipartite::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]).unwrap();
        let a = max_assignment_with_capacities(&g, &[1, 2]);
        assert!(a.is_complete());
        assert!(a.loads[0] <= 1);
        assert!(a.loads[1] <= 2);
    }

    #[test]
    fn zero_capacity_processor_unused() {
        let g = Bipartite::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]).unwrap();
        let a = max_assignment_with_capacities(&g, &[0, 5]);
        assert_eq!(a.loads[0], 0);
        assert_eq!(a.cardinality(), 1); // only task 1 can go (to P1)
    }

    #[test]
    fn isolated_task_stays_unassigned() {
        let g = Bipartite::from_edges(3, 2, &[(0, 0), (2, 1)]).unwrap();
        let a = max_assignment(&g, 3);
        assert_eq!(a.task_to_proc[1], NONE);
        assert_eq!(a.cardinality(), 2);
    }

    #[test]
    fn warm_probes_agree_with_cold_solves() {
        // 6 tasks over 3 procs, mixed degrees; sweep capacities up and down
        // through one resident workspace and cross-check every answer cold.
        let g = Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 0), (3, 2), (4, 1), (5, 2), (5, 0)],
        )
        .unwrap();
        let tasks: Vec<u32> = (0..6).collect();
        let procs: Vec<u32> = (0..3).collect();
        let proc_pos: Vec<u32> = (0..3).collect();
        let mut ws = SearchWorkspace::new();
        let mut cold_ws = SearchWorkspace::new();
        for cap in [1u32, 3, 2, 1, 4, 2] {
            let warm = probe_in(&g, &tasks, &procs, &proc_pos, cap, &mut ws);
            let cold = max_assignment_in(&g, cap, &mut cold_ws).cardinality() as u64;
            assert_eq!(warm, cold, "capacity {cap}");
            // The extracted assignment is consistent with the probe value.
            let mut out = vec![NONE; 6];
            extract_probe_in(&g, &tasks, &proc_pos, &mut out, &ws);
            assert_eq!(out.iter().filter(|&&p| p != NONE).count() as u64, warm);
            let mut loads = [0u32; 3];
            for (v, &p) in out.iter().enumerate() {
                if p != NONE {
                    assert!(g.neighbors(v as u32).contains(&p));
                    loads[p as usize] += 1;
                }
            }
            assert!(loads.iter().all(|&l| l <= cap));
        }
    }

    #[test]
    fn probe_covers_only_the_active_view() {
        let g = Bipartite::from_edges(4, 2, &[(0, 0), (1, 0), (2, 1), (3, 1), (3, 0)]).unwrap();
        let mut ws = SearchWorkspace::new();
        let all: Vec<u32> = (0..4).collect();
        assert_eq!(probe_in(&g, &all, &[0, 1], &[0, 1], 2, &mut ws), 4);
        // The subinstance {tasks 2,3} × {proc 1}: edges to the inactive
        // proc 0 are left out of the network.
        let sub = probe_in(&g, &[2, 3], &[1], &[NONE, 0], 1, &mut ws);
        assert_eq!(sub, 1, "proc 1 alone serves one of the two tasks at cap 1");
        let mut out = vec![NONE; 4];
        extract_probe_in(&g, &[2, 3], &[NONE, 0], &mut out, &ws);
        assert_eq!(out[..2], [NONE, NONE], "inactive tasks untouched");
        assert_eq!(out[2..].iter().filter(|&&p| p == 1).count(), 1);
    }

    #[test]
    fn validate_catches_stale_loads() {
        let g = Bipartite::from_edges(1, 1, &[(0, 0)]).unwrap();
        let mut a = max_assignment(&g, 1);
        a.loads[0] = 9;
        assert!(a.validate(&g, 1).is_err());
    }
}
