//! The unified solver registry: every semi-matching algorithm in the
//! workspace behind one entry point.
//!
//! Every consumer (CLI, bench harness, scheduling policies, agreement
//! tests) reaches the algorithms through a single [`SolverKind`] registry:
//! name-based lookup ([`SolverKind::from_str`]), enumeration
//! ([`SolverKind::ALL`] and the class subsets) and one
//! [`solve(problem, kind)`](solve) dispatcher. The dispatch itself is one
//! `match` in [`SolverKind::solve_in`] that hands the objective to every
//! arm.
//!
//! For repeated traffic the registry exposes a warm path: the [`Solver`]
//! trait binds a kind to a persistent [`SearchWorkspace`]
//! ([`SolverKind::solver`] → [`KindSolver`]), and [`solve_many`] batches a
//! whole instance set through workspace-reusing solvers. The stateless
//! [`solve(problem, kind)`](solve) facade remains for one-shot callers.
//!
//! The **cost model is a first-class axis**: every entry point takes (or
//! defaults) an [`Objective`] — [`solve_with`], [`SolverKind::solve_with`],
//! [`SolverKind::solve_in`], [`Solver::solve_with`] and [`solve_many`].
//! Under [`Objective::Makespan`] every kind runs its historical paper
//! algorithm; under a sum-type objective (flow time, `L_p`, total load)
//! the greedy/refine/ILS families select by marginal objective cost, the
//! exhaustive search branch-and-bounds on the exact objective score, and
//! the exact `SINGLEPROC-UNIT` kinds append a cost-reducing-path descent
//! so their answer is optimal for **every** symmetric convex objective
//! simultaneously (Harvey–Ladner–Lovász–Tamir).
//!
//! The literature treats the engines as interchangeable substrates —
//! Fakcharoenphol–Laekhanukit–Nanongkai's faster semi-matching algorithms
//! (which optimize exactly the flow-time objective above) and
//! Katrenič–Semanišin's Hopcroft–Karp generalization slot into the same
//! problem interface — so the registry (and the `Solver` seam in
//! particular) is also where future backends land.
//!
//! ```
//! use semimatch_graph::Hypergraph;
//! use semimatch_core::solver::{solve, Problem, SolverKind};
//!
//! let h = Hypergraph::from_configs(
//!     3,
//!     &[vec![vec![0], vec![1, 2]], vec![vec![0]], vec![vec![2]], vec![vec![2]]],
//! )
//! .unwrap();
//! let kind: SolverKind = "evg".parse().unwrap();
//! let solution = solve(Problem::MultiProc(&h), kind).unwrap();
//! assert!(solution.makespan(&Problem::MultiProc(&h)).unwrap() >= 2);
//! ```

use std::str::FromStr;

use semimatch_graph::{Bipartite, Hypergraph};
use semimatch_matching::SearchWorkspace;

use crate::error::{CoreError, Result};
use crate::exact::{
    brute_force_multiproc_objective, brute_force_singleproc_objective, cost_scaling_in,
    cost_scaling_seeded_in, exact_unit_in, exact_unit_replicated_in, harvey_exact, hk_semi_in,
    SearchStrategy,
};
use crate::greedy::basic::basic_greedy;
use crate::greedy::double_sorted::double_sorted;
use crate::greedy::expected::expected_greedy;
use crate::greedy::sorted::sorted_greedy;
use crate::hyper::egh::expected_greedy_hyp;
use crate::hyper::evg::expected_vector_greedy_hyp;
use crate::hyper::obj_greedy::{objective_expected_greedy_hyp, objective_greedy_hyp};
use crate::hyper::sgh::sorted_greedy_hyp;
use crate::hyper::vgh::vector_greedy_hyp;
use crate::online::{online_schedule, OnlineRule};
use crate::problem::{HyperMatching, SemiMatching};
use crate::refine::{iterated_refine, refine};
use crate::streaming::{
    streaming_greedy_bipartite, streaming_greedy_bipartite_two_pass, streaming_greedy_hyper,
    streaming_greedy_hyper_two_pass,
};

/// The maximum-matching engine axis, re-exported so registry consumers have
/// one import surface for every algorithm selector in the workspace.
pub use semimatch_matching::Algorithm as MatchingEngine;

// The objective axis, re-exported for the same reason: `solver` is the
// one-stop import surface of the registry.
pub use crate::objective::{Objective, Score};

/// Node budget handed to the brute-force solvers by the registry.
pub const BRUTE_FORCE_BUDGET: u64 = 20_000_000;

/// Refinement passes used by the `*Refined` kinds.
pub const REFINE_PASSES: u32 = 16;

/// Bottleneck kicks used by [`SolverKind::SghIls`].
pub const ILS_KICKS: u32 = 12;

/// A problem instance handed to [`solve`]: the paper's two formalisms.
#[derive(Clone, Copy, Debug)]
pub enum Problem<'a> {
    /// `SINGLEPROC`: a weighted bipartite graph (§II-A).
    SingleProc(&'a Bipartite),
    /// `MULTIPROC`: a bipartite hypergraph of configurations (§II-B).
    MultiProc(&'a Hypergraph),
}

impl<'a> From<&'a Bipartite> for Problem<'a> {
    fn from(g: &'a Bipartite) -> Self {
        Problem::SingleProc(g)
    }
}

impl<'a> From<&'a Hypergraph> for Problem<'a> {
    fn from(h: &'a Hypergraph) -> Self {
        Problem::MultiProc(h)
    }
}

impl Problem<'_> {
    /// The class a solver must support to run on this problem.
    pub fn class(&self) -> SolverClass {
        match self {
            Problem::SingleProc(_) => SolverClass::SingleProc,
            Problem::MultiProc(_) => SolverClass::MultiProc,
        }
    }

    /// Human-readable class name, used by [`CoreError::ClassMismatch`].
    pub fn class_name(&self) -> &'static str {
        match self {
            Problem::SingleProc(_) => "SINGLEPROC (bipartite)",
            Problem::MultiProc(_) => "MULTIPROC (hypergraph)",
        }
    }

    /// Lower bound on the optimal score under `objective` (Eq. 1 for the
    /// makespan, the balanced-spread work bound for the sum objectives).
    pub fn lower_bound(&self, objective: Objective) -> Result<Score> {
        match self {
            Problem::SingleProc(g) => {
                crate::lower_bound::lower_bound_objective_singleproc(g, objective)
            }
            Problem::MultiProc(h) => {
                crate::lower_bound::lower_bound_objective_multiproc(h, objective)
            }
        }
    }
}

/// A solution returned by [`solve`], mirroring the problem classes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Solution {
    /// Allocation of one edge per task.
    SingleProc(SemiMatching),
    /// Allocation of one hyperedge (configuration) per task.
    MultiProc(HyperMatching),
}

impl Solution {
    /// Human-readable class name, used by [`CoreError::ClassMismatch`].
    pub fn class_name(&self) -> &'static str {
        match self {
            Solution::SingleProc(_) => "SINGLEPROC (bipartite)",
            Solution::MultiProc(_) => "MULTIPROC (hypergraph)",
        }
    }

    /// The solution's cost under `objective`, against the problem it was
    /// computed for.
    ///
    /// # Errors
    ///
    /// [`CoreError::ClassMismatch`] when `problem`'s class does not match
    /// the solution's.
    pub fn score(&self, problem: &Problem<'_>, objective: Objective) -> Result<Score> {
        match (self, problem) {
            (Solution::SingleProc(sm), Problem::SingleProc(g)) => Ok(sm.score(g, objective)),
            (Solution::MultiProc(hm), Problem::MultiProc(h)) => Ok(hm.score(h, objective)),
            _ => Err(CoreError::ClassMismatch {
                problem: problem.class_name(),
                solution: self.class_name(),
            }),
        }
    }

    /// Makespan against the problem the solution was computed for — a thin
    /// alias for [`score`](Self::score) under [`Objective::Makespan`].
    ///
    /// # Errors
    ///
    /// [`CoreError::ClassMismatch`] when `problem`'s class does not match
    /// the solution's (previously a panic).
    pub fn makespan(&self, problem: &Problem<'_>) -> Result<u64> {
        Ok(self.score(problem, Objective::Makespan)?.as_u64())
    }

    /// Validates the solution against its problem.
    pub fn validate(&self, problem: &Problem<'_>) -> Result<()> {
        match (self, problem) {
            (Solution::SingleProc(sm), Problem::SingleProc(g)) => sm.validate(g),
            (Solution::MultiProc(hm), Problem::MultiProc(h)) => hm.validate(h),
            _ => Err(CoreError::ClassMismatch {
                problem: problem.class_name(),
                solution: self.class_name(),
            }),
        }
    }

    /// The bipartite allocation, if this is a `SINGLEPROC` solution.
    pub fn as_semi(&self) -> Option<&SemiMatching> {
        match self {
            Solution::SingleProc(sm) => Some(sm),
            Solution::MultiProc(_) => None,
        }
    }

    /// Consumes into the bipartite allocation.
    pub fn into_semi(self) -> Option<SemiMatching> {
        match self {
            Solution::SingleProc(sm) => Some(sm),
            Solution::MultiProc(_) => None,
        }
    }

    /// Consumes into the hypergraph allocation.
    pub fn into_hyper(self) -> Option<HyperMatching> {
        match self {
            Solution::MultiProc(hm) => Some(hm),
            Solution::SingleProc(_) => None,
        }
    }
}

/// Which problem class a [`SolverKind`] accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverClass {
    /// Bipartite (`SINGLEPROC`) instances only.
    SingleProc,
    /// Hypergraph (`MULTIPROC`) instances only.
    MultiProc,
    /// Both classes.
    Either,
}

impl SolverClass {
    /// Whether a solver of this class accepts `problem`.
    pub fn accepts(self, problem: &Problem<'_>) -> bool {
        match self {
            SolverClass::Either => true,
            SolverClass::SingleProc => matches!(problem, Problem::SingleProc(_)),
            SolverClass::MultiProc => matches!(problem, Problem::MultiProc(_)),
        }
    }
}

/// Every semi-matching solver in the workspace, unified.
///
/// This is the registry the CLI, bench harness, scheduling policies and the
/// agreement tests all dispatch through; the exact kinds' deadline-search
/// selector ([`SearchStrategy`]) survives only as an implementation detail
/// behind [`SolverKind::solve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverKind {
    // --- SINGLEPROC heuristics (§IV-B) ---
    /// basic-greedy (Algorithm 1).
    Basic,
    /// sorted-greedy.
    Sorted,
    /// double-sorted (Algorithm 2).
    DoubleSorted,
    /// expected-greedy (Algorithm 3).
    Expected,
    // --- SINGLEPROC-UNIT exact (§IV-A) ---
    /// Exact via capacitated matchings, incremental deadline search.
    ExactIncremental,
    /// Exact via capacitated matchings, bisection deadline search.
    ExactBisection,
    /// Exact via literal `G_D` replication (push-relabel engine).
    ExactReplicated,
    /// Exact via cost-reducing paths (Harvey, Ladner, Lovász, Tamir).
    Harvey,
    /// Exact via generalized Hopcroft–Karp phases (Katrenič–Semanišin):
    /// all shortest load-reducing paths augmented at once.
    HopcroftKarpSemi,
    /// Exact via divide-and-conquer on the load range with capacitated
    /// feasibility probes (Fakcharoenphol–Laekhanukit–Nanongkai style).
    CostScaling,
    // --- MULTIPROC heuristics (§IV-D) ---
    /// sorted-greedy-hyp (Algorithm 4).
    Sgh,
    /// vector-greedy-hyp.
    Vgh,
    /// expected-greedy-hyp (Algorithm 5).
    Egh,
    /// expected-vector-greedy-hyp.
    Evg,
    // --- extensions beyond the paper ---
    /// EVG followed by local-search refinement.
    EvgRefined,
    /// SGH followed by local-search refinement.
    SghRefined,
    /// SGH followed by iterated local search with bottleneck kicks.
    SghIls,
    /// Online min-bottleneck dispatcher (no sorting, no look-ahead).
    Online,
    /// One-pass streaming greedy over the edge/hyperedge stream
    /// (Konrad–Rosén style; both classes, `O(n + p)` state).
    StreamingGreedy,
    /// [`SolverKind::StreamingGreedy`] plus a second pass that re-places
    /// the tasks on overloaded processors (Konrad–Rosén's multi-pass
    /// refinement; both classes, never scores worse than one pass).
    StreamingTwoPass,
    /// Branch-and-bound exhaustive search (both classes, small instances).
    BruteForce,
}

impl SolverKind {
    /// Every registered solver.
    pub const ALL: [SolverKind; 21] = [
        SolverKind::Basic,
        SolverKind::Sorted,
        SolverKind::DoubleSorted,
        SolverKind::Expected,
        SolverKind::ExactIncremental,
        SolverKind::ExactBisection,
        SolverKind::ExactReplicated,
        SolverKind::Harvey,
        SolverKind::HopcroftKarpSemi,
        SolverKind::CostScaling,
        SolverKind::Sgh,
        SolverKind::Vgh,
        SolverKind::Egh,
        SolverKind::Evg,
        SolverKind::EvgRefined,
        SolverKind::SghRefined,
        SolverKind::SghIls,
        SolverKind::Online,
        SolverKind::StreamingGreedy,
        SolverKind::StreamingTwoPass,
        SolverKind::BruteForce,
    ];

    /// Solvers accepting bipartite (`SINGLEPROC`) problems.
    pub const SINGLEPROC: [SolverKind; 13] = [
        SolverKind::Basic,
        SolverKind::Sorted,
        SolverKind::DoubleSorted,
        SolverKind::Expected,
        SolverKind::ExactIncremental,
        SolverKind::ExactBisection,
        SolverKind::ExactReplicated,
        SolverKind::Harvey,
        SolverKind::HopcroftKarpSemi,
        SolverKind::CostScaling,
        SolverKind::StreamingGreedy,
        SolverKind::StreamingTwoPass,
        SolverKind::BruteForce,
    ];

    /// Solvers accepting hypergraph (`MULTIPROC`) problems.
    pub const MULTIPROC: [SolverKind; 11] = [
        SolverKind::Sgh,
        SolverKind::Vgh,
        SolverKind::Egh,
        SolverKind::Evg,
        SolverKind::EvgRefined,
        SolverKind::SghRefined,
        SolverKind::SghIls,
        SolverKind::Online,
        SolverKind::StreamingGreedy,
        SolverKind::StreamingTwoPass,
        SolverKind::BruteForce,
    ];

    /// Polynomial-time `MULTIPROC` solvers: safe as scheduling policies on
    /// arbitrary-size instances (everything in [`Self::MULTIPROC`] except
    /// the exhaustive search).
    pub const POLICIES: [SolverKind; 10] = [
        SolverKind::Sgh,
        SolverKind::Vgh,
        SolverKind::Egh,
        SolverKind::Evg,
        SolverKind::EvgRefined,
        SolverKind::SghRefined,
        SolverKind::SghIls,
        SolverKind::Online,
        SolverKind::StreamingGreedy,
        SolverKind::StreamingTwoPass,
    ];

    /// The four `SINGLEPROC` heuristics, in the paper's order.
    pub const BI_HEURISTICS: [SolverKind; 4] =
        [SolverKind::Basic, SolverKind::Sorted, SolverKind::DoubleSorted, SolverKind::Expected];

    /// The four `MULTIPROC` heuristics, in the paper's table-column order.
    pub const HYPER_HEURISTICS: [SolverKind; 4] =
        [SolverKind::Sgh, SolverKind::Vgh, SolverKind::Egh, SolverKind::Evg];

    /// The exact `SINGLEPROC-UNIT` algorithms.
    pub const EXACT_SINGLEPROC: [SolverKind; 6] = [
        SolverKind::ExactIncremental,
        SolverKind::ExactBisection,
        SolverKind::ExactReplicated,
        SolverKind::Harvey,
        SolverKind::HopcroftKarpSemi,
        SolverKind::CostScaling,
    ];

    /// Canonical registry name (stable; used by `from_str`, the CLI and
    /// reports).
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Basic => "basic",
            SolverKind::Sorted => "sorted",
            SolverKind::DoubleSorted => "double-sorted",
            SolverKind::Expected => "expected",
            SolverKind::ExactIncremental => "exact-incremental",
            SolverKind::ExactBisection => "exact-bisection",
            SolverKind::ExactReplicated => "exact-replicated",
            SolverKind::Harvey => "harvey",
            SolverKind::HopcroftKarpSemi => "hk-semi",
            SolverKind::CostScaling => "cost-scaling",
            SolverKind::Sgh => "sgh",
            SolverKind::Vgh => "vgh",
            SolverKind::Egh => "egh",
            SolverKind::Evg => "evg",
            SolverKind::EvgRefined => "evg-refined",
            SolverKind::SghRefined => "sgh-refined",
            SolverKind::SghIls => "sgh-ils",
            SolverKind::Online => "online",
            SolverKind::StreamingGreedy => "streaming-greedy",
            SolverKind::StreamingTwoPass => "streaming-two-pass",
            SolverKind::BruteForce => "brute-force",
        }
    }

    /// Display label used in tables (matches the paper's column names).
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Sgh => "SGH",
            SolverKind::Vgh => "VGH",
            SolverKind::Egh => "EGH",
            SolverKind::Evg => "EVG",
            SolverKind::EvgRefined => "EVG+refine",
            SolverKind::SghRefined => "SGH+refine",
            SolverKind::SghIls => "SGH+ILS",
            SolverKind::StreamingGreedy => "streaming",
            SolverKind::StreamingTwoPass => "streaming-2p",
            SolverKind::HopcroftKarpSemi => "HK-semi",
            other => other.name(),
        }
    }

    /// Paper section implementing this solver (empty for extensions).
    pub fn paper_ref(self) -> &'static str {
        match self {
            SolverKind::Basic
            | SolverKind::Sorted
            | SolverKind::DoubleSorted
            | SolverKind::Expected => "§IV-B",
            SolverKind::ExactIncremental
            | SolverKind::ExactBisection
            | SolverKind::ExactReplicated
            | SolverKind::Harvey => "§IV-A",
            SolverKind::Sgh | SolverKind::Vgh | SolverKind::Egh | SolverKind::Evg => "§IV-D",
            SolverKind::EvgRefined
            | SolverKind::SghRefined
            | SolverKind::SghIls
            | SolverKind::Online
            | SolverKind::StreamingGreedy
            | SolverKind::StreamingTwoPass
            | SolverKind::HopcroftKarpSemi
            | SolverKind::CostScaling
            | SolverKind::BruteForce => "extension",
        }
    }

    /// Which problem class this solver accepts.
    pub fn class(self) -> SolverClass {
        match self {
            SolverKind::Basic
            | SolverKind::Sorted
            | SolverKind::DoubleSorted
            | SolverKind::Expected
            | SolverKind::ExactIncremental
            | SolverKind::ExactBisection
            | SolverKind::ExactReplicated
            | SolverKind::Harvey
            | SolverKind::HopcroftKarpSemi
            | SolverKind::CostScaling => SolverClass::SingleProc,
            SolverKind::Sgh
            | SolverKind::Vgh
            | SolverKind::Egh
            | SolverKind::Evg
            | SolverKind::EvgRefined
            | SolverKind::SghRefined
            | SolverKind::SghIls
            | SolverKind::Online => SolverClass::MultiProc,
            SolverKind::StreamingGreedy | SolverKind::StreamingTwoPass | SolverKind::BruteForce => {
                SolverClass::Either
            }
        }
    }

    /// Whether this solver is guaranteed optimal (on the instances it
    /// accepts; the `Exact*` kinds additionally require unit weights).
    /// Exactness holds for every [`Objective`]: the unit solvers append a
    /// cost-reducing-path descent under sum objectives (simultaneous
    /// optimality) and the exhaustive search bounds on the exact score.
    pub fn is_exact(self) -> bool {
        matches!(
            self,
            SolverKind::ExactIncremental
                | SolverKind::ExactBisection
                | SolverKind::ExactReplicated
                | SolverKind::Harvey
                | SolverKind::HopcroftKarpSemi
                | SolverKind::CostScaling
                | SolverKind::BruteForce
        )
    }

    /// One-line description (CLI help, README tables).
    pub fn description(self) -> &'static str {
        match self {
            SolverKind::Basic => "basic-greedy, tasks by degree (Alg. 1)",
            SolverKind::Sorted => "sorted-greedy, processors by load",
            SolverKind::DoubleSorted => "double-sorted greedy (Alg. 2)",
            SolverKind::Expected => "expected-load greedy (Alg. 3)",
            SolverKind::ExactIncremental => "exact, incremental deadline search",
            SolverKind::ExactBisection => "exact, bisection deadline search",
            SolverKind::ExactReplicated => "exact, literal G_D replication",
            SolverKind::Harvey => "exact, cost-reducing paths",
            SolverKind::HopcroftKarpSemi => "exact, generalized Hopcroft-Karp phases",
            SolverKind::CostScaling => "exact, load-range divide-and-conquer",
            SolverKind::Sgh => "sorted-greedy-hyp (Alg. 4)",
            SolverKind::Vgh => "vector-greedy-hyp",
            SolverKind::Egh => "expected-greedy-hyp (Alg. 5)",
            SolverKind::Evg => "expected-vector-greedy-hyp",
            SolverKind::EvgRefined => "EVG + local-search refinement",
            SolverKind::SghRefined => "SGH + local-search refinement",
            SolverKind::SghIls => "SGH + iterated local search",
            SolverKind::Online => "online min-bottleneck dispatch",
            SolverKind::StreamingGreedy => "one-pass streaming greedy (Konrad-Rosen)",
            SolverKind::StreamingTwoPass => "two-pass streaming greedy (Konrad-Rosen)",
            SolverKind::BruteForce => "branch-and-bound exhaustive search",
        }
    }

    /// Runs this solver on `problem` under [`Objective::Makespan`] with
    /// throwaway scratch.
    ///
    /// One-shot convenience: repeated callers should hold a
    /// [`KindSolver`] (or go through [`solve_many`]) so the engine scratch
    /// is allocated once and reused.
    pub fn solve(self, problem: Problem<'_>) -> Result<Solution> {
        self.solve_with(problem, Objective::Makespan)
    }

    /// Runs this solver on `problem` optimizing `objective`, with
    /// throwaway scratch.
    pub fn solve_with(self, problem: Problem<'_>, objective: Objective) -> Result<Solution> {
        self.solve_in(problem, objective, &mut SearchWorkspace::new())
    }

    /// Builds a solver object for this kind, owning its own workspace.
    pub fn solver(self) -> KindSolver {
        KindSolver::new(self)
    }

    /// Runs this solver on `problem` optimizing `objective`, drawing all
    /// matching-engine scratch (flow arenas, BFS/DFS arrays) from `ws`.
    ///
    /// Under [`Objective::Makespan`] every kind runs its historical paper
    /// algorithm. Under a sum-type objective:
    ///
    /// * the greedy families (bipartite and hypergraph, including
    ///   [`SolverKind::Online`] and the streaming kinds) select by
    ///   **marginal objective cost** along their usual visit order and
    ///   tie-breaks (the current-load pair SGH/VGH and the expected-load
    ///   pair EGH/EVG each collapse to one marginal rule).
    ///   [`Objective::WeightedLoad`] separates per task — its marginal is
    ///   the edge weight itself — so [`SolverKind::Basic`],
    ///   [`SolverKind::Sorted`] and [`SolverKind::DoubleSorted`], which
    ///   pick each task's cheapest edge, are **exact** for it, weighted
    ///   instances included;
    /// * the refined/ILS kinds run their base heuristic and local search
    ///   with objective-aware move acceptance;
    /// * the exact `SINGLEPROC-UNIT` kinds solve for the optimal makespan
    ///   and then run the Harvey–Ladner–Lovász–Tamir cost-reducing-path
    ///   descent, whose fixpoint is **simultaneously optimal for every
    ///   symmetric convex objective** (makespan, flow time, all `L_p`
    ///   norms; under unit weights the total load is invariant, covering
    ///   [`Objective::WeightedLoad`] trivially);
    /// * [`SolverKind::BruteForce`] branch-and-bounds on the exact
    ///   objective score.
    pub fn solve_in(
        self,
        problem: Problem<'_>,
        objective: Objective,
        ws: &mut SearchWorkspace,
    ) -> Result<Solution> {
        let solution = match self {
            SolverKind::Basic => {
                Solution::SingleProc(basic_greedy(self.bipartite(&problem)?, objective)?)
            }
            SolverKind::Sorted => {
                Solution::SingleProc(sorted_greedy(self.bipartite(&problem)?, objective)?)
            }
            SolverKind::DoubleSorted => {
                Solution::SingleProc(double_sorted(self.bipartite(&problem)?, objective)?)
            }
            SolverKind::Expected => {
                Solution::SingleProc(expected_greedy(self.bipartite(&problem)?, objective)?)
            }
            SolverKind::ExactIncremental => {
                let g = self.bipartite(&problem)?;
                let sm = exact_unit_in(g, SearchStrategy::Incremental, ws)?.solution;
                unit_optimum(g, sm, objective)
            }
            SolverKind::ExactBisection => {
                let g = self.bipartite(&problem)?;
                let sm = exact_unit_in(g, SearchStrategy::Bisection, ws)?.solution;
                unit_optimum(g, sm, objective)
            }
            SolverKind::ExactReplicated => {
                let g = self.bipartite(&problem)?;
                let r = exact_unit_replicated_in(
                    g,
                    MatchingEngine::PushRelabel,
                    SearchStrategy::Incremental,
                    ws,
                )?;
                unit_optimum(g, r.solution, objective)
            }
            // Already a cost-reducing-path fixpoint: optimal for every
            // symmetric convex objective as computed.
            SolverKind::Harvey => Solution::SingleProc(harvey_exact(self.bipartite(&problem)?)?),
            SolverKind::HopcroftKarpSemi => {
                let g = self.bipartite(&problem)?;
                unit_optimum(g, hk_semi_in(g, ws)?.solution, objective)
            }
            SolverKind::CostScaling => {
                let g = self.bipartite(&problem)?;
                unit_optimum(g, cost_scaling_in(g, ws)?.solution, objective)
            }
            SolverKind::Sgh | SolverKind::Vgh | SolverKind::Egh | SolverKind::Evg => {
                Solution::MultiProc(self.hyper_greedy(self.hypergraph(&problem)?, objective)?)
            }
            SolverKind::EvgRefined => {
                let h = self.hypergraph(&problem)?;
                let mut hm = SolverKind::Evg.hyper_greedy(h, objective)?;
                refine(h, &mut hm, REFINE_PASSES, objective)?;
                Solution::MultiProc(hm)
            }
            SolverKind::SghRefined => {
                let h = self.hypergraph(&problem)?;
                let mut hm = SolverKind::Sgh.hyper_greedy(h, objective)?;
                refine(h, &mut hm, REFINE_PASSES, objective)?;
                Solution::MultiProc(hm)
            }
            SolverKind::SghIls => {
                let h = self.hypergraph(&problem)?;
                let mut hm = SolverKind::Sgh.hyper_greedy(h, objective)?;
                iterated_refine(h, &mut hm, ILS_KICKS, REFINE_PASSES, objective)?;
                Solution::MultiProc(hm)
            }
            SolverKind::Online => {
                let h = self.hypergraph(&problem)?;
                Solution::MultiProc(if objective.is_bottleneck() {
                    online_schedule(h, OnlineRule::MinBottleneck)?
                } else {
                    objective_greedy_hyp(h, objective, false)?
                })
            }
            SolverKind::StreamingGreedy => match problem {
                Problem::SingleProc(g) => {
                    Solution::SingleProc(streaming_greedy_bipartite(g, objective)?)
                }
                Problem::MultiProc(h) => Solution::MultiProc(streaming_greedy_hyper(h, objective)?),
            },
            SolverKind::StreamingTwoPass => match problem {
                Problem::SingleProc(g) => {
                    Solution::SingleProc(streaming_greedy_bipartite_two_pass(g, objective)?)
                }
                Problem::MultiProc(h) => {
                    Solution::MultiProc(streaming_greedy_hyper_two_pass(h, objective)?)
                }
            },
            SolverKind::BruteForce => match problem {
                Problem::SingleProc(g) => Solution::SingleProc(
                    brute_force_singleproc_objective(g, BRUTE_FORCE_BUDGET, objective)?.1,
                ),
                Problem::MultiProc(h) => Solution::MultiProc(
                    brute_force_multiproc_objective(h, BRUTE_FORCE_BUDGET, objective)?.1,
                ),
            },
        };
        Ok(solution)
    }

    /// The §IV-D greedy behind [`SolverKind::Sgh`], [`SolverKind::Vgh`],
    /// [`SolverKind::Egh`] and [`SolverKind::Evg`]: the paper's bottleneck
    /// rule under the makespan; under a sum objective, the marginal rule
    /// its pair collapses to (current loads for SGH/VGH, expected loads
    /// for EGH/EVG).
    fn hyper_greedy(self, h: &Hypergraph, objective: Objective) -> Result<HyperMatching> {
        match (self, objective.is_bottleneck()) {
            (SolverKind::Sgh, true) => sorted_greedy_hyp(h),
            (SolverKind::Vgh, true) => vector_greedy_hyp(h),
            (SolverKind::Egh, true) => expected_greedy_hyp(h),
            (SolverKind::Evg, true) => expected_vector_greedy_hyp(h),
            (SolverKind::Sgh | SolverKind::Vgh, false) => objective_greedy_hyp(h, objective, true),
            (SolverKind::Egh | SolverKind::Evg, false) => {
                objective_expected_greedy_hyp(h, objective)
            }
            (kind, _) => unreachable!("{kind} is not a hypergraph greedy"),
        }
    }

    fn bipartite<'a>(self, problem: &Problem<'a>) -> Result<&'a Bipartite> {
        match problem {
            Problem::SingleProc(g) => Ok(g),
            Problem::MultiProc(_) => Err(CoreError::KindMismatch {
                solver: self.name(),
                expected: "a bipartite (SINGLEPROC) instance",
            }),
        }
    }

    fn hypergraph<'a>(self, problem: &Problem<'a>) -> Result<&'a Hypergraph> {
        match problem {
            Problem::MultiProc(h) => Ok(h),
            Problem::SingleProc(_) => Err(CoreError::KindMismatch {
                solver: self.name(),
                expected: "a hypergraph (MULTIPROC) instance",
            }),
        }
    }
}

/// The exact `SINGLEPROC-UNIT` rule under `objective`: `sm` has the
/// optimal makespan; under a sum objective the cost-reducing-path descent
/// turns it into the fixpoint that is simultaneously optimal for every
/// symmetric convex objective (Harvey et al.).
fn unit_optimum(g: &Bipartite, sm: SemiMatching, objective: Objective) -> Solution {
    Solution::SingleProc(if objective.is_bottleneck() {
        sm
    } else {
        crate::exact::harvey::optimize(g, sm)
    })
}

impl FromStr for SolverKind {
    type Err = CoreError;

    /// Looks a solver up by its registry [`name`](SolverKind::name); a few
    /// historical aliases (`incremental`, `bisection`, `evg+refine`, …)
    /// resolve too.
    fn from_str(s: &str) -> Result<SolverKind> {
        let lower = s.to_ascii_lowercase();
        for kind in SolverKind::ALL {
            if kind.name() == lower {
                return Ok(kind);
            }
        }
        match lower.as_str() {
            "incremental" => Ok(SolverKind::ExactIncremental),
            "bisection" => Ok(SolverKind::ExactBisection),
            "replicated" => Ok(SolverKind::ExactReplicated),
            "hopcroft-karp-semi" | "katrenic" => Ok(SolverKind::HopcroftKarpSemi),
            "fln" | "load-range" => Ok(SolverKind::CostScaling),
            "evg+refine" => Ok(SolverKind::EvgRefined),
            "sgh+refine" => Ok(SolverKind::SghRefined),
            "sgh+ils" => Ok(SolverKind::SghIls),
            "streaming" => Ok(SolverKind::StreamingGreedy),
            "bruteforce" => Ok(SolverKind::BruteForce),
            _ => Err(CoreError::UnknownSolver(s.to_string())),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs `kind` on `problem` under [`Objective::Makespan`] — the single
/// dispatch point for every consumer.
///
/// Thin compatibility facade over the [`Solver`] trait: allocates throwaway
/// scratch per call. Hot loops should hold a [`KindSolver`] (or use
/// [`solve_many`]) to amortize workspace allocation across solves.
pub fn solve(problem: Problem<'_>, kind: SolverKind) -> Result<Solution> {
    kind.solve(problem)
}

/// Runs `kind` on `problem` optimizing `objective` — [`solve`] with the
/// cost-model axis exposed.
pub fn solve_with(
    problem: Problem<'_>,
    kind: SolverKind,
    objective: Objective,
) -> Result<Solution> {
    kind.solve_with(problem, objective)
}

/// A solver object: one algorithm plus the scratch state it reuses between
/// runs.
///
/// Where [`solve`] is the stateless facade, a `Solver` is the warm path:
/// the object owns its [`SearchWorkspace`] (visited stamps, BFS/DFS arrays,
/// flow residual arena), so consecutive [`Solver::solve`] calls on
/// same-shaped instances perform no scratch allocation. This is also the
/// seam where future backends (cost-scaling flow, streaming, sharded
/// serving) land: they implement `Solver` and plug into every consumer —
/// the CLI batch mode, the bench sweeps, the scheduling policies — without
/// touching the dispatch sites.
pub trait Solver {
    /// The registry entry this solver implements.
    fn kind(&self) -> SolverKind;

    /// Solves `problem` optimizing `objective`, reusing the solver's
    /// internal scratch. The required method: the objective is part of
    /// the solver contract, not an afterthought.
    fn solve_with(&mut self, problem: Problem<'_>, objective: Objective) -> Result<Solution>;

    /// Solves `problem` under [`Objective::Makespan`], reusing the
    /// solver's internal scratch.
    fn solve(&mut self, problem: Problem<'_>) -> Result<Solution> {
        self.solve_with(problem, Objective::Makespan)
    }

    /// Solves `problem` optimizing `objective`, writing over `out`.
    ///
    /// The default implementation replaces `*out` wholesale (dropping its
    /// old buffers); backends that can rebuild a solution in place override
    /// this to keep the output allocation alive too.
    fn solve_into(
        &mut self,
        problem: Problem<'_>,
        objective: Objective,
        out: &mut Solution,
    ) -> Result<()> {
        *out = self.solve_with(problem, objective)?;
        Ok(())
    }

    /// Pre-sizes internal scratch for `problem`'s dimensions, so the first
    /// real [`Solver::solve`] hits the warm path. Optional; a no-op by
    /// default.
    fn warm_start(&mut self, _problem: &Problem<'_>) {}

    /// [`Solver::warm_start`] plus a *solution seed*: `seed[v]` names the
    /// processor currently running task `v` (one entry per task). Backends
    /// that can exploit a known-good assignment — the load-range search
    /// tightens its bracket to the seed's makespan and starts probing below
    /// it — consume the seed on their **next** solve of the same problem;
    /// everyone else just pre-sizes. The seed is advisory: entries that
    /// name a processor not adjacent to their task are ignored, and the
    /// solve result is identical to the unseeded one (only faster).
    fn warm_start_with(&mut self, problem: &Problem<'_>, _seed: &[u32]) {
        self.warm_start(problem);
    }
}

/// The registry's [`Solver`] implementation: a [`SolverKind`] bound to a
/// persistent [`SearchWorkspace`].
#[derive(Clone, Debug)]
pub struct KindSolver {
    kind: SolverKind,
    ws: SearchWorkspace,
    /// One-shot solution seed installed by [`Solver::warm_start_with`],
    /// consumed (taken) by the next solve. Only the kinds that can exploit
    /// it store one.
    seed: Option<Vec<u32>>,
}

impl KindSolver {
    /// A solver for `kind` with an empty (lazily grown) workspace.
    pub fn new(kind: SolverKind) -> Self {
        KindSolver { kind, ws: SearchWorkspace::new(), seed: None }
    }

    /// The underlying workspace (e.g. to share it with non-registry code).
    pub fn workspace(&mut self) -> &mut SearchWorkspace {
        &mut self.ws
    }
}

impl Solver for KindSolver {
    fn kind(&self) -> SolverKind {
        self.kind
    }

    fn solve_with(&mut self, problem: Problem<'_>, objective: Objective) -> Result<Solution> {
        if self.kind == SolverKind::CostScaling {
            if let (Some(seed), Problem::SingleProc(g)) = (self.seed.take(), &problem) {
                let r = cost_scaling_seeded_in(g, Some(&seed), &mut self.ws)?;
                return Ok(unit_optimum(g, r.solution, objective));
            }
        }
        self.seed = None;
        self.kind.solve_in(problem, objective, &mut self.ws)
    }

    fn warm_start(&mut self, problem: &Problem<'_>) {
        // SINGLEPROC kinds draw on the workspace: pre-size the traversal
        // arrays and the capacitated flow arena (source + tasks + procs +
        // sink; task, task→proc and proc arcs, each with a residual twin).
        // MULTIPROC (hypergraph) kinds keep their scratch inside their own
        // algorithms, so there is nothing to pre-size for them.
        if let Problem::SingleProc(g) = problem {
            self.ws.reserve(g.n_left(), g.n_right());
            let (n1, n2) = (g.n_left() as usize, g.n_right() as usize);
            self.ws.reserve_flow(n1 + n2 + 2, 2 * (n1 + g.num_edges() + n2), g.num_edges());
        }
    }

    fn warm_start_with(&mut self, problem: &Problem<'_>, seed: &[u32]) {
        self.warm_start(problem);
        // Only the load-range search exploits a solution seed today; other
        // kinds would store it to no effect, so they skip the copy.
        if self.kind == SolverKind::CostScaling {
            if let Problem::SingleProc(g) = problem {
                if seed.len() == g.n_left() as usize {
                    match &mut self.seed {
                        Some(buf) => {
                            buf.clear();
                            buf.extend_from_slice(seed);
                        }
                        slot => *slot = Some(seed.to_vec()),
                    }
                }
            }
        }
    }
}

/// Solves every problem with every kind under `objective`, reusing one
/// workspace-backed solver per kind across the whole batch.
///
/// Returns one row per problem, holding the kinds' results in `kinds`
/// order. Class-mismatched pairs yield `Err(CoreError::KindMismatch)` in
/// their slot without aborting the rest of the batch — a batch can mix
/// `SINGLEPROC` and `MULTIPROC` instances.
///
/// The batch runs on the calling thread; parallel drivers (the bench
/// harness) shard the problem list and call `solve_many` — or hold
/// [`KindSolver`]s — once per worker, which is what "one workspace per
/// thread" means operationally.
pub fn solve_many(
    problems: &[Problem<'_>],
    kinds: &[SolverKind],
    objective: Objective,
) -> Vec<Vec<Result<Solution>>> {
    let mut solvers: Vec<KindSolver> = kinds.iter().map(|&k| KindSolver::new(k)).collect();
    problems
        .iter()
        .map(|&problem| solvers.iter_mut().map(|s| s.solve_with(problem, objective)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bipartite() -> Bipartite {
        Bipartite::from_edges(
            6,
            3,
            &[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2), (3, 2), (4, 0), (4, 2), (5, 1)],
        )
        .unwrap()
    }

    fn hypergraph() -> Hypergraph {
        Hypergraph::from_configs(
            3,
            &[vec![vec![0], vec![1, 2]], vec![vec![0]], vec![vec![2]], vec![vec![2]]],
        )
        .unwrap()
    }

    #[test]
    fn registry_has_at_least_ten_kinds_with_distinct_names() {
        assert!(SolverKind::ALL.len() >= 10);
        let mut names: Vec<_> = SolverKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SolverKind::ALL.len());
    }

    #[test]
    fn registry_arrays_are_exhaustive_over_the_enum() {
        for kind in SolverKind::ALL {
            // No wildcard arm: adding a SolverKind variant breaks this match
            // at compile time, forcing ALL and the class subsets above to be
            // revisited in the same change.
            match kind {
                SolverKind::Basic
                | SolverKind::Sorted
                | SolverKind::DoubleSorted
                | SolverKind::Expected
                | SolverKind::ExactIncremental
                | SolverKind::ExactBisection
                | SolverKind::ExactReplicated
                | SolverKind::Harvey
                | SolverKind::HopcroftKarpSemi
                | SolverKind::CostScaling
                | SolverKind::Sgh
                | SolverKind::Vgh
                | SolverKind::Egh
                | SolverKind::Evg
                | SolverKind::EvgRefined
                | SolverKind::SghRefined
                | SolverKind::SghIls
                | SolverKind::Online
                | SolverKind::StreamingGreedy
                | SolverKind::StreamingTwoPass
                | SolverKind::BruteForce => {}
            }
            // Every kind appears in exactly the subset arrays its class says.
            let in_single = SolverKind::SINGLEPROC.contains(&kind);
            let in_multi = SolverKind::MULTIPROC.contains(&kind);
            match kind.class() {
                SolverClass::SingleProc => assert!(in_single && !in_multi, "{kind}"),
                SolverClass::MultiProc => assert!(in_multi && !in_single, "{kind}"),
                SolverClass::Either => assert!(in_single && in_multi, "{kind}"),
            }
            let in_policies = SolverKind::POLICIES.contains(&kind);
            assert_eq!(in_policies, in_multi && kind != SolverKind::BruteForce, "{kind}");
        }
    }

    #[test]
    fn every_name_round_trips_through_from_str() {
        for kind in SolverKind::ALL {
            assert_eq!(kind.name().parse::<SolverKind>().unwrap(), kind);
        }
        assert!(matches!("nonsense".parse::<SolverKind>(), Err(CoreError::UnknownSolver(_))));
    }

    #[test]
    fn subsets_match_classes() {
        for kind in SolverKind::SINGLEPROC {
            assert!(kind.class().accepts(&Problem::SingleProc(&bipartite())), "{kind}");
        }
        for kind in SolverKind::MULTIPROC {
            assert!(kind.class().accepts(&Problem::MultiProc(&hypergraph())), "{kind}");
        }
        assert_eq!(
            SolverKind::ALL.len() + 3, // the two streaming kinds and BruteForce are in both
            SolverKind::SINGLEPROC.len() + SolverKind::MULTIPROC.len(),
        );
    }

    #[test]
    fn every_singleproc_kind_solves_and_validates() {
        let g = bipartite();
        let problem = Problem::SingleProc(&g);
        let opt = SolverKind::ExactBisection.solve(problem).unwrap().makespan(&problem).unwrap();
        for kind in SolverKind::SINGLEPROC {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem).unwrap();
            let m = sol.makespan(&problem).unwrap();
            if kind.is_exact() {
                assert_eq!(m, opt, "{kind} is exact but disagreed");
            } else {
                assert!(m >= opt, "{kind} beat the optimum");
            }
        }
    }

    #[test]
    fn every_multiproc_kind_solves_and_validates() {
        let h = hypergraph();
        let problem = Problem::MultiProc(&h);
        let opt = SolverKind::BruteForce.solve(problem).unwrap().makespan(&problem).unwrap();
        for kind in SolverKind::MULTIPROC {
            let sol = solve(problem, kind).unwrap();
            sol.validate(&problem).unwrap();
            assert!(sol.makespan(&problem).unwrap() >= opt, "{kind} beat the optimum");
        }
    }

    #[test]
    fn every_kind_solves_every_reported_objective() {
        let g = bipartite();
        let h = hypergraph();
        for kind in SolverKind::ALL {
            let problem = match kind.class() {
                SolverClass::SingleProc | SolverClass::Either => Problem::SingleProc(&g),
                SolverClass::MultiProc => Problem::MultiProc(&h),
            };
            for obj in Objective::REPORTED {
                let sol = solve_with(problem, kind, obj).unwrap();
                sol.validate(&problem).unwrap();
                // Exact kinds must hit the brute-force optimum under every
                // objective (the simultaneous-optimality contract).
                if kind.is_exact() {
                    let opt = solve_with(problem, SolverKind::BruteForce, obj)
                        .unwrap()
                        .score(&problem, obj)
                        .unwrap();
                    assert_eq!(sol.score(&problem, obj).unwrap(), opt, "{kind} under {obj}");
                }
            }
        }
    }

    #[test]
    fn score_and_makespan_report_class_mismatch() {
        let g = bipartite();
        let h = hypergraph();
        let sol = solve(Problem::SingleProc(&g), SolverKind::Basic).unwrap();
        assert!(matches!(
            sol.makespan(&Problem::MultiProc(&h)),
            Err(CoreError::ClassMismatch { .. })
        ));
        assert!(matches!(
            sol.score(&Problem::MultiProc(&h), Objective::FlowTime),
            Err(CoreError::ClassMismatch { .. })
        ));
        assert!(matches!(
            sol.validate(&Problem::MultiProc(&h)),
            Err(CoreError::ClassMismatch { .. })
        ));
    }

    #[test]
    fn class_mismatch_is_a_clean_error() {
        let g = bipartite();
        let h = hypergraph();
        assert!(matches!(
            SolverKind::Sgh.solve(Problem::SingleProc(&g)),
            Err(CoreError::KindMismatch { .. })
        ));
        assert!(matches!(
            SolverKind::Basic.solve(Problem::MultiProc(&h)),
            Err(CoreError::KindMismatch { .. })
        ));
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!("bisection".parse::<SolverKind>().unwrap(), SolverKind::ExactBisection);
        assert_eq!("EVG+refine".parse::<SolverKind>().unwrap(), SolverKind::EvgRefined);
    }

    #[test]
    fn seeded_warm_start_matches_unseeded_solves() {
        // warm_start_with feeds the previous assignment back as a seed; the
        // result must be score-identical to the unseeded solve for every
        // kind (seed-consuming or not), under every reported objective.
        let g = bipartite();
        let problem = Problem::SingleProc(&g);
        for kind in [SolverKind::CostScaling, SolverKind::HopcroftKarpSemi, SolverKind::Sorted] {
            let mut s = kind.solver();
            let mut prev: Option<Solution> = None;
            for obj in Objective::REPORTED {
                match &prev {
                    Some(Solution::SingleProc(sm)) => {
                        let procs: Vec<u32> = sm.edge_of.iter().map(|&e| g.edge_right(e)).collect();
                        s.warm_start_with(&problem, &procs);
                    }
                    _ => s.warm_start(&problem),
                }
                let seeded = s.solve_with(problem, obj).unwrap();
                seeded.validate(&problem).unwrap();
                let fresh = solve_with(problem, kind, obj).unwrap();
                assert_eq!(
                    seeded.score(&problem, obj).unwrap(),
                    fresh.score(&problem, obj).unwrap(),
                    "{kind} under {obj} diverged when seeded"
                );
                prev = Some(seeded);
            }
            // A garbage-length seed is ignored, not an error.
            s.warm_start_with(&problem, &[0]);
            s.solve(problem).unwrap().validate(&problem).unwrap();
        }
    }

    #[test]
    fn warm_solver_matches_stateless_facade() {
        // A KindSolver reused across many solves must return exactly what
        // the stateless facade returns per call.
        let g = bipartite();
        let h = hypergraph();
        for kind in SolverKind::ALL {
            let mut s = kind.solver();
            assert_eq!(s.kind(), kind);
            let problem = match kind.class() {
                SolverClass::SingleProc | SolverClass::Either => Problem::SingleProc(&g),
                SolverClass::MultiProc => Problem::MultiProc(&h),
            };
            s.warm_start(&problem);
            for _ in 0..3 {
                let warm = s.solve(problem).unwrap();
                let cold = solve(problem, kind).unwrap();
                assert_eq!(warm, cold, "{kind} diverged under workspace reuse");
            }
        }
    }

    #[test]
    fn solve_into_overwrites_previous_solution() {
        let g = bipartite();
        let problem = Problem::SingleProc(&g);
        let mut s = SolverKind::ExactBisection.solver();
        let mut out = s.solve(problem).unwrap();
        let expected = out.clone();
        s.solve_into(problem, Objective::Makespan, &mut out).unwrap();
        assert_eq!(out, expected);
        out.validate(&problem).unwrap();
    }

    #[test]
    fn solve_many_matches_per_call_solves_and_isolates_mismatches() {
        let g = bipartite();
        let h = hypergraph();
        let problems = [Problem::SingleProc(&g), Problem::MultiProc(&h)];
        let kinds = [SolverKind::ExactBisection, SolverKind::Evg, SolverKind::BruteForce];
        let rows = solve_many(&problems, &kinds, Objective::Makespan);
        assert_eq!(rows.len(), problems.len());
        for (row, problem) in rows.iter().zip(&problems) {
            assert_eq!(row.len(), kinds.len());
            for (slot, &kind) in row.iter().zip(&kinds) {
                match (slot, solve(*problem, kind)) {
                    (Ok(batch), Ok(single)) => {
                        assert_eq!(batch, &single, "{kind}");
                        batch.validate(problem).unwrap();
                    }
                    (Err(CoreError::KindMismatch { .. }), Err(CoreError::KindMismatch { .. })) => {}
                    (got, want) => panic!("{kind}: batch {got:?} vs single {want:?}"),
                }
            }
        }
    }

    #[test]
    fn solver_trait_is_object_safe() {
        let g = bipartite();
        let problem = Problem::SingleProc(&g);
        let mut solvers: Vec<Box<dyn Solver>> =
            vec![Box::new(SolverKind::Expected.solver()), Box::new(SolverKind::Harvey.solver())];
        for s in &mut solvers {
            s.solve(problem).unwrap().validate(&problem).unwrap();
        }
    }
}
