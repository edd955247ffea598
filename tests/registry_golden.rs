//! Golden assignments: every registry kind under every reported objective
//! on three seeded instances, pinned by an FNV-1a hash of the assignment
//! vector (`edge_of` / `hedge_of`).
//!
//! The makespan and score suites only compare objective values, so a
//! change in a heuristic's tie-breaking that happens to reach the same
//! score would pass them. These hashes pin the exact assignment each kind
//! returns, so refactors of the selection loops must keep every tie-break.
//!
//! Exhaustive search runs only on the weighted HiLo instance; on the other
//! two its node budget does not fit (or takes seconds per objective).
//! A kind that rejects an instance (the unit-only exact kinds on weights)
//! hashes to 0.
//!
//! After a deliberate change of an algorithm's output, rerun with
//! `cargo test --test registry_golden -- --nocapture` and paste the
//! printed table over `GOLDEN`.

use semimatch::core::solver::{Problem, Solution, SolverKind};
use semimatch::core::Objective;
use semimatch::gen::params::{Config, Family};
use semimatch::gen::weights::{apply_random_edge_weights, WeightScheme};
use semimatch::gen::{hilo_permuted, Xoshiro256};
use semimatch::graph::{Bipartite, Hypergraph};

/// FNV-1a over the little-endian bytes of an assignment vector.
fn fnv1a(xs: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The hash of a solve outcome: the assignment's FNV-1a, or 0 when the
/// kind rejects the instance (the unit-only exact kinds on weights).
fn outcome_hash(r: semimatch::core::Result<Solution>) -> u64 {
    match r {
        Ok(Solution::SingleProc(sm)) => fnv1a(&sm.edge_of),
        Ok(Solution::MultiProc(hm)) => fnv1a(&hm.hedge_of),
        Err(_) => 0,
    }
}

/// A 24-task HiLo instance with random relabeling; `weighted` draws edge
/// weights in `[1, 9]` from the same stream.
fn hilo_instance(weighted: bool) -> Bipartite {
    let mut rng = Xoshiro256::seed_from_u64(0x5EED);
    let mut g = hilo_permuted(24, 8, 4, 2, &mut rng);
    if weighted {
        apply_random_edge_weights(&mut g, 9, &mut rng);
    }
    g
}

/// A 24-task FewgManyg hypergraph with the paper's related weights.
fn fg_instance() -> Hypergraph {
    let cfg =
        Config { family: Family::Fg, n: 24, p: 32, dv: 3, dh: 4, weights: WeightScheme::Related };
    cfg.instance(0x5EED, 0)
}

/// `(instance, kind, hash per objective in Objective::REPORTED order)`.
const GOLDEN: &[(&str, &str, [u64; 4])] = &[
    (
        "hilo-weighted",
        "basic",
        [16893423227509252610, 1833013858415856487, 1833013858415856487, 12693105111194849408],
    ),
    (
        "hilo-weighted",
        "sorted",
        [390596178543700808, 2812657548273091920, 2812657548273091920, 12693105111194849408],
    ),
    (
        "hilo-weighted",
        "double-sorted",
        [11166393054502380099, 2812657548273091920, 2812657548273091920, 6438687498582012047],
    ),
    (
        "hilo-weighted",
        "expected",
        [8754235802095952590, 3657731026067674924, 3657731026067674924, 12693105111194849408],
    ),
    ("hilo-weighted", "exact-incremental", [0, 0, 0, 0]),
    ("hilo-weighted", "exact-bisection", [0, 0, 0, 0]),
    ("hilo-weighted", "exact-replicated", [0, 0, 0, 0]),
    ("hilo-weighted", "harvey", [0, 0, 0, 0]),
    ("hilo-weighted", "hk-semi", [0, 0, 0, 0]),
    ("hilo-weighted", "cost-scaling", [0, 0, 0, 0]),
    (
        "hilo-weighted",
        "streaming-greedy",
        [15209077536348942643, 1833013858415856487, 1833013858415856487, 12693105111194849408],
    ),
    (
        "hilo-weighted",
        "brute-force",
        [367732968436998534, 17137080158720598609, 17137080158720598609, 12693105111194849408],
    ),
    (
        "hilo-weighted",
        "streaming-two-pass",
        [15209077536348942643, 1833013858415856487, 1833013858415856487, 12693105111194849408],
    ),
    (
        "hilo-unit",
        "basic",
        [3978282524885161580, 3978282524885161580, 3978282524885161580, 15442217089935294807],
    ),
    (
        "hilo-unit",
        "sorted",
        [248209976399623894, 248209976399623894, 248209976399623894, 15442217089935294807],
    ),
    (
        "hilo-unit",
        "double-sorted",
        [468624488305174112, 468624488305174112, 468624488305174112, 7125067752769776611],
    ),
    (
        "hilo-unit",
        "expected",
        [9006008421197860484, 9006008421197860484, 9006008421197860484, 15442217089935294807],
    ),
    (
        "hilo-unit",
        "exact-incremental",
        [7419535108560813270, 7419535108560813270, 7419535108560813270, 7419535108560813270],
    ),
    (
        "hilo-unit",
        "exact-bisection",
        [7419535108560813270, 7419535108560813270, 7419535108560813270, 7419535108560813270],
    ),
    (
        "hilo-unit",
        "exact-replicated",
        [7419535108560813270, 7419535108560813270, 7419535108560813270, 7419535108560813270],
    ),
    (
        "hilo-unit",
        "harvey",
        [17360589036902272614, 17360589036902272614, 17360589036902272614, 17360589036902272614],
    ),
    (
        "hilo-unit",
        "hk-semi",
        [4039967001327063326, 4039967001327063326, 4039967001327063326, 4039967001327063326],
    ),
    (
        "hilo-unit",
        "cost-scaling",
        [7419535108560813270, 7419535108560813270, 7419535108560813270, 7419535108560813270],
    ),
    (
        "hilo-unit",
        "streaming-greedy",
        [3978282524885161580, 3978282524885161580, 3978282524885161580, 15442217089935294807],
    ),
    (
        "hilo-unit",
        "streaming-two-pass",
        [3978282524885161580, 3978282524885161580, 3978282524885161580, 15442217089935294807],
    ),
    (
        "fg-related",
        "sgh",
        [14530206253388406445, 16492155370890552121, 16492155370890552121, 2609725730728016515],
    ),
    (
        "fg-related",
        "vgh",
        [16492155370890552121, 16492155370890552121, 16492155370890552121, 2609725730728016515],
    ),
    (
        "fg-related",
        "egh",
        [15385198983546255177, 12213453841678398794, 5360271417195788932, 751439473132708879],
    ),
    (
        "fg-related",
        "evg",
        [9028750539717852439, 12213453841678398794, 5360271417195788932, 751439473132708879],
    ),
    (
        "fg-related",
        "evg-refined",
        [11847306319168657452, 18350144495060056200, 17670324837523683142, 751439473132708879],
    ),
    (
        "fg-related",
        "sgh-refined",
        [15220477405591118774, 16492155370890552121, 16492155370890552121, 2609725730728016515],
    ),
    (
        "fg-related",
        "sgh-ils",
        [15220477405591118774, 16492155370890552121, 16492155370890552121, 2609725730728016515],
    ),
    (
        "fg-related",
        "online",
        [9428027450802548533, 2629364001308397871, 13211033383124280077, 2609725730728016515],
    ),
    (
        "fg-related",
        "streaming-greedy",
        [12010892615157063858, 2629364001308397871, 13211033383124280077, 2609725730728016515],
    ),
    (
        "fg-related",
        "streaming-two-pass",
        [3228482441763887462, 12455879716869046137, 12455879716869046137, 2609725730728016515],
    ),
];

/// Every `(instance, kind)` pair the golden table covers.
fn cases() -> Vec<(&'static str, SolverKind, Problem<'static>)> {
    // Leaked once per test run: the instances live for the whole binary.
    let wh: &'static Bipartite = Box::leak(Box::new(hilo_instance(true)));
    let uh: &'static Bipartite = Box::leak(Box::new(hilo_instance(false)));
    let fg: &'static Hypergraph = Box::leak(Box::new(fg_instance()));
    let mut out = Vec::new();
    for kind in SolverKind::SINGLEPROC {
        out.push(("hilo-weighted", kind, Problem::SingleProc(wh)));
        if kind != SolverKind::BruteForce {
            out.push(("hilo-unit", kind, Problem::SingleProc(uh)));
        }
    }
    for kind in SolverKind::MULTIPROC {
        if kind != SolverKind::BruteForce {
            out.push(("fg-related", kind, Problem::MultiProc(fg)));
        }
    }
    out
}

#[test]
fn every_kind_reproduces_its_golden_assignment() {
    let mut got = Vec::new();
    for (instance, kind, problem) in cases() {
        let hashes = Objective::REPORTED.map(|o| outcome_hash(kind.solve_with(problem, o)));
        got.push((instance, kind.name(), hashes));
    }
    for row in &got {
        println!("    {row:?},");
    }
    let mut want: Vec<_> = GOLDEN.to_vec();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "assignments drifted from the golden table (printed above)");
}
