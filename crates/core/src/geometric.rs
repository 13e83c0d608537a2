//! Geometric SimRank\*: the recursive form of Theorem 2,
//!
//! ```text
//! Ŝ = (C/2)·(Q Ŝ + Ŝ Qᵀ) + (1−C)·I
//! ```
//!
//! iterated from `Ŝ₀ = (1−C) I` (Lemma 4 / Eq. 14). Each iteration needs
//! **one** kernel application `P = Ŝ_k Qᵀ`; since `Ŝ_k` is symmetric,
//! `Q Ŝ_k = Pᵀ`, so `Ŝ_{k+1} = (C/2)(P + Pᵀ) + (1−C) I` — this is the
//! single-summation advantage over SimRank that §4.2 highlights.
//!
//! * [`iterate`] — *iter-gSR\** over the plain kernel, `O(K·n·(m+n))`;
//! * [`Memoized`] — *memo-gSR\** over the edge-concentrated kernel,
//!   `O(K·n·(m̃+n))`, with the compression phase separable for the
//!   Figure 6(f) amortised-time experiment.
//!
//! Since PR 3 both are thin exact-compatible wrappers over the
//! block-parallel sweep of [`crate::all_pairs`]; the pre-blocking textbook
//! loop survives as [`iterate_serial`] (the benchmark baseline and the
//! property-test oracle).

use crate::kernel::{CompressedRightMultiplier, PlainRightMultiplier, RightMultiplier};
use crate::{SimStarParams, SimilarityMatrix};
use ssr_compress::CompressOptions;
use ssr_graph::DiGraph;
use ssr_linalg::Dense;

/// One fixed-point step `Ŝ_{k+1} = (C/2)(Ŝ_k Qᵀ + (Ŝ_k Qᵀ)ᵀ) + (1−C) I`.
/// Kept for [`iterate_with_trace`], which needs the intermediate matrices.
fn step(kernel: &impl RightMultiplier, s: &Dense, c: f64) -> Dense {
    let mut p = kernel.apply(s); // P = S · Qᵀ
    p.add_transpose_inplace(); // P ← P + Pᵀ
    p.scale(c / 2.0);
    p.add_diagonal(1.0 - c);
    p
}

/// Runs `K` geometric iterations over an arbitrary kernel — since PR 3 the
/// block-parallel fused sweep ([`crate::all_pairs`]), bit-identical to the
/// textbook step loop. Exposed so the benchmark harness can time plain vs
/// memoized kernels uniformly.
pub fn iterate_with_kernel(
    kernel: &impl RightMultiplier,
    params: &SimStarParams,
) -> SimilarityMatrix {
    SimilarityMatrix::from_dense(crate::all_pairs::sweep_full(kernel, params, 0, 0))
}

/// *iter-gSR\**: geometric SimRank\* by plain iteration (§4.2).
pub fn iterate(g: &DiGraph, params: &SimStarParams) -> SimilarityMatrix {
    iterate_with_kernel(&PlainRightMultiplier::new(g), params)
}

/// The textbook single-threaded sweep: one output row at a time over raw
/// in-neighbor lists (no lane blocking, no threads), then the literal
/// transpose-add / scale / diagonal update. `O(K·n·(m+n))` like
/// [`iterate`], but re-reads the adjacency once per *row* instead of once
/// per 16-lane block.
///
/// This is the all-pairs benchmark's `serial` baseline and the oracle the
/// property tests pin [`crate::AllPairsEngine`] against — deliberately an
/// independent re-implementation of Eq. (14).
pub fn iterate_serial(g: &DiGraph, params: &SimStarParams) -> SimilarityMatrix {
    params.validate();
    let n = g.node_count();
    let in_nb: Vec<&[u32]> = g.nodes().map(|v| g.in_neighbors(v)).collect();
    let inv: Vec<f64> =
        in_nb.iter().map(|nb| if nb.is_empty() { 0.0 } else { 1.0 / nb.len() as f64 }).collect();
    let mut s = Dense::scaled_identity(n, 1.0 - params.c);
    let mut p = Dense::zeros(n, n);
    let c2 = params.c / 2.0;
    let diag = 1.0 - params.c;
    for _ in 0..params.iterations {
        for a in 0..n {
            let sa = s.row(a);
            let pa = p.row_mut(a);
            for x in 0..n {
                let mut acc = 0.0;
                for &y in in_nb[x] {
                    acc += sa[y as usize];
                }
                pa[x] = acc * inv[x];
            }
        }
        for i in 0..n {
            let row = s.row_mut(i);
            for (j, out) in row.iter_mut().enumerate() {
                *out = (p.get(i, j) + p.get(j, i)) * c2;
            }
            row[i] += diag;
        }
    }
    SimilarityMatrix::from_dense(s)
}

/// Like [`iterate`] but also returns `‖Ŝ_{k+1} − Ŝ_k‖_max` per iteration
/// (for convergence plots and the Lemma 3 property tests).
pub fn iterate_with_trace(g: &DiGraph, params: &SimStarParams) -> (SimilarityMatrix, Vec<f64>) {
    params.validate();
    let kernel = PlainRightMultiplier::new(g);
    let mut s = Dense::scaled_identity(g.node_count(), 1.0 - params.c);
    let mut trace = Vec::with_capacity(params.iterations);
    for _ in 0..params.iterations {
        let next = step(&kernel, &s, params.c);
        trace.push(next.max_diff(&s));
        s = next;
    }
    (SimilarityMatrix::from_dense(s), trace)
}

/// *memo-gSR\** (Algorithm 1): geometric SimRank\* over the edge-concentrated
/// kernel. Construction runs the preprocessing phase (build bigraph +
/// compress, lines 1–2); [`Memoized::run`] runs the update phase
/// (lines 3–19).
pub struct Memoized {
    kernel: CompressedRightMultiplier,
}

impl Memoized {
    /// Preprocessing phase: compress the induced bigraph.
    pub fn new(g: &DiGraph, opts: &CompressOptions) -> Self {
        Memoized { kernel: CompressedRightMultiplier::new(g, opts) }
    }

    /// Update phase: `K` memoized iterations.
    pub fn run(&self, params: &SimStarParams) -> SimilarityMatrix {
        iterate_with_kernel(&self.kernel, params)
    }

    /// The underlying memoized kernel (for cost accounting).
    pub fn kernel(&self) -> &CompressedRightMultiplier {
        &self.kernel
    }

    /// Compression ratio achieved by preprocessing.
    pub fn compression_ratio(&self) -> f64 {
        self.kernel.compression_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series;

    fn small_graphs() -> Vec<DiGraph> {
        vec![
            // diamond with a cycle back
            DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2), (0, 3)]).unwrap(),
            // two-arm path
            DiGraph::from_edges(5, &[(2, 1), (1, 0), (2, 3), (3, 4)]).unwrap(),
            // graph with an isolated node and a source
            DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap(),
        ]
    }

    #[test]
    fn recurrence_equals_series_lemma4() {
        // Lemma 4: the k-th iterate of Eq. (14) IS the k-th partial sum of
        // Eq. (9) — exact, not just in the limit.
        for g in small_graphs() {
            for k in 0..6 {
                let p = SimStarParams { c: 0.7, iterations: k };
                let fast = iterate(&g, &p);
                let brute = series::geometric_partial_sum(&g, &p);
                assert!(
                    fast.matrix().approx_eq(&brute, 1e-10),
                    "k={k}: recurrence != series, diff={}",
                    fast.matrix().max_diff(&brute)
                );
            }
        }
    }

    #[test]
    fn memo_equals_plain() {
        for g in small_graphs() {
            let p = SimStarParams { c: 0.6, iterations: 6 };
            let plain = iterate(&g, &p);
            let memo = Memoized::new(&g, &CompressOptions::default()).run(&p);
            assert!(plain.matrix().approx_eq(memo.matrix(), 1e-12));
        }
    }

    #[test]
    fn serial_reference_matches_blocked_iterate() {
        // The oracle must agree with the production sweep on every graph
        // (independent re-implementation, so 1e-10 rather than bitwise).
        for g in small_graphs() {
            for k in [0, 1, 4, 9] {
                let p = SimStarParams { c: 0.7, iterations: k };
                let serial = iterate_serial(&g, &p);
                let blocked = iterate(&g, &p);
                assert!(
                    serial.matrix().approx_eq(blocked.matrix(), 1e-10),
                    "k={k}, diff={}",
                    serial.matrix().max_diff(blocked.matrix())
                );
            }
        }
    }

    #[test]
    fn result_is_symmetric_in_unit_range() {
        for g in small_graphs() {
            let p = SimStarParams { c: 0.8, iterations: 10 };
            let s = iterate(&g, &p);
            assert!(s.matrix().is_symmetric(1e-12));
            for i in 0..g.node_count() {
                for j in 0..g.node_count() {
                    let v = s.score(i as u32, j as u32);
                    assert!((0.0..=1.0 + 1e-12).contains(&v), "score out of range: {v}");
                }
            }
        }
    }

    #[test]
    fn trace_respects_lemma3_bound() {
        let g = &small_graphs()[0];
        let c = 0.6;
        let (_, trace) = iterate_with_trace(g, &SimStarParams { c, iterations: 10 });
        for (k, diff) in trace.iter().enumerate() {
            // ‖Ŝ_{k+1} − Ŝ_k‖ ≤ ‖Ŝ − Ŝ_k‖ + ‖Ŝ − Ŝ_{k+1}‖ ≤ 2·C^{k+1};
            // in fact each single step adds at most C^{k+1} of mass.
            assert!(
                *diff <= 2.0 * crate::convergence::geometric_bound(c, k) + 1e-12,
                "step {k} moved {diff}"
            );
        }
    }

    #[test]
    fn diagonal_dominates_row() {
        // Each node should be at least as similar to itself as to anyone
        // else (score concentrates on the diagonal through (1−C)·I).
        let g = &small_graphs()[0];
        let s = iterate(g, &SimStarParams::default());
        for i in 0..g.node_count() as u32 {
            for j in 0..g.node_count() as u32 {
                assert!(s.score(i, i) >= s.score(i, j) - 1e-12);
            }
        }
    }

    #[test]
    fn zero_iterations_gives_scaled_identity() {
        let g = &small_graphs()[1];
        let s = iterate(g, &SimStarParams { c: 0.6, iterations: 0 });
        assert!(s.matrix().approx_eq(&Dense::scaled_identity(5, 0.4), 0.0));
    }

    #[test]
    fn empty_graph_ok() {
        let g = DiGraph::from_edges(0, &[]).unwrap();
        let s = iterate(&g, &SimStarParams::default());
        assert_eq!(s.node_count(), 0);
    }

    #[test]
    fn isolated_nodes_score_one_minus_c_self() {
        let g = DiGraph::from_edges(3, &[(0, 1)]).unwrap(); // node 2 isolated
        let s = iterate(&g, &SimStarParams { c: 0.6, iterations: 8 });
        assert!((s.score(2, 2) - 0.4).abs() < 1e-12);
        assert_eq!(s.score(2, 0), 0.0);
    }

    #[test]
    fn two_arm_path_prefers_symmetric_pairs() {
        // ids: 0 <- 1 <- 2 -> 3 -> 4. Symmetric pair (1,3) should outscore
        // the dissymmetric pair (1,4) of the same total source-distance sum.
        let g = DiGraph::from_edges(5, &[(2, 1), (1, 0), (2, 3), (3, 4)]).unwrap();
        let s = iterate(&g, &SimStarParams { c: 0.8, iterations: 12 });
        assert!(s.score(1, 3) > s.score(1, 4));
        assert!(s.score(1, 4) > 0.0);
    }
}
