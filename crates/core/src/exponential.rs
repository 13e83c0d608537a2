//! Exponential SimRank\*: the closed form of Theorem 3,
//!
//! ```text
//! Ŝ' = e^{−C} · e^{(C/2)·Q} · (e^{(C/2)·Q})ᵀ
//! ```
//!
//! computed through the coupled recurrence of Eq. (19):
//!
//! ```text
//! R_{k+1} = Q · R_k,      T_{k+1} = T_k + (C^k / (2^k · k!)) · R_k,
//! R_0 = I, T_0 = 0
//! ```
//!
//! so that `T_{K+1}` is the degree-`K` Taylor truncation of `e^{(C/2)Q}` and
//! `Ŝ'_K = e^{−C} · T T ᵀ`. The exponential length weight `C^l/l!` makes the
//! tail shrink as `C^{k+1}/(k+1)!` (Eq. 12) — far fewer iterations than the
//! geometric form for the same accuracy, which is the entire point of
//! *memo-eSR\** in the evaluation.
//!
//! Internally the state is kept transposed (`Rᵀ_{k+1} = Rᵀ_k Qᵀ`) so both
//! this module and [`crate::geometric`] share one kernel.

use crate::kernel::{CompressedRightMultiplier, PlainRightMultiplier, RightMultiplier};
use crate::{SimStarParams, SimilarityMatrix};
use ssr_compress::CompressOptions;
use ssr_graph::DiGraph;
use ssr_linalg::Dense;

/// Computes the degree-`K` truncation `Tᵀ = Σ_{i=0}^{K} ((C/2)Qᵀ)^i / i!` of
/// the matrix exponential, over an arbitrary kernel.
fn taylor_tt(kernel: &impl RightMultiplier, params: &SimStarParams) -> Dense {
    let n = kernel.node_count();
    let mut rt = Dense::identity(n); // Rᵀ_k
    let mut tt = Dense::zeros(n, n); // Tᵀ accumulator
    let mut coef = 1.0; // C^k / (2^k k!)
    let k_max = params.iterations;
    for k in 0..=k_max {
        tt.axpy(coef, &rt);
        if k < k_max {
            rt = kernel.apply(&rt);
            coef *= params.c / (2.0 * (k + 1) as f64);
        }
    }
    tt
}

/// Runs the exponential closed form over an arbitrary kernel.
pub fn closed_form_with_kernel(
    kernel: &impl RightMultiplier,
    params: &SimStarParams,
) -> SimilarityMatrix {
    params.validate();
    let tt = taylor_tt(kernel, params);
    // Ŝ' = e^{−C} · T Tᵀ = e^{−C} · (Tᵀ)ᵀ (Tᵀ).
    let t = tt.transpose();
    let mut s = t.matmul(&tt);
    s.scale((-params.c).exp());
    SimilarityMatrix::from_dense(s)
}

/// *eSR\**: exponential SimRank\* with the plain kernel.
pub fn closed_form(g: &DiGraph, params: &SimStarParams) -> SimilarityMatrix {
    closed_form_with_kernel(&PlainRightMultiplier::new(g), params)
}

/// Like [`closed_form_with_kernel`] but computes the final product
/// **threshold-sieved**: entries of the Taylor factor `T` below `delta` are
/// dropped before forming `T Tᵀ`, turning the dense `O(n³)` product into a
/// sparse outer-product accumulation of cost `Σ_a nnz(T[a,·])²`.
///
/// This mirrors the paper's protocol — all similarity values are clipped at
/// `10⁻⁴` for storage anyway (§5, Parameters), so sieving the factor loses
/// nothing the evaluation keeps. The entry-wise error is bounded by
/// `e^{−C}·δ·(2·max_a ‖T[a,·]‖₁ + δ·n)` — with `δ = 10⁻⁴` far below the
/// clipping threshold itself.
pub fn closed_form_sieved_with_kernel(
    kernel: &impl RightMultiplier,
    params: &SimStarParams,
    delta: f64,
) -> SimilarityMatrix {
    params.validate();
    assert!(delta >= 0.0, "threshold must be non-negative");
    let tt = taylor_tt(kernel, params);
    let n = kernel.node_count();
    // Sparse rows of Tᵀ (= columns of T): entry lists (index, value).
    let entry_lists: Vec<Vec<(u32, f64)>> = (0..n)
        .map(|a| {
            tt.row(a)
                .iter()
                .enumerate()
                .filter(|&(_, v)| v.abs() >= delta)
                .map(|(j, &v)| (j as u32, v))
                .collect()
        })
        .collect();
    let mut s = Dense::zeros(n, n);
    let scale = (-params.c).exp();
    let threads = ssr_linalg::available_threads();
    let rows_per = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        for (t, chunk) in s.as_mut_slice().chunks_mut(rows_per * n).enumerate() {
            let lo = (t * rows_per) as u32;
            let hi = lo + (chunk.len() / n) as u32;
            let lists = &entry_lists;
            scope.spawn(move || {
                // S[i][j] = scale · Σ_a T[i,a]·T[j,a] = Σ_a tt[a][i]·tt[a][j].
                for list in lists {
                    for &(i, vi) in list.iter().filter(|&&(i, _)| i >= lo && i < hi) {
                        let row = &mut chunk[(i - lo) as usize * n..((i - lo) as usize + 1) * n];
                        for &(j, vj) in list {
                            row[j as usize] += vi * vj;
                        }
                    }
                }
                for v in chunk.iter_mut() {
                    *v *= scale;
                }
            });
        }
    });
    SimilarityMatrix::from_dense(s)
}

/// *memo-eSR\**: exponential SimRank\* over the edge-concentrated kernel.
/// Construction is the compression phase; [`Memoized::run`] the update phase.
pub struct Memoized {
    kernel: CompressedRightMultiplier,
}

impl Memoized {
    /// Preprocessing phase: compress the induced bigraph.
    pub fn new(g: &DiGraph, opts: &CompressOptions) -> Self {
        Memoized { kernel: CompressedRightMultiplier::new(g, opts) }
    }

    /// Update phase: Taylor accumulation + final product.
    pub fn run(&self, params: &SimStarParams) -> SimilarityMatrix {
        closed_form_with_kernel(&self.kernel, params)
    }

    /// Update phase with the threshold-sieved final product (the paper's
    /// 10⁻⁴ clipping protocol); see [`closed_form_sieved_with_kernel`].
    pub fn run_sieved(&self, params: &SimStarParams, delta: f64) -> SimilarityMatrix {
        closed_form_sieved_with_kernel(&self.kernel, params, delta)
    }

    /// The underlying memoized kernel.
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
            DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2), (0, 3)]).unwrap(),
            DiGraph::from_edges(5, &[(2, 1), (1, 0), (2, 3), (3, 4)]).unwrap(),
            DiGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]).unwrap(),
        ]
    }

    #[test]
    fn closed_form_converges_to_series_limit() {
        // Theorem 3: at high truncation both the closed form and the literal
        // series converge to e^{−C}·e^{C/2 Q}·e^{C/2 Qᵀ}.
        for g in small_graphs() {
            let deep = SimStarParams { c: 0.6, iterations: 30 };
            let closed = closed_form(&g, &deep);
            let brute = series::exponential_partial_sum(&g, &deep);
            assert!(
                closed.matrix().approx_eq(&brute, 1e-9),
                "diff = {}",
                closed.matrix().max_diff(&brute)
            );
        }
    }

    #[test]
    fn truncation_error_respects_eq12() {
        // ‖Ŝ' − Ŝ'_k‖ ≤ C^{k+1}/(k+1)! — the closed form at truncation k
        // must be at least that close to the (effectively exact) k=30 run.
        let g = &small_graphs()[0];
        let c = 0.6;
        let exact = closed_form(g, &SimStarParams { c, iterations: 30 });
        for k in 1..8 {
            let sk = closed_form(g, &SimStarParams { c, iterations: k });
            let gap = exact.max_diff(&sk);
            // T T ᵀ squares the Taylor error; allow the cross terms:
            // ‖T Tᵀ − T_k T_kᵀ‖ ≤ 2‖T‖‖T−T_k‖ + ‖T−T_k‖², and the paper's
            // bound C^{k+1}/(k+1)! dominates both at these k. Use 3x slack.
            let bound = 3.0 * crate::convergence::exponential_bound(c, k);
            assert!(gap <= bound, "k={k}: gap {gap} > bound {bound}");
        }
    }

    #[test]
    fn memo_equals_plain() {
        for g in small_graphs() {
            let p = SimStarParams { c: 0.7, iterations: 8 };
            let plain = closed_form(&g, &p);
            let memo = Memoized::new(&g, &CompressOptions::default()).run(&p);
            assert!(plain.matrix().approx_eq(memo.matrix(), 1e-12));
        }
    }

    #[test]
    fn symmetric_and_bounded() {
        for g in small_graphs() {
            let s = closed_form(&g, &SimStarParams { c: 0.8, iterations: 12 });
            assert!(s.matrix().is_symmetric(1e-12));
            assert!(s.max_norm() <= 1.0 + 1e-9);
            for i in 0..g.node_count() {
                assert!(s.score(i as u32, i as u32) >= 0.0);
            }
        }
    }

    #[test]
    fn exponential_needs_fewer_iterations_than_geometric() {
        // Same ε: compare how close each form is to its own limit after k
        // iterations. The exponential form must reach ε=1e-3 earlier.
        let g = &small_graphs()[0];
        let c = 0.6;
        let geo_exact = crate::geometric::iterate(g, &SimStarParams { c, iterations: 60 });
        let exp_exact = closed_form(g, &SimStarParams { c, iterations: 30 });
        let eps = 1e-3;
        let mut k_geo = 0;
        while geo_exact
            .max_diff(&crate::geometric::iterate(g, &SimStarParams { c, iterations: k_geo }))
            > eps
        {
            k_geo += 1;
        }
        let mut k_exp = 0;
        while exp_exact.max_diff(&closed_form(g, &SimStarParams { c, iterations: k_exp })) > eps {
            k_exp += 1;
        }
        assert!(k_exp < k_geo, "exponential should converge faster: k_exp={k_exp}, k_geo={k_geo}");
    }

    #[test]
    fn zero_iterations_is_scaled_identity() {
        let g = &small_graphs()[1];
        let s = closed_form(g, &SimStarParams { c: 0.6, iterations: 0 });
        // T = I ⇒ Ŝ' = e^{−C}·I.
        assert!(s.matrix().approx_eq(&Dense::scaled_identity(5, (-0.6f64).exp()), 1e-12));
    }

    #[test]
    fn sieved_product_matches_exact_within_threshold() {
        for g in small_graphs() {
            let p = SimStarParams { c: 0.7, iterations: 10 };
            let exact = closed_form(&g, &p);
            let kernel = crate::kernel::PlainRightMultiplier::new(&g);
            // delta = 0 must be bit-compatible up to accumulation order.
            let zero = closed_form_sieved_with_kernel(&kernel, &p, 0.0);
            assert!(exact.matrix().approx_eq(zero.matrix(), 1e-12));
            // delta = 1e-4 stays within a small multiple of the threshold.
            let sieved = closed_form_sieved_with_kernel(&kernel, &p, 1e-4);
            assert!(
                exact.matrix().max_diff(sieved.matrix()) < 5e-3,
                "diff = {}",
                exact.matrix().max_diff(sieved.matrix())
            );
        }
    }

    #[test]
    fn zero_sim_pairs_fixed_like_geometric() {
        // The exponential variant must also see dissymmetric paths.
        let g = DiGraph::from_edges(5, &[(2, 1), (1, 0), (2, 3), (3, 4)]).unwrap();
        let s = closed_form(&g, &SimStarParams { c: 0.8, iterations: 10 });
        assert!(s.score(1, 4) > 0.0);
        assert!(s.score(1, 3) > s.score(1, 4));
    }
}
