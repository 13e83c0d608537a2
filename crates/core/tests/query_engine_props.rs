//! Property tests pinning the query engine's execution paths
//! (sparse-frontier, dense fallback, one lane and batched lanes, memory and
//! access backings) to the dense reference sweep, — via Lemma 4 — to the
//! corresponding row of the all-pairs geometric iteration, and to the
//! Sylvester fixed point, plus every top-k path against the full-row sort.

use proptest::prelude::*;
use simrank_star::convergence::geometric_bound;
use simrank_star::exact::solve_exact;
use simrank_star::single_source::{single_source_dense, single_source_exponential_dense};
use simrank_star::{
    geometric, AllPairsEngine, AllPairsOptions, QueryEngine, QueryEngineOptions, SeriesKind,
    SimStarParams,
};
use ssr_graph::{DiGraph, NeighborAccess, NodeId};
use std::sync::Arc;

fn arb_graph_and_query(
    max_n: usize,
    max_m: usize,
) -> impl Strategy<Value = (usize, Vec<(u32, u32)>, u32)> {
    (2usize..=max_n).prop_flat_map(move |n| {
        (proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m), 0..n as u32)
            .prop_map(move |(edges, q)| (n, edges, q))
    })
}

fn build(n: usize, edges: &[(u32, u32)]) -> DiGraph {
    DiGraph::from_edges(n, edges).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sparse-frontier sweep == dense sweep == all-pairs row (Lemma 4 pin).
    #[test]
    fn sparse_matches_dense_and_matrix((n, edges, q) in arb_graph_and_query(18, 60)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let engine = QueryEngine::new(&g, p);
        let sparse = engine.query(q);
        let dense = single_source_dense(&g, q, &p);
        let full = geometric::iterate(&g, &p);
        for v in 0..n {
            prop_assert!((sparse[v] - dense[v]).abs() < 1e-10, "v={v}");
            prop_assert!((sparse[v] - full.score(q, v as NodeId)).abs() < 1e-10, "v={v}");
        }
    }

    /// Exponential-kind engine == exponential dense sweep.
    #[test]
    fn exponential_sparse_matches_dense((n, edges, q) in arb_graph_and_query(14, 50)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.6, iterations: 5 };
        let opts = QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() };
        let engine = QueryEngine::with_options(&g, p, opts);
        let sparse = engine.query(q);
        let dense = single_source_exponential_dense(&g, q, &p);
        for v in 0..n {
            prop_assert!((sparse[v] - dense[v]).abs() < 1e-10, "v={v}");
        }
    }

    /// Batched rows == dense sweep == all-pairs rows.
    #[test]
    fn batched_matches_dense_and_matrix((n, edges, _q) in arb_graph_and_query(14, 50)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 5 };
        let full = geometric::iterate(&g, &p);
        let queries: Vec<NodeId> = (0..n as NodeId).collect();
        let batch = QueryEngine::new(&g, p).query_batch(&queries);
        for (i, &q) in queries.iter().enumerate() {
            let dense = single_source_dense(&g, q, &p);
            let row = batch.row(i);
            for v in 0..n {
                prop_assert!((row[v] - dense[v]).abs() < 1e-10, "q={q}, v={v}");
                prop_assert!((row[v] - full.score(q, v as NodeId)).abs() < 1e-10, "q={q}, v={v}");
            }
        }
    }

    /// The default engine's dense fallback (small graphs pass the n/8 solo
    /// and n/4 batched cutoffs within a step) matches the never-dense
    /// deterministic engine and the dense reference, at both lane widths.
    #[test]
    fn dense_fallback_matches_sparse((n, edges, q) in arb_graph_and_query(14, 50)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.8, iterations: 5 };
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let fast = QueryEngine::new(&g, p);
        let det = QueryEngine::with_options(
            &g,
            p,
            QueryEngineOptions { deterministic: true, ..Default::default() },
        );
        let dense = single_source_dense(&g, q, &p);
        for engine in [&fast, &det] {
            let batch = engine.query_batch(&all);
            for row in [engine.query(q).as_slice(), batch.row(q as usize)] {
                for v in 0..n {
                    prop_assert!((row[v] - dense[v]).abs() < 1e-10, "v={v}");
                }
            }
        }
        prop_assert_eq!(det.stats().dense_steps, 0);
    }

    /// Top-k by partial selection == full-row sort on ties-free scores.
    /// (The shared descending-score / ascending-id comparator is a total
    /// order, so the equality in fact holds with ties too; the filter to
    /// ties-free rows keeps the property's claim independent of that rule.)
    #[test]
    fn top_k_matches_full_sort((n, edges, q) in arb_graph_and_query(16, 60)) {
        let g = build(n, &edges);
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let engine = QueryEngine::new(&g, p);
        let row = engine.query(q);
        let mut sorted: Vec<(NodeId, f64)> = row
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != q as usize)
            .map(|(v, &s)| (v as NodeId, s))
            .collect();
        sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for k in [1usize, 3, n / 2, n] {
            let fast = engine.top_k(q, k);
            let want = &sorted[..k.min(sorted.len())];
            prop_assert_eq!(fast.len(), want.len());
            for (got, exp) in fast.iter().zip(want) {
                prop_assert_eq!(got.0, exp.0, "k={}", k);
                prop_assert!((got.1 - exp.1).abs() < 1e-12);
            }
        }
    }
}

/// A graph with several weakly-connected components (edges only join
/// nodes of equal residue mod 3) and two isolated nodes at the end.
fn arb_component_graph() -> impl Strategy<Value = DiGraph> {
    (5usize..=20).prop_flat_map(|n| {
        let m = n as u32 - 2;
        proptest::collection::vec((0..m, 0..m), 0..=3 * n).prop_map(move |edges| {
            let kept: Vec<(u32, u32)> =
                edges.into_iter().filter(|&(a, b)| a % 3 == b % 3).collect();
            build(n, &kept)
        })
    })
}

/// The first `k` of `row` without `q`, fully sorted by descending score
/// then ascending id, with scores as raw bits.
fn full_sort(row: &[f64], q: NodeId, k: usize) -> Vec<(NodeId, u64)> {
    let mut all: Vec<(NodeId, f64)> = row
        .iter()
        .enumerate()
        .filter(|&(v, _)| v != q as usize)
        .map(|(v, &s)| (v as NodeId, s))
        .collect();
    all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    bits(&all[..k.min(all.len())])
}

fn bits(ranked: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
    ranked.iter().map(|&(v, s)| (v, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every top-k path ranks straight off the folded frontier (sparse
    /// support + zero fill, or the dense lane) and must equal, bit for
    /// bit, the full sort of the row the same path computes: `query(q)`
    /// for `top_k` and a batch of one, the batch rows for `top_k_batch`,
    /// and `rows` for the all-pairs `top_k` (default engines prune and
    /// densify per lane width, so each width is its own oracle; the
    /// deterministic engines' rows are width-independent, pinned too).
    /// `k` runs past `n`, so the zero fill runs out of nodes.
    #[test]
    fn top_k_paths_match_full_sort_bit_for_bit(g in arb_component_graph()) {
        let n = g.node_count();
        let p = SimStarParams { c: 0.7, iterations: 6 };
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let access: Arc<dyn NeighborAccess> = Arc::new(g.clone());
        let det = QueryEngineOptions { deterministic: true, ..Default::default() };
        let engines = [
            QueryEngine::new(&g, p),
            QueryEngine::with_options(&g, p, det.clone()),
            QueryEngine::with_access(access.clone(), p, QueryEngineOptions::default()),
            QueryEngine::with_access(access.clone(), p, det),
        ];
        let all_pairs = [
            AllPairsEngine::new(&g, p),
            AllPairsEngine::with_access(access, p, AllPairsOptions::default()),
        ];
        for k in 0..=n + 2 {
            for e in &engines {
                let rows = e.query_batch(&all);
                let batch = e.top_k_batch(&all, k);
                for &q in &all {
                    let row = e.query(q);
                    let want = full_sort(&row, q, k);
                    prop_assert_eq!(&bits(&e.top_k(q, k)), &want, "top_k q={} k={}", q, k);
                    prop_assert_eq!(&bits(&e.top_k_batch(&[q], k)[0]), &want, "batch of one");
                    let batch_row = rows.row(q as usize);
                    prop_assert_eq!(&bits(&batch[q as usize]), &full_sort(batch_row, q, k));
                    if e.options().deterministic {
                        prop_assert_eq!(row.as_slice(), batch_row);
                    }
                }
            }
            for ap in &all_pairs {
                let rows = ap.rows(&all);
                let ranked = ap.top_k(&all, k);
                for &q in &all {
                    let want = full_sort(rows.row(q as usize), q, k);
                    prop_assert_eq!(&bits(&ranked[q as usize]), &want, "all-pairs q={} k={}", q, k);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Third oracle: at a depth `K` whose geometric tail bound `C^{K+1}`
    /// (Lemma 3) is below 1e-8, one-lane and batched rows on both backings
    /// lie within that bound (plus float slack) of the exact Sylvester
    /// fixed point.
    #[test]
    fn rows_converge_to_sylvester_fixed_point((n, edges, _q) in arb_graph_and_query(14, 50)) {
        let g = build(n, &edges);
        let c = 0.6;
        let k = (0..).find(|&k| geometric_bound(c, k) < 1e-8).expect("bound decays");
        let p = SimStarParams { c, iterations: k };
        let tol = geometric_bound(c, k) + 1e-12;
        let exact = solve_exact(&g, &p);
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let access: Arc<dyn NeighborAccess> = Arc::new(g.clone());
        for engine in [
            QueryEngine::new(&g, p),
            QueryEngine::with_access(access, p, QueryEngineOptions::default()),
        ] {
            let batch = engine.query_batch(&all);
            for &q in &all {
                for row in [engine.query(q).as_slice(), batch.row(q as usize)] {
                    for (v, &got) in row.iter().enumerate() {
                        let want = exact.score(q, v as NodeId);
                        prop_assert!((got - want).abs() <= tol,
                            "access={}, q={q}, v={v}: {got} vs {want}", engine.is_access_backed());
                    }
                }
            }
        }
    }
}
