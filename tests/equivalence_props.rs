//! Property-based equivalence tests across crates: on arbitrary random
//! graphs, every fast path must agree with its reference form, and the
//! paper's theorems must hold numerically.

use proptest::prelude::*;
use simrank_star::{exponential, geometric, series, SimStarParams};
use ssr_compress::{compress_with_bicliques, CompressOptions};
use ssr_graph::paths::ZeroSimRankOracle;
use ssr_graph::DiGraph;

/// Strategy: a random digraph with up to `max_n` nodes and a density knob.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2usize..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..=max_m).prop_map(
            move |mut edges| {
                edges.retain(|(u, v)| u != v);
                DiGraph::from_edges(n, &edges).expect("in-range edges")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 4: the geometric recurrence equals the literal series at every
    /// truncation.
    #[test]
    fn geometric_recurrence_equals_series(g in arb_graph(9, 24), k in 0usize..5) {
        let p = SimStarParams { c: 0.65, iterations: k };
        let fast = geometric::iterate(&g, &p);
        let brute = series::geometric_partial_sum(&g, &p);
        prop_assert!(fast.matrix().approx_eq(&brute, 1e-9));
    }

    /// Algorithm 1: memoized and plain geometric SimRank* agree exactly.
    #[test]
    fn memo_equals_iter(g in arb_graph(16, 60), k in 1usize..7) {
        let p = SimStarParams { c: 0.6, iterations: k };
        let plain = geometric::iterate(&g, &p);
        let memo = geometric::Memoized::new(&g, &CompressOptions::default()).run(&p);
        prop_assert!(plain.matrix().approx_eq(memo.matrix(), 1e-11));
    }

    /// memo-eSR* equals eSR*.
    #[test]
    fn memo_exponential_equals_plain(g in arb_graph(14, 50), k in 1usize..7) {
        let p = SimStarParams { c: 0.6, iterations: k };
        let plain = exponential::closed_form(&g, &p);
        let memo = exponential::Memoized::new(&g, &CompressOptions::default()).run(&p);
        prop_assert!(plain.matrix().approx_eq(memo.matrix(), 1e-11));
    }

    /// Output invariants: symmetry, range [0, 1], diagonal dominance of rows.
    #[test]
    fn simrank_star_invariants(g in arb_graph(14, 60)) {
        let s = geometric::iterate(&g, &SimStarParams { c: 0.8, iterations: 8 });
        prop_assert!(s.matrix().is_symmetric(1e-10));
        prop_assert!(s.max_norm() <= 1.0 + 1e-9);
        for i in 0..g.node_count() as u32 {
            for j in 0..g.node_count() as u32 {
                prop_assert!(s.score(i, j) >= -1e-15);
                prop_assert!(s.score(i, i) >= s.score(i, j) - 1e-12);
            }
        }
    }

    /// Lemma 3: the distance between consecutive deep iterates obeys the
    /// geometric tail bound.
    #[test]
    fn convergence_bound_holds(g in arb_graph(10, 40)) {
        let c = 0.7;
        let deep = geometric::iterate(&g, &SimStarParams { c, iterations: 40 });
        for k in [0usize, 2, 4, 6] {
            let sk = geometric::iterate(&g, &SimStarParams { c, iterations: k });
            let gap = deep.max_diff(&sk);
            prop_assert!(
                gap <= simrank_star::convergence::geometric_bound(c, k) + 1e-9,
                "k={k}: gap {gap}"
            );
        }
    }

    /// Compression round-trip: the compressed graph reproduces every
    /// in-neighbor set exactly, and never has more edges than the original.
    #[test]
    fn compression_roundtrip(g in arb_graph(24, 140)) {
        let (cg, bicliques) = compress_with_bicliques(&g, &CompressOptions::default());
        for v in g.nodes() {
            prop_assert_eq!(cg.decompress_in_neighbors(v), g.in_neighbors(v).to_vec());
        }
        prop_assert!(cg.compressed_edge_count() <= g.edge_count());
        // Every mined biclique is genuine: tops ⊆ I(y) for all bottoms y.
        for b in &bicliques {
            for &y in &b.bottoms {
                for &t in &b.tops {
                    prop_assert!(g.in_neighbors(y).binary_search(&t).is_ok());
                }
            }
        }
    }

    /// Theorem 1, both directions, via the exact pair-graph oracle:
    /// SimRank(a,b) > 0 ⟺ a symmetric in-link path exists.
    #[test]
    fn theorem1_zero_simrank(g in arb_graph(9, 22)) {
        let oracle = ZeroSimRankOracle::build(&g);
        let s = ssr_baselines::simrank::simrank(&g, 0.8, 2 * g.node_count());
        for a in 0..g.node_count() as u32 {
            for b in 0..g.node_count() as u32 {
                if a == b { continue; }
                if oracle.is_nonzero(a, b) {
                    prop_assert!(s.score(a, b) > 0.0, "({a},{b}) should be > 0");
                } else {
                    prop_assert_eq!(s.score(a, b), 0.0, "({},{}) should be 0", a, b);
                }
            }
        }
    }

    /// SimRank* dominates SimRank's support: wherever SimRank is non-zero,
    /// SimRank* is too (it aggregates a superset of in-link paths).
    #[test]
    fn star_support_superset(g in arb_graph(10, 30)) {
        let k = 2 * g.node_count();
        let sr = ssr_baselines::simrank::simrank(&g, 0.8, k);
        let star = geometric::iterate(&g, &SimStarParams { c: 0.8, iterations: k });
        for a in 0..g.node_count() as u32 {
            for b in 0..g.node_count() as u32 {
                if sr.score(a, b) > 1e-12 {
                    prop_assert!(star.score(a, b) > 0.0, "({a},{b})");
                }
            }
        }
    }
}
