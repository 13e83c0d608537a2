//! Output checks, run outside every timed window.
//!
//! * Served replies must equal, bit for bit, what an in-process
//!   deterministic `QueryEngine` computes on the graph of the reply's
//!   epoch (the epochs replay from the seeded write sequence).
//! * All-pairs rankings must match `QueryEngine::query` rows within
//!   [`ALLPAIRS_TOL`].

use crate::graph::Writes;
use crate::loadgen::TOP_K;
use simrank_star::{QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_graph::NodeId;
use std::collections::BTreeMap;

pub const ALLPAIRS_TOL: f64 = 1e-10;

/// `simstar serve`'s defaults: c = 0.6, k = 5.
pub fn serve_params() -> SimStarParams {
    SimStarParams { c: 0.6, iterations: 5 }
}

/// The engine options the server forces on every snapshot.
pub fn serve_engine_options() -> QueryEngineOptions {
    QueryEngineOptions { deterministic: true, ..QueryEngineOptions::default() }
}

/// Whether two rankings are identical, ids and score bits alike.
pub fn same_bits(got: &[(NodeId, f64)], want: &[(NodeId, f64)]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// One served reply kept for checking.
pub struct Sample {
    pub node: NodeId,
    pub epoch: u64,
    pub matches: Vec<(NodeId, f64)>,
}

/// Checks served replies against deterministic reference engines, one
/// per distinct epoch. Returns how many were wrong and why.
pub fn check_replies(writes: &Writes, samples: &[Sample]) -> Result<(usize, Vec<String>), String> {
    let mut by_epoch: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in samples {
        by_epoch.entry(s.epoch).or_default().push(s);
    }
    let mut wrong = 0;
    let mut why = Vec::new();
    for (epoch, group) in by_epoch {
        let g = writes.graph_at(epoch)?;
        let engine = QueryEngine::with_options(&g, serve_params(), serve_engine_options());
        for s in group {
            if s.node as usize >= g.node_count() {
                wrong += 1;
                why.push(format!("node {} out of range at epoch {epoch}", s.node));
                continue;
            }
            let want = engine.top_k_batch(&[s.node], TOP_K).remove(0);
            if !same_bits(&s.matches, &want) {
                wrong += 1;
                why.push(format!(
                    "node {} at epoch {epoch}: got {:?}, want {want:?}",
                    s.node, s.matches
                ));
            }
        }
    }
    Ok((wrong, why))
}

/// Checks one all-pairs ranking of row `q` against its full score row.
pub fn check_ranking(
    q: NodeId,
    got: &[(NodeId, f64)],
    row: &[f64],
    k: usize,
) -> Result<(), String> {
    let mut want: Vec<f64> =
        row.iter().enumerate().filter(|&(v, _)| v != q as usize).map(|(_, &s)| s).collect();
    want.sort_by(|a, b| b.total_cmp(a));
    want.truncate(k);
    if got.len() != want.len() {
        return Err(format!("row {q}: {} matches, want {}", got.len(), want.len()));
    }
    for (i, (&(v, s), w)) in got.iter().zip(&want).enumerate() {
        if v == q || (s - row[v as usize]).abs() > ALLPAIRS_TOL || (s - w).abs() > ALLPAIRS_TOL {
            return Err(format!("row {q} rank {i}: got ({v}, {s}), reference score {w}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Writes;

    fn small() -> ssr_graph::DiGraph {
        ssr_gen::citation::citation_graph(
            ssr_gen::citation::CitationParams { nodes: 400, ..Default::default() },
            11,
        )
    }

    #[test]
    fn reply_check_catches_one_flipped_score_bit() {
        let g = small();
        let writes = Writes::new(&g, 2, 3);
        let engine = QueryEngine::with_options(
            &writes.graph_at(2).unwrap(),
            serve_params(),
            serve_engine_options(),
        );
        let good = engine.top_k_batch(&[17], TOP_K).remove(0);
        let sample = |matches| Sample { node: 17, epoch: 2, matches };
        assert_eq!(check_replies(&writes, &[sample(good.clone())]).unwrap().0, 0);
        let mut flipped = good.clone();
        flipped[3].1 = f64::from_bits(flipped[3].1.to_bits() ^ 1);
        assert_eq!(check_replies(&writes, &[sample(flipped)]).unwrap().0, 1);
    }

    #[test]
    fn ranking_check_tolerates_rounding_but_not_errors() {
        let g = small();
        let engine = QueryEngine::new(&g, serve_params());
        let row = engine.query(5);
        let got = engine.top_k(5, TOP_K);
        assert!(check_ranking(5, &got, &row, TOP_K).is_ok());
        let mut nudged = got.clone();
        nudged[0].1 += 1e-12;
        assert!(check_ranking(5, &nudged, &row, TOP_K).is_ok());
        let mut bad = got.clone();
        bad[2].1 += 1e-6;
        assert!(check_ranking(5, &bad, &row, TOP_K).is_err());
        assert!(check_ranking(5, &got[..3], &row, TOP_K).is_err());
    }
}
