//! The benchmark's one input graph, its store file, and the seeded
//! write sequence whose epochs the output check replays.

use crate::rng::Rng;
use ssr_graph::components::weakly_connected_components;
use ssr_graph::{DiGraph, NodeId};
use std::collections::HashSet;
use std::path::Path;

/// Papers in the citation stand-in (CitHepTh/2).
pub const NODES: usize = 16_500;
/// Target citation count.
pub const EDGES: usize = 206_000;
/// Edges each write adds (and the next write removes again).
pub const DELTA_EDGES: usize = 8;

/// The `ssr_gen` citation graph for `seed`, checked to be one weakly
/// connected component.
pub fn generate(seed: u64) -> Result<DiGraph, String> {
    let g = ssr_gen::citation::citation_graph(
        ssr_gen::citation::CitationParams {
            nodes: NODES,
            avg_out_degree: EDGES as f64 / NODES as f64,
            ..Default::default()
        },
        Rng::stream(seed, "graph").next_u64(),
    );
    let wcc = weakly_connected_components(&g).count;
    if wcc != 1 {
        return Err(format!("generated graph has {wcc} weakly connected components, expected 1"));
    }
    Ok(g)
}

/// Writes `g` as a v2 `.ssg` store; returns its size in bytes.
pub fn write_store(g: &DiGraph, path: &Path) -> Result<u64, String> {
    ssr_store::StoreWriter::new(g)
        .meta(ssr_store::meta_keys::BUILD, "perfbench citation stand-in")
        .write_file(path)
        .map_err(|e| format!("writing store {}: {e}", path.display()))
}

/// An edge list.
pub type Edges = Vec<(NodeId, NodeId)>;

/// The write sequence: write `i` (1-based) adds `adds[i - 1]` and removes
/// `adds[i - 2]`, so after write `i` the graph is `base ∪ adds[i - 1]`
/// and the edge count never drifts.
pub struct Writes {
    base: Edges,
    n: usize,
    adds: Vec<Edges>,
}

impl Writes {
    pub fn new(base: &DiGraph, count: usize, seed: u64) -> Writes {
        let edges: Edges = base.edges().collect();
        let present: HashSet<(NodeId, NodeId)> = edges.iter().copied().collect();
        let mut rng = Rng::stream(seed, "writes");
        let n = base.node_count() as u64;
        let mut adds: Vec<Edges> = Vec::with_capacity(count);
        for i in 0..count {
            let mut batch: Edges = Vec::with_capacity(DELTA_EDGES);
            while batch.len() < DELTA_EDGES {
                // A citation points from a newer paper to an older one.
                let u = 1 + rng.below(n - 1) as NodeId;
                let v = rng.below(u as u64) as NodeId;
                let e = (u, v);
                let in_prev = i > 0 && adds[i - 1].contains(&e);
                if !present.contains(&e) && !batch.contains(&e) && !in_prev {
                    batch.push(e);
                }
            }
            adds.push(batch);
        }
        Writes { base: edges, n: base.node_count(), adds }
    }

    pub fn len(&self) -> usize {
        self.adds.len()
    }

    /// `(add, remove)` of write `i` (1-based).
    pub fn delta(&self, i: usize) -> (Edges, Edges) {
        let add = self.adds[i - 1].clone();
        let remove = if i >= 2 { self.adds[i - 2].clone() } else { Vec::new() };
        (add, remove)
    }

    /// The graph the server holds at `epoch` (epoch `i` follows write `i`).
    pub fn graph_at(&self, epoch: u64) -> Result<DiGraph, String> {
        let mut edges = self.base.clone();
        if epoch > 0 {
            let adds = self
                .adds
                .get(epoch as usize - 1)
                .ok_or_else(|| format!("epoch {epoch} is past the write sequence"))?;
            edges.extend_from_slice(adds);
        }
        DiGraph::from_edges(self.n, &edges).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_keep_the_edge_count_and_replay_by_epoch() {
        let base = ssr_gen::citation::citation_graph(
            ssr_gen::citation::CitationParams { nodes: 300, ..Default::default() },
            5,
        );
        let w = Writes::new(&base, 4, 9);
        let m = base.edge_count();
        assert_eq!(w.graph_at(0).unwrap().edge_count(), m);
        for e in 1..=4 {
            assert_eq!(w.graph_at(e).unwrap().edge_count(), m + DELTA_EDGES);
            let (add, remove) = w.delta(e as usize);
            assert_eq!(add.len(), DELTA_EDGES);
            assert_eq!(remove.len(), if e == 1 { 0 } else { DELTA_EDGES });
        }
        let again = Writes::new(&base, 4, 9);
        assert_eq!(again.delta(3), w.delta(3));
    }
}
