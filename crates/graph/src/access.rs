//! Neighbor-access abstraction over graph backings.
//!
//! [`NeighborAccess`] is the seam that lets the engines compute on a graph
//! without prescribing how its adjacency is resident: a fully materialised
//! CSR ([`DiGraph`]), or a compressed on-disk store that decodes neighbor
//! lists on demand (`ssr-store`'s random-access `.ssg` v2 reader). The
//! contract is deliberately small — degrees and per-node neighbor
//! enumeration, both directions — because that is all the SimRank\* kernels
//! consume: `Q` rows are in-neighbor lists, `Qᵀ` rows are out-neighbor
//! lists.
//!
//! **Determinism contract:** implementations must deliver neighbors in
//! strictly ascending id order, each exactly once, in the *original* id
//! space of the graph (a store holding a relabeled layout maps ids back
//! before yielding them). Engines rely on this to make results bitwise
//! independent of the backing.

use crate::{DiGraph, NodeId};

/// Uniform read access to a directed graph's adjacency, both directions.
///
/// Object-safe so engines can hold `Arc<dyn NeighborAccess>`; the hot
/// enumeration path takes a `&mut dyn FnMut` callback instead of returning
/// an iterator, which keeps per-node dispatch to one virtual call with no
/// boxing.
pub trait NeighborAccess: Send + Sync {
    /// Number of nodes `|V|`.
    fn node_count(&self) -> usize;

    /// Number of distinct directed edges `|E|`.
    fn edge_count(&self) -> usize;

    /// `|O(v)|`.
    fn out_degree(&self, v: NodeId) -> usize;

    /// `|I(v)|`.
    fn in_degree(&self, v: NodeId) -> usize;

    /// Calls `f` for every successor of `v`, ascending, each once.
    fn for_each_out(&self, v: NodeId, f: &mut dyn FnMut(NodeId));

    /// Calls `f` for every predecessor of `v`, ascending, each once.
    fn for_each_in(&self, v: NodeId, f: &mut dyn FnMut(NodeId));

    /// The sorted successor list as an owned vector (convenience wrapper
    /// over [`NeighborAccess::for_each_out`]).
    fn out_neighbors_vec(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.out_degree(v));
        self.for_each_out(v, &mut |w| out.push(w));
        out
    }

    /// The sorted predecessor list as an owned vector.
    fn in_neighbors_vec(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.in_degree(v));
        self.for_each_in(v, &mut |w| out.push(w));
        out
    }

    /// Bytes this backing holds resident in memory right now (CSR arrays
    /// for an in-memory graph; index + degree arrays for a store-backed
    /// reader — *not* the mapped file, which the OS pages).
    fn resident_bytes(&self) -> usize;
}

impl NeighborAccess for DiGraph {
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        DiGraph::edge_count(self)
    }

    fn out_degree(&self, v: NodeId) -> usize {
        DiGraph::out_degree(self, v)
    }

    fn in_degree(&self, v: NodeId) -> usize {
        DiGraph::in_degree(self, v)
    }

    fn for_each_out(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        for &w in self.out_neighbors(v) {
            f(w);
        }
    }

    fn for_each_in(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        for &w in self.in_neighbors(v) {
            f(w);
        }
    }

    fn resident_bytes(&self) -> usize {
        self.estimated_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digraph_access_matches_slices() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let a: &dyn NeighborAccess = &g;
        assert_eq!(a.node_count(), 4);
        assert_eq!(a.edge_count(), 4);
        for v in 0..4u32 {
            assert_eq!(a.out_neighbors_vec(v), g.out_neighbors(v));
            assert_eq!(a.in_neighbors_vec(v), g.in_neighbors(v));
            assert_eq!(a.out_degree(v), g.out_degree(v));
            assert_eq!(a.in_degree(v), g.in_degree(v));
        }
        assert_eq!(a.resident_bytes(), g.estimated_bytes());
    }
}
