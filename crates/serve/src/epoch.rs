//! Epoch snapshots: the server's graph + prepared [`QueryEngine`] state
//! behind an atomically swappable handle.
//!
//! A [`Snapshot`] is immutable once published; queries clone the `Arc` and
//! keep computing on it even while an admin `reload`/`edge-delta` builds
//! and publishes a successor — the HTAP-style separation (update path vs
//! read-optimized serving path) that lets graph swaps happen with zero
//! read downtime. The epoch counter is part of every result-cache key and
//! every query response, so answers are always attributable to the exact
//! graph version that produced them.
//!
//! With sharding ([`EpochStore::with_shards`]) a snapshot holds one
//! deterministic sub-engine per shard plus the [`ShardPlan`] that placed
//! whole weakly-connected components onto shards. Epoch semantics are
//! unchanged by distribution: a reload/delta rebuilds **all** shard
//! engines first and then publishes them behind the *single* snapshot
//! pointer swap, so no reader can ever observe shards from two different
//! epochs — the zero-stale-epoch guarantee holds per snapshot, not per
//! shard.

use simrank_star::{QueryEngine, QueryEngineOptions, SimStarParams};
use ssr_graph::components::weakly_connected_components;
use ssr_graph::{pack_components, DiGraph, NodeId, ShardPlan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One shard's slice of a snapshot: a deterministic sub-engine over the
/// shard's induced subgraph plus the local → global id mapping.
pub struct ShardSlice {
    /// The shard's prepared sub-engine (whole-graph engine for
    /// single-shard snapshots).
    pub engine: Arc<QueryEngine>,
    /// Ascending global node ids owned by this shard; index = shard-local
    /// id. Empty (and unused) for single-shard snapshots, whose engine
    /// already speaks global ids.
    pub nodes: Arc<Vec<NodeId>>,
}

/// One published graph version: engine state shared by every query that
/// started while it was current.
pub struct Snapshot {
    /// Monotonically increasing version number, starting at 0.
    pub epoch: u64,
    /// Per-shard engine slices (cheap to share: queries only touch
    /// immutable state plus internal scratch pools). Length 1 without
    /// sharding.
    pub shards: Vec<ShardSlice>,
    /// Component-to-shard placement; `None` for single-shard snapshots
    /// (identity routing).
    pub plan: Option<Arc<ShardPlan>>,
    /// The snapshot's edge list (deduplicated, as built), kept so
    /// `edge-delta` can derive the successor graph without re-reading
    /// files.
    pub edges: Arc<Vec<(NodeId, NodeId)>>,
    /// Node count of the snapshot's graph.
    pub nodes: usize,
    /// Stable result-identity key: params ⊕ engine options (see
    /// [`SimStarParams::stable_key`]); part of every cache key so entries
    /// from one configuration are never served for another.
    pub params_key: u64,
}

impl Snapshot {
    /// Number of shards this snapshot was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The whole-graph engine of a **single-shard** snapshot. Panics on a
    /// sharded snapshot — no whole-graph engine exists there; go through
    /// the router's scatter-gather instead.
    pub fn engine(&self) -> &Arc<QueryEngine> {
        assert!(self.plan.is_none(), "sharded snapshot has no whole-graph engine");
        &self.shards[0].engine
    }

    /// The cache-shard routing hint for `node`: its owning engine shard
    /// when sharded (so one graph shard's entries concentrate on its own
    /// cache shards), `None` for the hash-spread single-shard default.
    pub fn cache_route(&self, node: NodeId) -> Option<usize> {
        self.plan.as_deref().map(|p| p.owner(node))
    }
}

/// The swappable current-snapshot cell plus the serialized admin path.
pub struct EpochStore {
    /// Readers take the lock only long enough to clone the `Arc`.
    current: RwLock<Arc<Snapshot>>,
    /// Serializes mutations so concurrent deltas can't lose updates; held
    /// across the (potentially slow) engine build, while readers keep
    /// going on the old snapshot.
    admin: Mutex<()>,
    swaps: AtomicU64,
    params: SimStarParams,
    opts: QueryEngineOptions,
    shards: usize,
}

impl EpochStore {
    /// Builds epoch 0 from `graph` with a single whole-graph engine.
    /// `opts.deterministic` is forced on: the serving layer's cache
    /// coherence depends on batch-composition independence (see
    /// [`QueryEngineOptions::deterministic`]).
    pub fn new(graph: DiGraph, params: SimStarParams, opts: QueryEngineOptions) -> Self {
        Self::with_shards(graph, params, opts, 1)
    }

    /// Builds epoch 0 partitioned across `shards` engine workers (clamped
    /// to ≥ 1; `1` is exactly [`EpochStore::new`]). Every published epoch
    /// — initial, reload, delta — re-partitions its graph and rebuilds
    /// all shard engines before the one atomic snapshot swap.
    pub fn with_shards(
        graph: DiGraph,
        params: SimStarParams,
        mut opts: QueryEngineOptions,
        shards: usize,
    ) -> Self {
        opts.deterministic = true;
        let shards = shards.max(1);
        let snapshot = build_snapshot(0, graph, params, &opts, shards);
        EpochStore {
            current: RwLock::new(Arc::new(snapshot)),
            admin: Mutex::new(()),
            swaps: AtomicU64::new(0),
            params,
            opts,
            shards,
        }
    }

    /// The current snapshot (an `Arc` clone; never blocks on publishes
    /// beyond the brief pointer swap).
    pub fn current(&self) -> Arc<Snapshot> {
        self.current.read().expect("epoch cell poisoned").clone()
    }

    /// Number of epoch swaps published so far.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// The parameters every snapshot is built with.
    pub fn params(&self) -> SimStarParams {
        self.params
    }

    /// The shard count every snapshot is partitioned into (1 = unsharded).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Builds a snapshot from `graph` and publishes it as the next epoch.
    /// In-flight queries keep their old snapshot; new queries see the new
    /// one as soon as this returns.
    pub fn publish(&self, graph: DiGraph) -> Arc<Snapshot> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let next_epoch = self.current().epoch + 1;
        let snapshot =
            Arc::new(build_snapshot(next_epoch, graph, self.params, &self.opts, self.shards));
        *self.current.write().expect("epoch cell poisoned") = snapshot.clone();
        self.swaps.fetch_add(1, Ordering::Relaxed);
        snapshot
    }

    /// Applies an edge delta to the current snapshot's graph and publishes
    /// the result. Added edges may grow the node range; removals of absent
    /// edges are ignored. Returns the new snapshot and the number of edges
    /// actually added/removed.
    pub fn apply_delta(
        &self,
        add: &[(NodeId, NodeId)],
        remove: &[(NodeId, NodeId)],
    ) -> Result<(Arc<Snapshot>, usize, usize), String> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        let base = self.current();
        let removals: std::collections::HashSet<(NodeId, NodeId)> =
            remove.iter().copied().collect();
        let mut edges: Vec<(NodeId, NodeId)> =
            base.edges.iter().copied().filter(|e| !removals.contains(e)).collect();
        let removed = base.edges.len() - edges.len();
        edges.extend(add.iter().copied());
        let n = edges
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .map(|v| v as usize + 1)
            .max()
            .unwrap_or(0)
            .max(base.nodes);
        let graph = DiGraph::from_edges(n, &edges).map_err(|e| format!("bad delta: {e}"))?;
        let snapshot =
            Arc::new(build_snapshot(base.epoch + 1, graph, self.params, &self.opts, self.shards));
        // `from_edges` deduplicates, so the net addition count comes from
        // the built snapshot, not from `add.len()`.
        let added = (snapshot.edges.len() + removed).saturating_sub(base.edges.len());
        *self.current.write().expect("epoch cell poisoned") = snapshot.clone();
        self.swaps.fetch_add(1, Ordering::Relaxed);
        Ok((snapshot, added, removed))
    }
}

fn build_snapshot(
    epoch: u64,
    graph: DiGraph,
    params: SimStarParams,
    opts: &QueryEngineOptions,
    shards: usize,
) -> Snapshot {
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let params_key = combine_keys(params.stable_key(), opts.stable_key());
    let nodes = graph.node_count();
    let (plan, shard_slices) = if shards <= 1 {
        let slice = ShardSlice {
            engine: Arc::new(QueryEngine::with_options(&graph, params, opts.clone())),
            nodes: Arc::new(Vec::new()),
        };
        (None, vec![slice])
    } else {
        let plan = pack_components(&weakly_connected_components(&graph), shards);
        // All shard engines build before the caller publishes anything —
        // the single pointer swap is what keeps epochs atomic across
        // shards. Builds are independent, so they run concurrently.
        let slices = std::thread::scope(|scope| {
            let handles: Vec<_> = plan
                .nodes
                .iter()
                .map(|owned| {
                    let graph = &graph;
                    scope.spawn(move || {
                        QueryEngine::for_node_subset(graph, owned, params, opts.clone())
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(&plan.nodes)
                .map(|(h, owned)| ShardSlice {
                    engine: Arc::new(h.join().expect("shard engine build panicked")),
                    nodes: Arc::new(owned.clone()),
                })
                .collect()
        });
        (Some(Arc::new(plan)), slices)
    };
    Snapshot { epoch, shards: shard_slices, plan, edges: Arc::new(edges), nodes, params_key }
}

/// Mixes the two stable keys into one (boost-style combine; both halves
/// are already FNV digests).
fn combine_keys(a: u64, b: u64) -> u64 {
    a ^ (b.wrapping_add(0x9e37_79b9_7f4a_7c15).wrapping_add(a << 6).wrapping_add(a >> 2))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> EpochStore {
        let g = DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
        EpochStore::new(g, SimStarParams::default(), QueryEngineOptions::default())
    }

    #[test]
    fn epochs_start_at_zero_and_increase() {
        let s = store();
        assert_eq!(s.current().epoch, 0);
        let g2 = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let snap = s.publish(g2);
        assert_eq!(snap.epoch, 1);
        assert_eq!(s.current().epoch, 1);
        assert_eq!(s.current().nodes, 3);
        assert_eq!(s.swap_count(), 1);
    }

    #[test]
    fn old_snapshot_survives_a_publish() {
        let s = store();
        let old = s.current();
        let g2 = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        s.publish(g2);
        // The retained handle still answers queries on the old graph.
        assert_eq!(old.epoch, 0);
        assert_eq!(old.engine().node_count(), 4);
        assert!(old.engine().query(1)[2] > 0.0);
    }

    #[test]
    fn delta_adds_removes_and_grows_node_range() {
        let s = store();
        let (snap, added, removed) = s.apply_delta(&[(4, 0), (5, 0)], &[(3, 2)]).unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.nodes, 6);
        assert_eq!(added, 2);
        assert_eq!(removed, 1);
        assert!(snap.edges.contains(&(4, 0)));
        assert!(!snap.edges.contains(&(3, 2)));
        // Removing an absent edge is a no-op, not an error.
        let (_, added, removed) = s.apply_delta(&[], &[(9, 9)]).unwrap();
        assert_eq!((added, removed), (0, 0));
    }

    #[test]
    fn snapshots_use_deterministic_engines() {
        let s = store();
        let snap = s.current();
        let engine = snap.engine();
        assert!(engine.options().deterministic);
        // Deterministic engines never prune or densify, so a solo query and
        // a batch lane agree bit for bit.
        assert_eq!(engine.query(1).as_slice(), engine.query_batch(&[1]).row(0));
        assert_eq!(engine.stats().dense_steps, 0);
    }

    #[test]
    fn params_key_changes_with_params() {
        let g = || DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let a = EpochStore::new(g(), SimStarParams::default(), QueryEngineOptions::default());
        let b = EpochStore::new(
            g(),
            SimStarParams { c: 0.8, iterations: 7 },
            QueryEngineOptions::default(),
        );
        assert_ne!(a.current().params_key, b.current().params_key);
        // Same config ⇒ same key across epochs (cache keys stay valid
        // modulo the epoch component).
        let before = a.current().params_key;
        a.publish(g());
        assert_eq!(a.current().params_key, before);
    }

    /// Two components: {0,1,2,3} (the diamond) and {4,5}.
    fn two_component_graph() -> DiGraph {
        DiGraph::from_edges(6, &[(1, 0), (2, 0), (3, 1), (3, 2), (5, 4)]).unwrap()
    }

    #[test]
    fn sharded_snapshot_partitions_whole_components() {
        let s = EpochStore::with_shards(
            two_component_graph(),
            SimStarParams::default(),
            QueryEngineOptions::default(),
            2,
        );
        assert_eq!(s.shard_count(), 2);
        let snap = s.current();
        assert_eq!(snap.shard_count(), 2);
        let plan = snap.plan.as_deref().expect("sharded snapshot carries a plan");
        // LPT: the 4-node diamond on shard 0, the 2-node pair on shard 1.
        assert_eq!(*snap.shards[0].nodes, vec![0, 1, 2, 3]);
        assert_eq!(*snap.shards[1].nodes, vec![4, 5]);
        assert_eq!(snap.shards[0].engine.node_count(), 4);
        assert_eq!(snap.shards[1].engine.node_count(), 2);
        for v in 0..6u32 {
            assert_eq!(snap.cache_route(v), Some(plan.owner(v)));
        }
    }

    #[test]
    fn sharded_sub_engines_are_bit_identical_to_the_global_engine() {
        let g = two_component_graph();
        let global = EpochStore::new(g.clone(), SimStarParams::default(), Default::default());
        let sharded = EpochStore::with_shards(g, SimStarParams::default(), Default::default(), 2);
        let gsnap = global.current();
        let ssnap = sharded.current();
        for slice in &ssnap.shards {
            for (local, &node) in slice.nodes.iter().enumerate() {
                let sub = slice.engine.query(local as u32);
                let full = gsnap.engine().query(node);
                for (l2, &n2) in slice.nodes.iter().enumerate() {
                    assert_eq!(
                        sub[l2].to_bits(),
                        full[n2 as usize].to_bits(),
                        "score ({node},{n2}) differs between shard and global engines"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_epochs_republish_all_shards_atomically() {
        let s = EpochStore::with_shards(
            two_component_graph(),
            SimStarParams::default(),
            QueryEngineOptions::default(),
            3,
        );
        let before = s.current();
        // The delta merges the two components; the new epoch must see one
        // connected placement while the old snapshot is untouched.
        let (snap, added, _) = s.apply_delta(&[(4, 0)], &[]).unwrap();
        assert_eq!(added, 1);
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.shard_count(), 3);
        let plan = snap.plan.as_deref().unwrap();
        assert_eq!(plan.owner(0), plan.owner(4), "merged component must share a shard");
        assert_eq!(before.epoch, 0);
        assert_eq!(before.shards[0].engine.node_count(), 4);
    }
}
