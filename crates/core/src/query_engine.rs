//! Amortized single-source query engine — the serving path of the repo.
//!
//! The paper's evaluation is query-driven (500 single-node queries per
//! graph), but [`crate::single_source`]'s original sweep rebuilt the CSR
//! transition `Q` on every call, swept the full `(θ, λ)` lattice with
//! dense `n`-vectors, and allocated fresh buffers per step.
//! [`QueryEngine`] amortizes and restructures all of that:
//!
//! * **Precomputed state** — `Q` and `Qᵀ` (and, opt-in, the
//!   edge-concentrated kernel from `ssr-compress`) are built once per graph
//!   and shared by every query.
//! * **Two-pass Horner sweep** — the lattice
//!   `Σ_θ Σ_λ c[θ][λ]·u_θ(Qᵀ)^λ` is re-associated as `Σ_λ V_λ(Qᵀ)^λ`
//!   with `V_λ = Σ_θ c[θ][λ]·u_θ`: a forward pass advances
//!   `u_θ = e_qᵀQ^θ` and accumulates the `V_λ`, a Horner pass folds
//!   `r ← r·Qᵀ + V_λ`. At most `2K` advances per query instead of the
//!   lattice's `O(K²)`.
//! * **One sweep, two lane widths** — the sweep is generic over a lane
//!   count `L`: every frontier holds `L` queries lane-major over their
//!   union support. [`QueryEngine::query`] and [`QueryEngine::top_k`] run
//!   it at `L = 1`; [`QueryEngine::query_batch`] and the all-pairs engine
//!   run it over `BLOCK`-lane chunks (grouped by weakly-connected
//!   component so lanes overlap), so each adjacency index is read once per
//!   chunk instead of once per query.
//! * **Sparse frontiers** — every advance pushes only the active support
//!   over CSR (or neighbor-list) rows with an epsilon threshold, falling
//!   back to the blocked dense kernels behind [`crate::RightMultiplier`]
//!   once the frontier saturates past a density cutoff. Scratch lives in a
//!   pool per lane width; the hot path allocates nothing after warmup.
//! * **Top-k** — [`QueryEngine::top_k`], [`QueryEngine::top_k_batch`] and
//!   the all-pairs top-k rank each folded lane in place: a sparse lane
//!   ranks only its positive support (`select_nth_unstable`, no full-row
//!   sort) and fills the rest with zero scores by ascending id, so a
//!   query whose frontier stays small never pays `O(n)` for selection.
//!
//! Every path returns the same scores as the dense reference sweep
//! ([`crate::single_source::single_source_dense`]) within `1e-10` — the
//! Horner form is a pure re-association of the same non-negative terms —
//! which the property tests pin against `geometric::iterate` rows
//! (Lemma 4).

use crate::kernel::{
    AccessRightMultiplier, CompressedRightMultiplier, CsrRightMultiplier, RightMultiplier, BLOCK,
};
use crate::series::{exponential_weights, geometric_weights, lattice_coeffs};
use crate::SimStarParams;
use ssr_compress::CompressOptions;
use ssr_graph::components::{weakly_connected_components, weakly_connected_components_from_edges};
use ssr_graph::{DiGraph, NeighborAccess, NodeId};
use ssr_linalg::{Csr, Dense};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which SimRank\* series the engine evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeriesKind {
    /// Geometric length weight `(1−C)·C^l/2^l` (Eq. 9).
    #[default]
    Geometric,
    /// Exponential length weight `e^{−C}·C^l/(l!·2^l)` (Eq. 18).
    Exponential,
}

/// Tuning knobs of the [`QueryEngine`].
#[derive(Debug, Clone, Default)]
pub struct QueryEngineOptions {
    /// Series the engine evaluates (geometric by default).
    pub kind: SeriesKind,
    /// Run the Horner pass's dense step over the edge-concentrated graph
    /// (Algorithm 1's memoization) instead of raw adjacency. Compression is
    /// a preprocessing phase — the paper times it separately — so it runs
    /// eagerly at engine construction.
    pub compress: bool,
    /// Compression options used when `compress` is set.
    pub compress_options: CompressOptions,
    /// Batch-composition-independent arithmetic: every query produces the
    /// same bits whether it runs alone, in any batch, or next to any other
    /// lanes. The sweep stays on the sparse path (no dense fallback), active
    /// lists are sorted before every advance so floating-point accumulation
    /// order is canonical, and frontier pruning is off (the union-support
    /// pruning rule would let one lane's magnitude decide another lane's
    /// support). Serving layers that cache results keyed by
    /// `(node, params)` need this — otherwise a cache hit and a recompute
    /// can disagree in the last ulps. Costs the pruning/densify speedups;
    /// off by default.
    pub deterministic: bool,
}

impl QueryEngineOptions {
    /// A stable 64-bit key over every option that can change query
    /// *results* (series kind, compression, determinism). Unlike `Hash`,
    /// the value is fixed across processes and releases of the standard
    /// library, so it is safe to persist or to key a result cache shared
    /// between runs. Combine with [`SimStarParams::stable_key`] for a full
    /// result-identity key.
    pub fn stable_key(&self) -> u64 {
        let mut h = crate::params::fnv1a(crate::params::Fnv1a::BASIS);
        h = h.push(match self.kind {
            SeriesKind::Geometric => 1,
            SeriesKind::Exponential => 2,
        });
        h = h.push(self.compress as u64);
        h = h.push(self.deterministic as u64);
        h.0
    }
}

/// Frontier entries below this magnitude are dropped during sparse
/// propagation, and lattice cells whose remaining coefficient mass is below
/// it are skipped. Every propagated value is non-negative and bounded by 1,
/// so the per-entry output error is a small multiple of this threshold —
/// well within the `1e-10` exactness the tests pin. Deterministic engines
/// prune nothing.
const FRONTIER_EPSILON: f64 = 1e-13;

/// Active-node count past which an `L`-lane frontier switches to the dense
/// kernel (sparse bookkeeping only pays while the support is small):
/// `n/8` for one lane, `n/4` for a block, whose dense step is amortized
/// over `L` lanes so the union frontier profits from staying sparse longer.
fn densify_cutoff<const L: usize>(n: usize) -> usize {
    if L == 1 {
        n / 8
    } else {
        n / 4
    }
}

/// `L` lanes of an `n`-vector, lane-major (`vals[node·L + lane]`). While
/// `dense` is false only the nodes in `active` — the **union** support of
/// the lanes, flagged in `member` so pushes test "already active" in
/// `O(1)` — are nonzero, so propagation touches only the support.
pub(crate) struct Frontier<const L: usize> {
    vals: Vec<f64>,
    pub(crate) active: Vec<u32>,
    member: Vec<bool>,
    pub(crate) dense: bool,
}

impl<const L: usize> Frontier<L> {
    fn new(n: usize) -> Self {
        Frontier {
            vals: vec![0.0; n * L],
            active: Vec::new(),
            member: vec![false; n],
            dense: false,
        }
    }

    /// The `L` lane values of `node`, activating it if needed. The
    /// fixed-size return type keeps the per-edge axpy vectorizable.
    #[inline]
    fn insert(&mut self, node: u32) -> &mut [f64; L] {
        let i = node as usize;
        if !self.dense && !self.member[i] {
            self.member[i] = true;
            self.active.push(node);
        }
        (&mut self.vals[i * L..(i + 1) * L]).try_into().expect("L lanes")
    }

    /// A copy of the `L` lane values of `node`.
    #[inline]
    fn lanes(&self, node: u32) -> [f64; L] {
        self.vals[node as usize * L..][..L].try_into().expect("L lanes")
    }

    /// Resets to the all-zero sparse state.
    fn clear(&mut self) {
        if self.dense {
            self.vals.fill(0.0);
        } else {
            for &i in &self.active {
                self.vals[i as usize * L..(i as usize + 1) * L].fill(0.0);
                self.member[i as usize] = false;
            }
        }
        self.active.clear();
        self.dense = false;
    }

    /// Drops the sparse bookkeeping, keeping `vals` as-is.
    fn densify(&mut self) {
        for &i in &self.active {
            self.member[i as usize] = false;
        }
        self.active.clear();
        self.dense = true;
    }

    fn is_zero(&self) -> bool {
        if self.dense {
            self.vals.iter().all(|&v| v == 0.0)
        } else {
            self.active.is_empty()
        }
    }

    /// Active support: the active-node count, or `n` when dense.
    fn support(&self) -> usize {
        if self.dense {
            self.member.len()
        } else {
            self.active.len()
        }
    }

    /// `self += c·src`, lane-wise, maintaining the membership bookkeeping
    /// (all propagated values are non-negative, so sums never cancel).
    fn axpy_from(&mut self, src: &Frontier<L>, c: f64) {
        if c == 0.0 || src.is_zero() {
            return;
        }
        if src.dense {
            if !self.dense {
                self.densify();
            }
            for (d, &sv) in self.vals.iter_mut().zip(&src.vals) {
                *d += c * sv;
            }
        } else {
            for &i in &src.active {
                let sv = src.lanes(i);
                for (d, s) in self.insert(i).iter_mut().zip(sv) {
                    *d += c * s;
                }
            }
        }
    }
}

/// Reusable per-sweep state (four frontiers, the `V_λ` accumulators, and the
/// top-k selection buffers — ≈ `(K+5)·8·L·n` bytes), pooled by the engine
/// per lane width: no allocation on the hot path after warmup.
pub(crate) struct Scratch<const L: usize> {
    u: Frontier<L>,
    u_next: Frontier<L>,
    w: Frontier<L>,
    w_next: Frontier<L>,
    /// `vs[λ]` accumulates `V_λ = Σ_θ c[θ][λ]·u_θ` during the sweep's
    /// forward pass; cleared (cost proportional to support) by the Horner
    /// pass that consumes them.
    vs: Vec<Frontier<L>>,
    /// [`lane_top_k`]'s buffers: a dense lane's row copy and the ranked
    /// ids.
    row: Vec<f64>,
    idx: Vec<u32>,
}

impl<const L: usize> Scratch<L> {
    fn new(n: usize, k: usize) -> Self {
        Scratch {
            u: Frontier::new(n),
            u_next: Frontier::new(n),
            w: Frontier::new(n),
            w_next: Frontier::new(n),
            vs: (0..=k).map(|_| Frontier::new(n)).collect(),
            row: Vec::new(),
            idx: Vec::new(),
        }
    }
}

/// How the engine reaches the graph's adjacency: the blocked kernels for
/// `X·Qᵀ` (`q`) and `X·Q` (`qt`). Each kernel's rows also feed the sparse
/// pushes of the opposite direction (see [`QueryEngine::directions`]).
enum Backing {
    /// Materialised `Q`/`Qᵀ` CSR matrices — the fully-resident path.
    Memory { q: CsrRightMultiplier, qt: CsrRightMultiplier },
    /// On-demand neighbor lists (e.g. a random-access `.ssg` store
    /// decoding adjacency off compressed bytes) weighted by the shared
    /// `1/|I(v)|` vector.
    Access { q: AccessRightMultiplier, qt: AccessRightMultiplier },
}

/// One advance direction `x ← x·A`: sparse pushes walk the rows of `A`,
/// the dense fallback runs the blocked kernel computing `X·A`.
struct Direction<'a> {
    rows: Rows<'a>,
    dense: &'a dyn RightMultiplier,
}

/// Row-push view of `A`: `f(col, weight)` for every entry of row `i`,
/// columns strictly ascending (the order every backing's contract
/// guarantees, which is what makes deterministic-mode results independent
/// of the backing).
enum Rows<'a> {
    Csr(&'a Csr),
    /// The matrix an access kernel wraps (see
    /// [`AccessRightMultiplier::for_each_row_entry`]).
    Access(&'a AccessRightMultiplier),
}

impl Rows<'_> {
    #[inline]
    fn push_row(&self, i: u32, mut f: impl FnMut(u32, f64)) {
        match self {
            Rows::Csr(a) => {
                for (j, v) in a.row_entries(i as usize) {
                    f(j, v);
                }
            }
            Rows::Access(k) => k.for_each_row_entry(i, f),
        }
    }
}

/// Lifetime work counters an engine accumulates across every sweep it
/// runs — the raw material for the serve layer's engine gauges. Sweeps
/// keep plain local tallies on the hot path and flush them here with a
/// few `Relaxed` adds per sweep, so instrumentation cost is independent
/// of iteration count and frontier size.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Logical single-source sweeps executed (a block chunk counts one
    /// per occupied lane).
    sweeps: AtomicU64,
    /// Frontier advances across both passes (forward + Horner).
    iterations: AtomicU64,
    /// Advances that ended in the dense fallback representation.
    dense_steps: AtomicU64,
    /// Occupied lanes across block chunks.
    lanes_used: AtomicU64,
    /// Lane capacity across block chunks (`BLOCK` per chunk).
    lane_slots: AtomicU64,
    /// Frontier support (active nodes, or `n` when dense) summed over
    /// advances.
    frontier_active: AtomicU64,
    /// `n` summed over the same advances — the density denominator.
    frontier_slots: AtomicU64,
}

impl EngineStats {
    fn flush(&self, sweeps: u64, iters: u64, dense: u64, active: u64, slots: u64) {
        self.sweeps.fetch_add(sweeps, Ordering::Relaxed);
        self.iterations.fetch_add(iters, Ordering::Relaxed);
        if dense > 0 {
            self.dense_steps.fetch_add(dense, Ordering::Relaxed);
        }
        self.frontier_active.fetch_add(active, Ordering::Relaxed);
        self.frontier_slots.fetch_add(slots, Ordering::Relaxed);
    }

    fn flush_lanes(&self, used: u64, cap: u64) {
        self.lanes_used.fetch_add(used, Ordering::Relaxed);
        self.lane_slots.fetch_add(cap, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            sweeps: self.sweeps.load(Ordering::Relaxed),
            iterations: self.iterations.load(Ordering::Relaxed),
            dense_steps: self.dense_steps.load(Ordering::Relaxed),
            lanes_used: self.lanes_used.load(Ordering::Relaxed),
            lane_slots: self.lane_slots.load(Ordering::Relaxed),
            frontier_active: self.frontier_active.load(Ordering::Relaxed),
            frontier_slots: self.frontier_slots.load(Ordering::Relaxed),
        }
    }
}

/// Frozen [`EngineStats`] values. Ratios worth watching:
/// `lanes_used / lane_slots` is batched lane occupancy,
/// `frontier_active / frontier_slots` is mean frontier density, and
/// `dense_steps / iterations` is the dense-fallback rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStatsSnapshot {
    /// Logical single-source sweeps executed.
    pub sweeps: u64,
    /// Frontier advances across both sweep passes.
    pub iterations: u64,
    /// Advances that ended dense.
    pub dense_steps: u64,
    /// Occupied lanes across block chunks.
    pub lanes_used: u64,
    /// Lane capacity across block chunks.
    pub lane_slots: u64,
    /// Frontier support summed over advances.
    pub frontier_active: u64,
    /// Frontier capacity (`n`) summed over the same advances.
    pub frontier_slots: u64,
}

/// One frontier advance observed by a traced sweep — the engine's
/// per-request introspection record, collected only on the explicitly
/// traced entry points ([`QueryEngine::top_k_batch_traced`]). The
/// untraced hot path never constructs these (no timing calls, no
/// allocation), so sampling-off serving cost is unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStep {
    /// Which sweep pass advanced: `0` = forward (θ), `1` = Horner (λ).
    pub pass: u8,
    /// The θ (or λ) term the advance computed.
    pub index: usize,
    /// Active frontier support after the advance (`n` when dense).
    pub frontier: usize,
    /// Whether the advance ended in the dense-fallback representation.
    pub dense: bool,
    /// Wall time of the advance in nanoseconds.
    pub dur_ns: u64,
}

/// Per-advance records accumulated by one traced batch call, in
/// execution order (chunk by chunk, forward pass then Horner pass).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EngineTrace {
    /// Every frontier advance the batch ran.
    pub steps: Vec<EngineStep>,
}

impl EngineTrace {
    /// Advances that ended dense — the dense-fallback trigger count.
    pub fn dense_steps(&self) -> usize {
        self.steps.iter().filter(|s| s.dense).count()
    }
}

/// Per-advance observer, threaded through the sweep as a type parameter:
/// the `()` impl compiles to the bare advance (no timing calls, no
/// branch), the [`EngineTrace`] impl times and records every advance.
/// Observation happens strictly around an advance, so traced results stay
/// bitwise identical to untraced ones.
pub(crate) trait StepHook {
    /// Runs `advance` on `cur`: the advance of pass `pass` (`0` = forward,
    /// `1` = Horner) that computes term `index`.
    fn step<const L: usize>(
        &mut self,
        pass: u8,
        index: usize,
        cur: &mut Frontier<L>,
        advance: impl FnOnce(&mut Frontier<L>),
    );
}

impl StepHook for () {
    #[inline(always)]
    fn step<const L: usize>(
        &mut self,
        _: u8,
        _: usize,
        cur: &mut Frontier<L>,
        advance: impl FnOnce(&mut Frontier<L>),
    ) {
        advance(cur)
    }
}

impl StepHook for EngineTrace {
    fn step<const L: usize>(
        &mut self,
        pass: u8,
        index: usize,
        cur: &mut Frontier<L>,
        advance: impl FnOnce(&mut Frontier<L>),
    ) {
        let started = Instant::now();
        advance(cur);
        self.steps.push(EngineStep {
            pass,
            index,
            frontier: cur.support(),
            dense: cur.dense,
            dur_ns: started.elapsed().as_nanos() as u64,
        });
    }
}

/// Amortized single-source SimRank\* query engine. See the module docs.
///
/// ```
/// use simrank_star::{geometric, QueryEngine, SimStarParams};
/// use ssr_graph::DiGraph;
/// let g = DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
/// let p = SimStarParams::default();
/// let engine = QueryEngine::new(&g, p);
/// let full = geometric::iterate(&g, &p);
/// let row = engine.query(1);
/// for v in 0..4u32 {
///     assert!((row[v as usize] - full.score(1, v)).abs() < 1e-10);
/// }
/// ```
pub struct QueryEngine {
    n: usize,
    backing: Backing,
    /// `coeffs[θ][λ] = weight(θ+λ) · binom(θ+λ, θ)` — the Pascal rows and
    /// length weights are computed once per engine, not per lattice cell.
    coeffs: Vec<Vec<f64>>,
    /// `theta_tail[θ] = Σ_{θ' ≥ θ} Σ_λ coeffs[θ'][λ]` — remaining
    /// coefficient mass from row `θ` on; since propagated values are
    /// bounded by 1, a tail below epsilon can be skipped.
    theta_tail: Vec<f64>,
    params: SimStarParams,
    opts: QueryEngineOptions,
    /// The edge-concentrated `X·Qᵀ` kernel that replaces the Horner pass's
    /// dense step when built with `compress` (built eagerly: compression is
    /// a preprocessing phase the paper times separately).
    compressed: Option<CompressedRightMultiplier>,
    /// Weakly-connected component label per node: the batched path groups
    /// queries by component so the lanes of a chunk share frontier support
    /// (lanes outside a node's component are provably zero — packing
    /// unrelated queries together wastes 15/16 of every lane operation).
    component: Vec<u32>,
    /// Scratch pools of the one-lane and the `BLOCK`-lane sweep.
    scratch: Mutex<Vec<Scratch<1>>>,
    pub(crate) block_scratch: Mutex<Vec<Scratch<BLOCK>>>,
    /// Lifetime work counters (sweeps, advances, lane occupancy, frontier
    /// density); sweeps flush local tallies here.
    stats: EngineStats,
}

impl QueryEngine {
    /// Builds an engine with default options.
    pub fn new(g: &DiGraph, params: SimStarParams) -> Self {
        Self::with_options(g, params, QueryEngineOptions::default())
    }

    /// Builds an engine, precomputing `Q`, `Qᵀ`, the lattice coefficient
    /// table, and (if `opts.compress`) the edge-concentrated kernel.
    pub fn with_options(g: &DiGraph, params: SimStarParams, opts: QueryEngineOptions) -> Self {
        params.validate();
        let q = Csr::backward_transition(g);
        let qt = q.transpose();
        let compressed =
            opts.compress.then(|| CompressedRightMultiplier::new(g, &opts.compress_options));
        let (coeffs, theta_tail) = coeff_table(&params, opts.kind);
        QueryEngine {
            n: g.node_count(),
            backing: Backing::Memory {
                q: CsrRightMultiplier::new(q),
                qt: CsrRightMultiplier::new(qt),
            },
            coeffs,
            theta_tail,
            params,
            opts,
            compressed,
            component: weakly_connected_components(g).label,
            scratch: Mutex::new(Vec::new()),
            block_scratch: Mutex::new(Vec::new()),
            stats: EngineStats::default(),
        }
    }

    /// Builds an engine over a [`NeighborAccess`] backing instead of an
    /// in-memory [`DiGraph`] — the memory-bounded serving path: adjacency
    /// is decoded on demand (e.g. straight off a compressed `.ssg`
    /// mapping) and the engine's own resident state is `O(n)` (the
    /// `1/|I(v)|` weights and component labels), never `O(m)`.
    ///
    /// Results match the in-memory engine to the usual `1e-10`, and in
    /// deterministic mode ([`QueryEngineOptions::deterministic`]) they are
    /// **bit-identical** to it: both backings push the same weights in the
    /// same ascending-id order, so the floating-point accumulation order
    /// coincides exactly.
    ///
    /// `opts.compress` is incompatible with access backings (edge
    /// concentration needs the materialised graph) and panics.
    pub fn with_access(
        src: Arc<dyn NeighborAccess>,
        params: SimStarParams,
        opts: QueryEngineOptions,
    ) -> Self {
        params.validate();
        assert!(
            !opts.compress,
            "edge concentration needs an in-memory graph; load the graph fully to compress"
        );
        let n = src.node_count();
        let inv_in: Arc<Vec<f64>> = Arc::new(
            (0..n as u32)
                .map(|v| {
                    let d = src.in_degree(v);
                    if d == 0 {
                        0.0
                    } else {
                        1.0 / d as f64
                    }
                })
                .collect(),
        );
        // Component labels from the edge stream (no DiGraph materialised;
        // one transient out-list at a time). The union-find keeps the
        // smaller root, so labels are edge-order-independent and equal to
        // the in-memory engine's.
        let component = weakly_connected_components_from_edges(
            n,
            (0..n as u32).flat_map(|v| {
                src.out_neighbors_vec(v).into_iter().map(move |w| (v, w)).collect::<Vec<_>>()
            }),
        )
        .label;
        let (coeffs, theta_tail) = coeff_table(&params, opts.kind);
        QueryEngine {
            n,
            backing: Backing::Access {
                q: AccessRightMultiplier::q(src.clone(), inv_in.clone()),
                qt: AccessRightMultiplier::q_transpose(src, inv_in),
            },
            coeffs,
            theta_tail,
            params,
            opts,
            compressed: None,
            component,
            scratch: Mutex::new(Vec::new()),
            block_scratch: Mutex::new(Vec::new()),
            stats: EngineStats::default(),
        }
    }

    /// Number of nodes of the indexed graph.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Whether the engine computes over an on-demand [`NeighborAccess`]
    /// backing rather than materialised CSR matrices.
    pub fn is_access_backed(&self) -> bool {
        matches!(self.backing, Backing::Access { .. })
    }

    /// Bytes of graph-proportional state this engine holds resident: the
    /// backing (both CSR matrices, or the access source's own accounting
    /// plus the `O(n)` weight vector), the component labels, and the
    /// compressed kernel. Scratch pools and coefficient tables (`O(K²)`)
    /// are excluded — they are query-, not graph-, proportional.
    pub fn resident_bytes(&self) -> usize {
        let backing = match &self.backing {
            Backing::Memory { q, qt } => {
                q.matrix().estimated_bytes() + qt.matrix().estimated_bytes()
            }
            // Both kernels share one source and one weight vector.
            Backing::Access { q, .. } => q.resident_bytes(),
        };
        let kernels = self.compressed.as_ref().map_or(0, |k| k.compressed().estimated_bytes());
        backing + kernels + self.component.len() * std::mem::size_of::<u32>()
    }

    /// The parameters the engine was built with.
    pub fn params(&self) -> &SimStarParams {
        &self.params
    }

    /// The options the engine was built with.
    pub fn options(&self) -> &QueryEngineOptions {
        &self.opts
    }

    /// Frozen lifetime work counters — see [`EngineStatsSnapshot`].
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.stats.snapshot()
    }

    /// Compression ratio of the Horner-pass kernel (0 when not compressed).
    pub fn compression_ratio(&self) -> f64 {
        self.compressed.as_ref().map_or(0.0, |k| k.compression_ratio())
    }

    /// Single-source scores `ŝ(q, ·)` as a fresh vector.
    pub fn query(&self, q: NodeId) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.query_into(q, &mut out);
        out
    }

    /// Single-source scores written into a caller-owned buffer — the
    /// zero-allocation hot path (after scratch warmup).
    pub fn query_into(&self, q: NodeId, out: &mut [f64]) {
        assert!((q as usize) < self.n, "query node out of range");
        assert_eq!(out.len(), self.n, "output buffer size");
        // One lane: the folded frontier's values are the row itself.
        self.sweep_chunk(&self.scratch, std::iter::once(q), &mut (), |w, _, _| {
            out.copy_from_slice(&w.vals)
        });
    }

    /// Top-`k` most-similar nodes to `q` (excluding `q`, ties broken by
    /// ascending id), ranked straight off the folded frontier — no
    /// full-row sort, and no `O(n)` pass while the frontier is sparse.
    pub fn top_k(&self, q: NodeId, k: usize) -> Vec<(NodeId, f64)> {
        self.top_k_with(q, k, &mut ())
    }

    fn top_k_with(&self, q: NodeId, k: usize, hook: &mut impl StepHook) -> Vec<(NodeId, f64)> {
        assert!((q as usize) < self.n, "query node out of range");
        self.sweep_chunk(&self.scratch, std::iter::once(q), hook, |w, row, idx| {
            lane_top_k(w, 0, q, k, row, idx)
        })
    }

    /// Batched single-source scores: row `i` of the result is
    /// `ŝ(queries[i], ·)`. Queries run through the sweep in `BLOCK`-lane
    /// chunks, so adjacency indices are read once per chunk instead of once
    /// per query — sparse pushes and the blocked dense kernels alike.
    pub fn query_batch(&self, queries: &[NodeId]) -> Dense {
        self.query_batch_with(queries, &mut ())
    }

    /// [`Self::query_batch`] with per-advance introspection appended to
    /// `trace`. Results are bitwise identical to the untraced call — the
    /// only difference is timing capture around each frontier advance.
    pub fn query_batch_traced(&self, queries: &[NodeId], trace: &mut EngineTrace) -> Dense {
        self.query_batch_with(queries, trace)
    }

    fn query_batch_with(&self, queries: &[NodeId], hook: &mut impl StepHook) -> Dense {
        let mut out = Dense::zeros(queries.len(), self.n);
        for chunk in self.block_order(queries).chunks(BLOCK) {
            self.sweep_chunk(
                &self.block_scratch,
                chunk.iter().map(|&(_, q)| q),
                hook,
                |w, _, _| {
                    for (lane, &(row, _)) in chunk.iter().enumerate() {
                        copy_lane_into(w, lane, out.row_mut(row));
                    }
                },
            );
        }
        out
    }

    /// Batched top-`k`: entry `i` is `top_k(queries[i], k)`, each lane
    /// ranked straight off the folded frontier (no `n`-wide result rows).
    pub fn top_k_batch(&self, queries: &[NodeId], k: usize) -> Vec<Vec<(NodeId, f64)>> {
        self.top_k_batch_with(queries, k, &mut ())
    }

    /// [`Self::top_k_batch`] with per-advance introspection appended to
    /// `trace`. The ranked lists are bitwise identical to the untraced
    /// call (only timing is captured around each frontier advance).
    pub fn top_k_batch_traced(
        &self,
        queries: &[NodeId],
        k: usize,
        trace: &mut EngineTrace,
    ) -> Vec<Vec<(NodeId, f64)>> {
        self.top_k_batch_with(queries, k, trace)
    }

    fn top_k_batch_with(
        &self,
        queries: &[NodeId],
        k: usize,
        hook: &mut impl StepHook,
    ) -> Vec<Vec<(NodeId, f64)>> {
        // A batch of one sweeps one lane, not `BLOCK` (deterministic lanes
        // are width-independent, so the bits are the batched ones).
        if let &[q] = queries {
            return vec![self.top_k_with(q, k, hook)];
        }
        let mut out = vec![Vec::new(); queries.len()];
        for chunk in self.block_order(queries).chunks(BLOCK) {
            self.sweep_chunk(
                &self.block_scratch,
                chunk.iter().map(|&(_, q)| q),
                hook,
                |w, row, idx| {
                    for (lane, &(i, q)) in chunk.iter().enumerate() {
                        out[i] = lane_top_k(w, lane, q, k, row, idx);
                    }
                },
            );
        }
        out
    }

    /// `(position, query)` pairs in locality-aware chunk order: grouped by
    /// weakly-connected component so the lanes of each `BLOCK` chunk
    /// overlap in support. Each lane's sweep is independent, so reordering
    /// changes execution grouping only — every position's result is
    /// bitwise identical.
    fn block_order(&self, queries: &[NodeId]) -> Vec<(usize, NodeId)> {
        for &q in queries {
            assert!((q as usize) < self.n, "query node out of range");
        }
        let mut order: Vec<(usize, NodeId)> = queries.iter().copied().enumerate().collect();
        order.sort_by_key(|&(i, q)| (self.component[q as usize], q, i));
        order
    }

    /// Runs [`Self::sweep`] for one chunk of at most `L` queries on a
    /// scratch from `pool`, then hands the folded result (lane `i` holds
    /// the `i`-th query's row) and the scratch's [`lane_top_k`] buffers
    /// to `read`. `&self` only touches shared immutable state, so disjoint
    /// chunks may sweep concurrently — the all-pairs engine's workers do.
    pub(crate) fn sweep_chunk<const L: usize, R>(
        &self,
        pool: &Mutex<Vec<Scratch<L>>>,
        queries: impl ExactSizeIterator<Item = NodeId>,
        hook: &mut impl StepHook,
        read: impl FnOnce(&Frontier<L>, &mut Vec<f64>, &mut Vec<u32>) -> R,
    ) -> R {
        let mut s = pool
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_else(|| Scratch::new(self.n, self.params.iterations));
        self.sweep(queries, &mut s, hook);
        let out = read(&s.w, &mut s.row, &mut s.idx);
        s.w.clear();
        pool.lock().expect("scratch pool poisoned").push(s);
        out
    }

    /// The sweep behind every query, over `L` lanes at once
    /// (`queries[lane]` seeds lane `lane`). The `(θ, λ)` lattice
    /// `Σ_θ Σ_{λ≤K−θ} c[θ][λ]·u_θ(Qᵀ)^λ` is re-associated as
    /// `Σ_λ V_λ(Qᵀ)^λ` with `V_λ = Σ_{θ≤K−λ} c[θ][λ]·u_θ`: a forward pass
    /// advances `u_θ = e_qᵀQ^θ` and accumulates the `V_λ`, then a Horner
    /// pass folds `r ← r·Qᵀ + V_λ` (λ descending). That is at most `2K`
    /// frontier advances instead of the lattice's `O(K²)` — each advance
    /// sparse with automatic dense fallback — and a pure re-association of
    /// the same non-negative terms, so results match the dense lattice
    /// reference ([`crate::single_source::single_source_dense`]) to a few
    /// ulps per entry. Leaves the folded result in `s.w` and every other
    /// scratch frontier cleared; `s.w` must be cleared before the scratch
    /// is reused.
    fn sweep<const L: usize>(
        &self,
        queries: impl ExactSizeIterator<Item = NodeId>,
        s: &mut Scratch<L>,
        hook: &mut impl StepHook,
    ) {
        debug_assert!(queries.len() <= L);
        let k = self.params.iterations;
        let det = self.opts.deterministic;
        let eps = if det { 0.0 } else { FRONTIER_EPSILON };
        let cutoff = densify_cutoff::<L>(self.n);
        let (forward, horner) = self.directions();
        let lanes = queries.len() as u64;
        // Work tallies, kept in locals on the hot path and flushed to the
        // shared atomics once per sweep.
        let (mut iters, mut dense_steps, mut f_active) = (0u64, 0u64, 0u64);
        let mut tally = |f: &Frontier<L>| {
            iters += 1;
            dense_steps += f.dense as u64;
            f_active += f.support() as u64;
        };
        for (lane, q) in queries.enumerate() {
            s.u.insert(q)[lane] = 1.0;
        }
        // Forward pass: u_θ = e_qᵀQ^θ; V_λ += c[θ][λ]·u_θ for λ ≤ K−θ.
        for theta in 0..=k {
            if eps > 0.0 && self.theta_tail[theta] < eps {
                break;
            }
            for (lambda, vl) in s.vs[..=(k - theta)].iter_mut().enumerate() {
                vl.axpy_from(&s.u, self.coeffs[theta][lambda]);
            }
            if theta == k {
                break;
            }
            hook.step(0, theta, &mut s.u, |u| {
                advance(&forward, u, &mut s.u_next, eps, cutoff, det)
            });
            tally(&s.u);
            if s.u.is_zero() {
                break;
            }
        }
        s.u.clear();
        // Horner pass (λ descending): r ← r·Qᵀ + V_λ, with r living in the
        // w scratch. Skipping the advance while r is still zero makes the
        // top-of-range V's (empty when the forward pass stopped early)
        // free.
        for lambda in (0..=k).rev() {
            if !s.w.is_zero() {
                hook.step(1, lambda, &mut s.w, |w| {
                    advance(&horner, w, &mut s.w_next, eps, cutoff, det)
                });
                tally(&s.w);
            }
            s.w.axpy_from(&s.vs[lambda], 1.0);
            s.vs[lambda].clear();
        }
        self.stats.flush(lanes, iters, dense_steps, f_active, iters * self.n as u64);
        if L > 1 {
            self.stats.flush_lanes(lanes, L as u64);
        }
    }

    /// The forward (`u ← u·Q`) and Horner (`r ← r·Qᵀ`) advance directions.
    /// `Q`'s rows are pushed with the `X·Qᵀ` kernel's matrix and densify
    /// into the `X·Q` kernel, and vice versa; with `compress`, the
    /// edge-concentrated kernel takes over the Horner dense step.
    fn directions(&self) -> (Direction<'_>, Direction<'_>) {
        match &self.backing {
            Backing::Memory { q, qt } => (
                Direction { rows: Rows::Csr(q.matrix()), dense: qt },
                Direction {
                    rows: Rows::Csr(qt.matrix()),
                    dense: match &self.compressed {
                        Some(k) => k,
                        None => q,
                    },
                },
            ),
            Backing::Access { q, qt } => (
                Direction { rows: Rows::Access(q), dense: qt },
                Direction { rows: Rows::Access(qt), dense: q },
            ),
        }
    }

    /// The edge-concentrated kernel, when the engine was built with
    /// `compress` (shared with the all-pairs engine so compression runs
    /// once per graph).
    pub(crate) fn compressed_kernel(&self) -> Option<&CompressedRightMultiplier> {
        self.compressed.as_ref()
    }
}

/// Copies lane `lane` of a folded frontier into a full row (`out` must be
/// zeroed; only the support is written on the sparse path).
pub(crate) fn copy_lane_into<const L: usize>(w: &Frontier<L>, lane: usize, out: &mut [f64]) {
    if w.dense {
        for (rv, node_vals) in out.iter_mut().zip(w.vals.chunks_exact(L)) {
            *rv = node_vals[lane];
        }
    } else {
        for &i in &w.active {
            out[i as usize] = w.vals[i as usize * L + lane];
        }
    }
}

/// Length weights `weight(l)` for `l ≤ K` of the selected series.
fn length_weights(params: &SimStarParams, kind: SeriesKind) -> Vec<f64> {
    match kind {
        SeriesKind::Geometric => geometric_weights(params.c, params.iterations),
        SeriesKind::Exponential => exponential_weights(params.c, params.iterations),
    }
}

/// The lattice coefficient table and its θ-suffix mass (see the
/// [`QueryEngine`] field docs).
fn coeff_table(params: &SimStarParams, kind: SeriesKind) -> (Vec<Vec<f64>>, Vec<f64>) {
    let k = params.iterations;
    let weights = length_weights(params, kind);
    let coeffs = lattice_coeffs(&weights);
    let mut theta_tail = vec![0.0; k + 2];
    for theta in (0..=k).rev() {
        theta_tail[theta] = theta_tail[theta + 1] + coeffs[theta].iter().sum::<f64>();
    }
    (coeffs, theta_tail)
}

/// Advances `cur` one step along `dir`: sparse push over the direction's
/// rows (each adjacency index read once per `L` lanes) while the union
/// support is small, switching to the blocked dense kernel once it
/// saturates past `cutoff` active nodes (and staying dense from then on).
/// `next` must be cleared on entry and is left cleared on exit. With `det`
/// set, the frontier stays sparse forever, pruning is skipped, and the
/// active list is sorted before the push so the accumulation order into
/// every slot is canonical (ascending source id) — a lane's result is then
/// independent of the lane width and of what the other lanes hold (see
/// [`QueryEngineOptions::deterministic`]).
fn advance<const L: usize>(
    dir: &Direction,
    cur: &mut Frontier<L>,
    next: &mut Frontier<L>,
    eps: f64,
    cutoff: usize,
    det: bool,
) {
    if det {
        debug_assert!(!cur.dense, "deterministic sweeps never densify");
        cur.active.sort_unstable();
    }
    if cur.dense {
        // `next` is cleared ⇒ all-zero, which `apply_block` accumulates into.
        dir.dense.apply_block(&cur.vals, &mut next.vals, L);
        next.dense = true;
    } else {
        debug_assert!(!next.dense && next.active.is_empty());
        for &i in &cur.active {
            let src = cur.lanes(i);
            dir.rows.push_row(i, |j, v| {
                for (d, sv) in next.insert(j).iter_mut().zip(src) {
                    *d += v * sv;
                }
            });
        }
        if eps > 0.0 {
            let Frontier { vals, active, member, .. } = next;
            active.retain(|&j| {
                let lanes = &mut vals[j as usize * L..(j as usize + 1) * L];
                if lanes.iter().any(|&v| v >= eps) {
                    true
                } else {
                    lanes.fill(0.0);
                    member[j as usize] = false;
                    false
                }
            });
        }
        if !det && next.active.len() > cutoff {
            next.densify();
        }
    }
    std::mem::swap(cur, next);
    next.clear();
}

/// Top-`k` of lane `lane` of a folded frontier, excluding `q`, ranked by
/// descending score then ascending id — a total order, so the result is
/// exactly the first `k` of the sorted full row. A sparse lane ranks its
/// positive support by partial selection and fills the rest with zero
/// scores by ascending id, skipping `q` and the positive nodes:
/// `O(support + k log k)`, independent of `n` while `k` stays below the
/// zero-score candidates. A dense lane is copied into `row` (at `L = 1`
/// the values already are the row) and selected over all `n` nodes.
pub(crate) fn lane_top_k<const L: usize>(
    w: &Frontier<L>,
    lane: usize,
    q: NodeId,
    k: usize,
    row: &mut Vec<f64>,
    idx: &mut Vec<u32>,
) -> Vec<(NodeId, f64)> {
    let n = w.member.len() as u32;
    idx.clear();
    if w.dense {
        let row: &[f64] = if L == 1 {
            &w.vals
        } else {
            row.clear();
            row.extend(w.vals.chunks_exact(L).map(|node| node[lane]));
            row
        };
        idx.extend((0..n).filter(|&v| v != q));
        return rank(idx, k, |v| row[v as usize]);
    }
    // Off the active list every value is exactly zero.
    let score = |v: u32| w.vals[v as usize * L + lane];
    idx.extend(w.active.iter().copied().filter(|&v| v != q && score(v) > 0.0));
    let mut top = rank(idx, k, score);
    let fill = k.saturating_sub(top.len());
    top.extend((0..n).filter(|&v| v != q && score(v) <= 0.0).take(fill).map(|v| (v, score(v))));
    top
}

/// The best `k` of `ids` by descending `score` then ascending id, in that
/// order, by partial selection: `O(|ids| + k log k)` instead of a full
/// sort. Reorders `ids`.
fn rank(ids: &mut [u32], k: usize, score: impl Fn(u32) -> f64) -> Vec<(NodeId, f64)> {
    let cmp =
        |a: &u32, b: &u32| score(*b).partial_cmp(&score(*a)).expect("finite scores").then(a.cmp(b));
    let k = k.min(ids.len());
    if k == 0 {
        return Vec::new();
    }
    if k < ids.len() {
        ids.select_nth_unstable_by(k - 1, cmp);
    }
    ids[..k].sort_unstable_by(cmp);
    ids[..k].iter().map(|&v| (v, score(v))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_source::{single_source_dense, single_source_exponential_dense};
    use crate::{geometric, series};

    fn graphs() -> Vec<DiGraph> {
        vec![
            DiGraph::from_edges(4, &[(1, 0), (2, 0), (3, 1), (3, 2), (0, 3)]).unwrap(),
            DiGraph::from_edges(5, &[(2, 1), (1, 0), (2, 3), (3, 4)]).unwrap(),
            DiGraph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 4)])
                .unwrap(),
        ]
    }

    fn assert_rows_close(a: &[f64], b: &[f64], tol: f64, tag: &str) {
        for (v, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{tag}: v={v}: {x} vs {y}");
        }
    }

    #[test]
    fn engine_stats_count_sweeps_iterations_and_lane_occupancy() {
        let g = &graphs()[0];
        let engine = QueryEngine::new(g, SimStarParams::default());
        assert_eq!(engine.stats(), EngineStatsSnapshot::default(), "fresh engine is zeroed");
        engine.query(1);
        let after_one = engine.stats();
        assert_eq!(after_one.sweeps, 1);
        assert!(after_one.iterations > 0, "a sweep advances the frontier");
        assert!(after_one.frontier_active <= after_one.frontier_slots);
        assert_eq!(after_one.lane_slots, 0, "the one-lane path counts no lane slots");
        // A 3-query batch is one block chunk: three logical sweeps, three
        // of BLOCK lanes occupied.
        engine.top_k_batch(&[0, 1, 2], 2);
        let after_batch = engine.stats();
        assert_eq!(after_batch.sweeps, 4);
        assert_eq!(after_batch.lanes_used, 3);
        assert_eq!(after_batch.lane_slots, BLOCK as u64);
        assert!(after_batch.iterations > after_one.iterations);
    }

    #[test]
    fn engine_matches_dense_sweep_and_matrix_row() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let engine = QueryEngine::new(&g, p);
            let full = geometric::iterate(&g, &p);
            for q in 0..g.node_count() as NodeId {
                let row = engine.query(q);
                let dense = single_source_dense(&g, q, &p);
                assert_rows_close(&row, &dense, 1e-10, "vs dense");
                for (v, &rv) in row.iter().enumerate() {
                    assert!((rv - full.score(q, v as NodeId)).abs() < 1e-10, "q={q}, v={v}");
                }
            }
        }
    }

    #[test]
    fn exponential_engine_matches_series() {
        for g in graphs() {
            let p = SimStarParams { c: 0.6, iterations: 6 };
            let opts = QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() };
            let engine = QueryEngine::with_options(&g, p, opts);
            let brute = series::exponential_partial_sum(&g, &p);
            for q in 0..g.node_count() as NodeId {
                let row = engine.query(q);
                let dense = single_source_exponential_dense(&g, q, &p);
                assert_rows_close(&row, &dense, 1e-10, "vs dense");
                for (v, &rv) in row.iter().enumerate() {
                    assert!((rv - brute.get(q as usize, v)).abs() < 1e-10, "q={q}, v={v}");
                }
            }
        }
    }

    /// Dense-fallback steps an engine took while answering every node
    /// solo (`L = 1`) and then as one batch (`L = BLOCK`), with the rows.
    fn dense_steps_per_width(e: &QueryEngine) -> ([u64; 2], Vec<Vec<f64>>, Dense) {
        let all: Vec<NodeId> = (0..e.node_count() as NodeId).collect();
        let start = e.stats().dense_steps;
        let solo: Vec<Vec<f64>> = all.iter().map(|&q| e.query(q)).collect();
        let mid = e.stats().dense_steps;
        let batch = e.query_batch(&all);
        ([mid - start, e.stats().dense_steps - mid], solo, batch)
    }

    #[test]
    fn forced_dense_fallback_is_exact() {
        // The fixed graphs are small enough that default frontiers pass
        // the densify cutoffs (n/8 solo, n/4 batched) within a step, while
        // deterministic engines never densify: both must match the
        // reference, at both lane widths.
        for g in graphs() {
            let p = SimStarParams { c: 0.8, iterations: 5 };
            let det = QueryEngineOptions { deterministic: true, ..Default::default() };
            for opts in [QueryEngineOptions::default(), det] {
                let engine = QueryEngine::with_options(&g, p, opts.clone());
                let (dense_steps, solo, batch) = dense_steps_per_width(&engine);
                if opts.deterministic {
                    assert_eq!(dense_steps, [0, 0], "deterministic sweeps never densify");
                } else {
                    assert!(dense_steps.iter().all(|&d| d > 0), "dense path ran: {dense_steps:?}");
                }
                for (q, row) in solo.iter().enumerate() {
                    let dense = single_source_dense(&g, q as NodeId, &p);
                    assert_rows_close(row, &dense, 1e-12, "solo");
                    assert_rows_close(batch.row(q), &dense, 1e-12, "batch");
                }
            }
        }
    }

    #[test]
    fn batched_rows_match_single_queries() {
        for compress in [false, true] {
            for g in graphs() {
                let p = SimStarParams { c: 0.7, iterations: 5 };
                let opts = QueryEngineOptions { compress, ..Default::default() };
                let engine = QueryEngine::with_options(&g, p, opts);
                let queries: Vec<NodeId> = (0..g.node_count() as NodeId).rev().collect();
                let batch = engine.query_batch(&queries);
                for (i, &q) in queries.iter().enumerate() {
                    let dense = single_source_dense(&g, q, &p);
                    assert_rows_close(batch.row(i), &dense, 1e-10, "batch");
                }
            }
        }
    }

    #[test]
    fn batch_wider_than_block_is_consistent() {
        // More rows than one 16-lane block, with repeated query ids.
        let g = &graphs()[0];
        let p = SimStarParams::default();
        let engine = QueryEngine::new(g, p);
        let queries: Vec<NodeId> = (0..40).map(|i| (i % g.node_count()) as NodeId).collect();
        let batch = engine.query_batch(&queries);
        for (i, &q) in queries.iter().enumerate() {
            assert_rows_close(batch.row(i), &engine.query(q), 1e-10, "wide batch");
        }
    }

    #[test]
    fn top_k_matches_sorted_reference() {
        for g in graphs() {
            let p = SimStarParams { c: 0.8, iterations: 8 };
            let engine = QueryEngine::new(&g, p);
            for q in 0..g.node_count() as NodeId {
                for k in [0, 1, 3, g.node_count(), g.node_count() + 5] {
                    let fast = engine.top_k(q, k);
                    let row = engine.query(q);
                    let mut slow: Vec<(NodeId, f64)> = row
                        .iter()
                        .enumerate()
                        .filter(|&(v, _)| v != q as usize)
                        .map(|(v, &s)| (v as NodeId, s))
                        .collect();
                    slow.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
                    slow.truncate(k);
                    assert_eq!(fast.len(), slow.len());
                    for ((v1, s1), (v2, s2)) in fast.iter().zip(&slow) {
                        assert_eq!(v1, v2, "q={q}, k={k}");
                        assert!((s1 - s2).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_batch_matches_top_k() {
        let g = &graphs()[1];
        let engine = QueryEngine::new(g, SimStarParams::default());
        let queries: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let batched = engine.top_k_batch(&queries, 3);
        for (&q, rows) in queries.iter().zip(&batched) {
            let single = engine.top_k(q, 3);
            assert_eq!(rows.len(), single.len());
            for ((v1, s1), (v2, s2)) in rows.iter().zip(&single) {
                assert_eq!(v1, v2, "q={q}");
                assert!((s1 - s2).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn scratch_pool_is_reused_across_queries() {
        let g = &graphs()[0];
        let engine = QueryEngine::new(g, SimStarParams::default());
        let first = engine.query(0);
        for _ in 0..5 {
            assert_eq!(engine.query(0), first);
        }
        // One sequential caller ⇒ exactly one pooled scratch.
        assert_eq!(engine.scratch.lock().unwrap().len(), 1);
    }

    #[test]
    fn empty_batch_and_isolated_nodes() {
        let g = DiGraph::from_edges(3, &[(0, 1)]).unwrap();
        let engine = QueryEngine::new(&g, SimStarParams::default());
        assert_eq!(engine.query_batch(&[]).rows(), 0);
        let row = engine.query(2); // isolated: only scores itself
        assert!(row[2] > 0.0);
        assert_eq!(row[0], 0.0);
        assert_eq!(row[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn query_bounds_checked() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let _ = QueryEngine::new(&g, SimStarParams::default()).query(5);
    }

    #[test]
    fn engine_is_a_shareable_snapshot_handle() {
        // Serving layers publish engines behind `Arc` and query them from
        // many threads at once; this pins the auto-traits that makes legal.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QueryEngine>();
    }

    #[test]
    fn deterministic_engine_matches_reference() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let opts = QueryEngineOptions { deterministic: true, ..Default::default() };
            let engine = QueryEngine::with_options(&g, p, opts);
            for q in 0..g.node_count() as NodeId {
                let dense = single_source_dense(&g, q, &p);
                assert_rows_close(&engine.query(q), &dense, 1e-10, "deterministic");
            }
        }
    }

    #[test]
    fn deterministic_results_are_batch_composition_independent() {
        // The same query must produce the same bits alone, batched with
        // itself, and batched next to arbitrary other queries — the
        // property result caches in front of the engine rely on.
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let opts = QueryEngineOptions { deterministic: true, ..Default::default() };
            let engine = QueryEngine::with_options(&g, p, opts);
            let n = g.node_count() as NodeId;
            for q in 0..n {
                let solo = engine.query(q);
                let solo_batch = engine.query_batch(&[q]);
                assert_eq!(solo, solo_batch.row(0), "q={q} solo vs batch-of-1");
                let mixed: Vec<NodeId> = (0..n).rev().chain([q, q]).collect();
                let batch = engine.query_batch(&mixed);
                for (i, &mq) in mixed.iter().enumerate() {
                    if mq == q {
                        assert_eq!(solo.as_slice(), batch.row(i), "q={q} lane {i}");
                    }
                }
                // Top-k is a pure selection over those bits.
                let top = engine.top_k(q, 4);
                assert_eq!(top, engine.top_k_batch(&[q], 4)[0], "q={q} top-k");
            }
        }
    }

    #[test]
    fn deterministic_mode_never_densifies_or_prunes() {
        // Same rows with and without the default engine's pruning and
        // dense fallback; the deterministic engine keeps every entry of the
        // reference's support (ε = 0) without ever densifying.
        let g = &graphs()[2];
        let p = SimStarParams { c: 0.6, iterations: 12 };
        let det = QueryEngineOptions { deterministic: true, ..Default::default() };
        let (fast_steps, fast, _) = dense_steps_per_width(&QueryEngine::new(g, p));
        let (det_steps, det, det_batch) =
            dense_steps_per_width(&QueryEngine::with_options(g, p, det));
        assert!(fast_steps[0] > 0 && det_steps == [0, 0], "{fast_steps:?} vs {det_steps:?}");
        for (q, row) in det.iter().enumerate() {
            let dense = single_source_dense(g, q as NodeId, &p);
            assert_rows_close(row, &fast[q], 1e-12, "det vs default");
            assert_rows_close(row, &dense, 1e-12, "det vs dense");
            assert_eq!(row.as_slice(), det_batch.row(q), "q={q} solo vs batch bits");
            for (v, &d) in dense.iter().enumerate() {
                assert_eq!(d > 0.0, row[v] > 0.0, "q={q}, v={v}: support");
            }
        }
    }

    #[test]
    fn stable_keys_separate_result_identities() {
        let a = QueryEngineOptions::default();
        assert_eq!(a.stable_key(), QueryEngineOptions::default().stable_key());
        let det = QueryEngineOptions { deterministic: true, ..Default::default() };
        let exp = QueryEngineOptions { kind: SeriesKind::Exponential, ..Default::default() };
        assert_ne!(a.stable_key(), det.stable_key());
        assert_ne!(a.stable_key(), exp.stable_key());
        assert_ne!(det.stable_key(), exp.stable_key());
    }

    #[test]
    fn compression_ratio_reported() {
        // K_{2,3} compresses; the plain engine reports zero.
        let g = DiGraph::from_edges(5, &[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
        let p = SimStarParams::default();
        assert_eq!(QueryEngine::new(&g, p).compression_ratio(), 0.0);
        let opts = QueryEngineOptions { compress: true, ..Default::default() };
        assert!(QueryEngine::with_options(&g, p, opts).compression_ratio() > 0.0);
    }

    fn access_of(g: &DiGraph) -> Arc<dyn NeighborAccess> {
        Arc::new(g.clone())
    }

    #[test]
    fn access_backing_bit_identical_in_deterministic_mode() {
        for g in graphs() {
            let p = SimStarParams { c: 0.7, iterations: 6 };
            let opts = QueryEngineOptions { deterministic: true, ..Default::default() };
            let mem = QueryEngine::with_options(&g, p, opts.clone());
            let acc = QueryEngine::with_access(access_of(&g), p, opts);
            assert!(acc.is_access_backed() && !mem.is_access_backed());
            let all: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
            for q in &all {
                assert_eq!(mem.query(*q), acc.query(*q), "q={q}");
                assert_eq!(mem.top_k(*q, 3), acc.top_k(*q, 3), "q={q}");
            }
            assert_eq!(mem.query_batch(&all).as_slice(), acc.query_batch(&all).as_slice());
        }
    }

    #[test]
    fn access_backing_matches_on_sparse_and_dense_paths() {
        // Default access engines take the dense fallback (the access
        // kernels) at both widths; deterministic ones stay sparse. Both
        // match the in-memory engine and the dense reference.
        for g in graphs() {
            let p = SimStarParams { c: 0.6, iterations: 6 };
            for kind in [SeriesKind::Geometric, SeriesKind::Exponential] {
                for deterministic in [false, true] {
                    let opts = QueryEngineOptions { kind, deterministic, ..Default::default() };
                    let mem = QueryEngine::with_options(&g, p, opts.clone());
                    let acc = QueryEngine::with_access(access_of(&g), p, opts);
                    let (dense_steps, solo, batch) = dense_steps_per_width(&acc);
                    if deterministic {
                        assert_eq!(dense_steps, [0, 0]);
                    } else {
                        assert!(dense_steps.iter().all(|&d| d > 0), "{dense_steps:?}");
                    }
                    let mem_batch =
                        mem.query_batch(&(0..g.node_count() as NodeId).collect::<Vec<_>>());
                    for (q, row) in solo.iter().enumerate() {
                        let dense = match kind {
                            SeriesKind::Geometric => single_source_dense(&g, q as NodeId, &p),
                            SeriesKind::Exponential => {
                                single_source_exponential_dense(&g, q as NodeId, &p)
                            }
                        };
                        assert_rows_close(row, &mem.query(q as NodeId), 1e-10, "access row");
                        assert_rows_close(row, &dense, 1e-10, "access vs dense");
                        assert_rows_close(batch.row(q), mem_batch.row(q), 1e-10, "access batch");
                        assert_rows_close(batch.row(q), &dense, 1e-10, "access batch vs dense");
                    }
                }
            }
        }
    }

    #[test]
    fn access_backing_reports_resident_bytes() {
        let g = graphs().remove(0);
        let p = SimStarParams::default();
        let acc = QueryEngine::with_access(access_of(&g), p, Default::default());
        let mem = QueryEngine::new(&g, p);
        assert!(acc.resident_bytes() > 0);
        assert!(mem.resident_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "edge concentration")]
    fn access_backing_rejects_compression() {
        let g = graphs().remove(0);
        let opts = QueryEngineOptions { compress: true, ..Default::default() };
        let _ = QueryEngine::with_access(access_of(&g), SimStarParams::default(), opts);
    }
}
