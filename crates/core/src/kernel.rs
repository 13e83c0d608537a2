//! The per-iteration kernel shared by every SimRank\* algorithm:
//! right-multiplication by `Qᵀ`,
//!
//! ```text
//! Y = X · Qᵀ,   Y[a, x] = (1/|I(x)|) · Σ_{y ∈ I(x)} X[a, y]
//! ```
//!
//! Theorem 2 needs exactly one such product per iteration (`Q Ŝ` is then
//! obtained as its transpose because `Ŝ` is symmetric), and Eq. (19)'s
//! `R_{k+1} = Q R_k` is the same kernel on transposed state.
//!
//! Two implementations share the [`RightMultiplier`] trait:
//!
//! * [`PlainRightMultiplier`] walks raw in-neighbor lists — `O(n(m+n))` per
//!   application (*iter-gSR\**);
//! * [`CompressedRightMultiplier`] walks the edge-concentrated graph,
//!   memoizing one partial sum per concentrator per lane — `O(n(m̃+n))`
//!   (*memo-gSR\** / *memo-eSR\**, the fine-grained memoization of
//!   Algorithm 1: `Partial^{s_k}_{π(v)}(a)` is computed once and reused by
//!   every node `x` whose in-set routes through concentrator `v`).
//!
//! ## Blocked execution
//!
//! Both kernels are *index-bound*: per output entry they read one adjacency
//! index and do one add. Processing input rows one at a time would re-read
//! the whole index structure `n` times. Instead rows are processed in blocks
//! of [`BLOCK`] *lanes*: the block is transposed into an `n × B` buffer so
//! each adjacency index is read once per block and the inner loop becomes a
//! contiguous `B`-wide vector add — the standard blocked-SpMM layout. Blocks
//! are independent; [`apply_row_blocks`] distributes them over scoped
//! threads for both [`RightMultiplier::apply_into`] and the all-pairs sweep.

use ssr_compress::{compress, CompressOptions, CompressedGraph};
use ssr_graph::{DiGraph, NeighborAccess};
use ssr_linalg::{available_threads, dispatch_row_blocks, Csr, Dense};
use std::sync::{Arc, Mutex};

/// Lanes per block. 16 f64 = two cache lines per accumulator row; large
/// enough to amortise index reads, small enough to keep the transposed
/// block in L2.
pub const BLOCK: usize = 16;

/// Abstraction over the two `X · Qᵀ` kernels.
pub trait RightMultiplier: Sync {
    /// Number of nodes `n` (the kernel maps `r×n` to `r×n`).
    fn node_count(&self) -> usize;

    /// Processes one transposed block: `xb` is `n × lanes` (lane-contiguous
    /// per node), `yb` receives the same layout.
    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize);

    /// Additions+assignments per row — `m + n` plain, `m̃ + n` compressed
    /// (the cost model of §4.3).
    fn work_per_row(&self) -> usize;

    /// Computes `Y = X · Qᵀ`.
    fn apply(&self, x: &Dense) -> Dense {
        let mut out = Dense::zeros(x.rows(), self.node_count());
        self.apply_into(x, &mut out);
        out
    }

    /// Computes `Y = X · Qᵀ` into a caller-owned buffer. Every entry of
    /// `out` is overwritten (the buffer may hold stale data), so the query
    /// engine can ping-pong two batch buffers with no allocation on the hot
    /// path. Products under `2^20` additions run on the caller's thread.
    fn apply_into(&self, x: &Dense, out: &mut Dense) {
        assert_eq!(x.cols(), self.node_count(), "dimension mismatch");
        assert_eq!((out.rows(), out.cols()), (x.rows(), self.node_count()), "output shape");
        let rows = x.rows();
        let threads =
            if rows * self.work_per_row() < PARALLEL_MIN_WORK { 1 } else { available_threads() };
        let block = pick_block_rows(rows, threads, 0);
        apply_row_blocks(self, x, out.as_mut_slice(), block, threads, &LaneBuffers::default());
    }
}

/// `rows · work_per_row` below which [`RightMultiplier::apply_into`] stays
/// on the caller's thread: the product is too small to pay for spawning.
const PARALLEL_MIN_WORK: usize = 1 << 20;

/// Pool of per-worker lane buffers (`(xb, yb)`, each `n × BLOCK` f64).
/// Above the allocator's mmap threshold a fresh pair per block would cost a
/// map + fault + unmap cycle each, so callers that dispatch repeatedly (the
/// all-pairs sweep, once per iteration) keep one pool for the whole run.
pub(crate) type LaneBuffers = Mutex<Vec<(Vec<f64>, Vec<f64>)>>;

/// Rows per dispatched block: an explicit request, or ~4 blocks per worker
/// rounded up to [`BLOCK`] lanes (self-balancing without drowning the work
/// queue in tiny blocks or ragged lane tails).
pub(crate) fn pick_block_rows(rows: usize, threads: usize, requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    rows.div_ceil(threads.max(1) * 4).div_ceil(BLOCK).max(1) * BLOCK
}

/// Computes `Y = X · Qᵀ` into `out` (row-major `x.rows() × n`, every entry
/// overwritten): rows split into blocks of `block_rows` dispatched over up
/// to `threads` workers ([`dispatch_row_blocks`]), each block run [`BLOCK`]
/// lanes at a time — transpose in, kernel, transpose out — through buffers
/// popped from `bufs`.
///
/// The lane width stays [`BLOCK`] even for the all-pairs sweep: the
/// transposed input block (`n × lanes` f64) must stay L2-resident, since
/// the kernel reads it at random per edge (measured: 64 lanes at `n = 8k`
/// is a 2× slowdown). A lane's arithmetic does not depend on which rows
/// share its block, so `block_rows` and `threads` change scheduling, never
/// bits.
pub(crate) fn apply_row_blocks<K: RightMultiplier + ?Sized>(
    kernel: &K,
    x: &Dense,
    out: &mut [f64],
    block_rows: usize,
    threads: usize,
    bufs: &LaneBuffers,
) {
    let n = x.cols();
    dispatch_row_blocks(out, n, block_rows, threads, |start_row, chunk| {
        let (mut xb, mut yb) = bufs
            .lock()
            .expect("lane buffer pool poisoned")
            .pop()
            .unwrap_or_else(|| (vec![0.0; n * BLOCK], vec![0.0; n * BLOCK]));
        let rows = chunk.len() / n;
        let mut r = 0;
        while r < rows {
            let lanes = BLOCK.min(rows - r);
            transpose_into(x, start_row + r, lanes, &mut xb);
            yb[..n * lanes].fill(0.0);
            kernel.apply_block(&xb, &mut yb, lanes);
            for (i, row) in chunk[r * n..(r + lanes) * n].chunks_exact_mut(n).enumerate() {
                for (xnode, o) in row.iter_mut().enumerate() {
                    *o = yb[xnode * lanes + i];
                }
            }
            r += lanes;
        }
        bufs.lock().expect("lane buffer pool poisoned").push((xb, yb));
    });
}

/// `xb[y·lanes + i] = x[r0+i][y]` — gathers `lanes` rows lane-contiguously.
fn transpose_into(x: &Dense, r0: usize, lanes: usize, xb: &mut [f64]) {
    for i in 0..lanes {
        let row = x.row(r0 + i);
        for (y, &v) in row.iter().enumerate() {
            xb[y * lanes + i] = v;
        }
    }
}

/// Adds `src` into `dst`, `lanes`-wide.
#[inline]
fn lane_add(dst: &mut [f64], src: &[f64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Scales `dst` by `f`, `lanes`-wide.
#[inline]
fn lane_scale(dst: &mut [f64], f: f64) {
    for d in dst.iter_mut() {
        *d *= f;
    }
}

/// `dst += f * src`, `lanes`-wide.
#[inline]
fn lane_axpy(dst: &mut [f64], src: &[f64], f: f64) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d += f * s;
    }
}

/// Uncompressed kernel over raw in-neighbor lists (CSR-packed).
pub struct PlainRightMultiplier {
    n: usize,
    offsets: Vec<usize>,
    sources: Vec<u32>,
    inv_deg: Vec<f64>,
}

impl PlainRightMultiplier {
    /// Approximate heap bytes of the packed adjacency.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.sources.len() * 4
            + self.inv_deg.len() * 8
    }

    /// Builds from a graph (packs the in-adjacency).
    pub fn new(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut sources = Vec::with_capacity(g.edge_count());
        let mut inv_deg = Vec::with_capacity(n);
        offsets.push(0);
        for v in g.nodes() {
            let nb = g.in_neighbors(v);
            sources.extend_from_slice(nb);
            offsets.push(sources.len());
            inv_deg.push(if nb.is_empty() { 0.0 } else { 1.0 / nb.len() as f64 });
        }
        PlainRightMultiplier { n, offsets, sources, inv_deg }
    }
}

impl PlainRightMultiplier {
    /// Fixed-width fast path: accumulate in an `L`-lane register block so
    /// the per-edge inner loop compiles to wide vector adds with no bounds
    /// checks and no per-edge stores to `yb` — the hot kernel of the
    /// all-pairs sweep.
    fn apply_block_fixed<const L: usize>(&self, xb: &[f64], yb: &mut [f64]) {
        // `yb` may be an over-sized scratch buffer; only the first `n·L`
        // entries are this block's output.
        for (xnode, dst) in yb[..self.n * L].chunks_exact_mut(L).enumerate() {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue; // yb already zeroed
            }
            let mut acc = [0.0f64; L];
            for &y in &self.sources[self.offsets[xnode]..self.offsets[xnode + 1]] {
                let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            for (d, a) in dst.iter_mut().zip(acc) {
                *d = a * inv;
            }
        }
    }
}

impl RightMultiplier for PlainRightMultiplier {
    fn node_count(&self) -> usize {
        self.n
    }

    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize) {
        match lanes {
            1 => return self.apply_block_fixed::<1>(xb, yb),
            BLOCK => return self.apply_block_fixed::<BLOCK>(xb, yb),
            _ => {}
        }
        for xnode in 0..self.n {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue; // yb already zeroed
            }
            let acc = &mut yb[xnode * lanes..(xnode + 1) * lanes];
            for &y in &self.sources[self.offsets[xnode]..self.offsets[xnode + 1]] {
                lane_add(acc, &xb[y as usize * lanes..(y as usize + 1) * lanes]);
            }
            lane_scale(acc, inv);
        }
    }

    fn work_per_row(&self) -> usize {
        self.sources.len() + self.n
    }
}

/// Memoized kernel over an edge-concentrated graph (Algorithm 1's
/// fine-grained partial sums, lanes-wide).
pub struct CompressedRightMultiplier {
    cg: CompressedGraph,
    inv_deg: Vec<f64>,
    /// Pool of per-block concentrator buffers (`|V̂| × BLOCK` f64 each).
    /// At realistic concentrator counts the buffer crosses the allocator's
    /// mmap threshold, and a fresh map + fault + unmap per block call costs
    /// more than the memoization saves — pooling keeps one warm buffer per
    /// concurrent caller.
    conc_pool: std::sync::Mutex<Vec<Vec<f64>>>,
}

impl CompressedRightMultiplier {
    /// Compresses `g` with `opts` and builds the kernel. Compression is the
    /// preprocessing phase the paper times separately in Figure 6(f); use
    /// [`CompressedRightMultiplier::from_compressed`] to split the phases.
    pub fn new(g: &DiGraph, opts: &CompressOptions) -> Self {
        Self::from_compressed(compress(g, opts))
    }

    /// Builds the kernel from an already-compressed graph.
    pub fn from_compressed(cg: CompressedGraph) -> Self {
        let n = cg.node_count();
        let mut inv_deg = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let d = cg.in_degree(v);
            inv_deg.push(if d == 0 { 0.0 } else { 1.0 / d as f64 });
        }
        CompressedRightMultiplier { cg, inv_deg, conc_pool: std::sync::Mutex::new(Vec::new()) }
    }

    /// The underlying compressed graph.
    pub fn compressed(&self) -> &CompressedGraph {
        &self.cg
    }

    /// Compression ratio achieved (paper footnote 15).
    pub fn compression_ratio(&self) -> f64 {
        self.cg.compression_ratio()
    }
}

impl CompressedRightMultiplier {
    /// Fixed-width fast path (see
    /// [`PlainRightMultiplier::apply_block_fixed`]): both the concentrator
    /// memoization and the assembly accumulate in `L`-lane register blocks.
    fn apply_block_fixed<const L: usize>(&self, xb: &[f64], yb: &mut [f64]) {
        let nc = self.cg.concentrator_count();
        // Pooled buffer; no zeroing needed — every slot is overwritten by
        // the memoization pass below (`copy_from_slice`, unconditionally).
        let mut conc = self.conc_pool.lock().expect("conc pool poisoned").pop().unwrap_or_default();
        conc.resize(nc * L, 0.0);
        for (v, dst) in conc.chunks_exact_mut(L).enumerate() {
            let mut acc = [0.0f64; L];
            for &y in self.cg.fanin(v as u32) {
                let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            dst.copy_from_slice(&acc);
        }
        // `yb` may be an over-sized scratch buffer; only the first `n·L`
        // entries are this block's output.
        for (xnode, dst) in yb[..self.cg.node_count() * L].chunks_exact_mut(L).enumerate() {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue;
            }
            let mut acc = [0.0f64; L];
            for &y in self.cg.direct_in(xnode as u32) {
                let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            for &c in self.cg.via(xnode as u32) {
                let src: &[f64; L] = conc[c as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += s;
                }
            }
            for (d, a) in dst.iter_mut().zip(acc) {
                *d = a * inv;
            }
        }
        self.conc_pool.lock().expect("conc pool poisoned").push(conc);
    }
}

impl RightMultiplier for CompressedRightMultiplier {
    fn node_count(&self) -> usize {
        self.cg.node_count()
    }

    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize) {
        match lanes {
            1 => return self.apply_block_fixed::<1>(xb, yb),
            BLOCK => return self.apply_block_fixed::<BLOCK>(xb, yb),
            _ => {}
        }
        // Algorithm 1 lines 5–7, lanes-wide: memoize Partial_{π(v)} for all
        // concentrators.
        let nc = self.cg.concentrator_count();
        let mut conc = vec![0.0; nc * lanes];
        for v in 0..nc {
            let acc = &mut conc[v * lanes..(v + 1) * lanes];
            for &y in self.cg.fanin(v as u32) {
                lane_add(acc, &xb[y as usize * lanes..(y as usize + 1) * lanes]);
            }
        }
        // Lines 8–10: assemble Partial_{I(x)} from direct + memoized parts.
        for xnode in 0..self.cg.node_count() {
            let inv = self.inv_deg[xnode];
            if inv == 0.0 {
                continue;
            }
            let acc = &mut yb[xnode * lanes..(xnode + 1) * lanes];
            for &y in self.cg.direct_in(xnode as u32) {
                lane_add(acc, &xb[y as usize * lanes..(y as usize + 1) * lanes]);
            }
            for &c in self.cg.via(xnode as u32) {
                lane_add(acc, &conc[c as usize * lanes..(c as usize + 1) * lanes]);
            }
            lane_scale(acc, inv);
        }
    }

    fn work_per_row(&self) -> usize {
        self.cg.compressed_edge_count() + self.cg.node_count()
    }
}

/// Blocked kernel `Y = X · Aᵀ` over an arbitrary **weighted** square CSR
/// matrix `A` — the same lane layout as the graph kernels, with explicit
/// per-entry weights instead of the uniform `1/|I(x)|` scaling.
///
/// The in-memory query engine owns one over `Q` (the Horner pass's dense
/// step `X·Qᵀ`) and one over `Qᵀ` (the forward pass's `X·Q = X·(Qᵀ)ᵀ`),
/// at one lane or a full block, and pushes sparse frontiers over the rows
/// of the wrapped [`CsrRightMultiplier::matrix`].
pub struct CsrRightMultiplier {
    a: Csr,
}

impl CsrRightMultiplier {
    /// Wraps a square CSR matrix `A`; the kernel computes `X · Aᵀ`.
    pub fn new(a: Csr) -> Self {
        assert_eq!(a.rows(), a.cols(), "square matrix required");
        CsrRightMultiplier { a }
    }

    /// The wrapped matrix.
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// Fixed-width fast path: accumulate each output row in an `L`-lane
    /// register block so the per-edge inner loop compiles to wide FMAs with
    /// no bounds checks — the hot kernel of the query engine's dense
    /// fallback.
    fn apply_block_fixed<const L: usize>(&self, xb: &[f64], yb: &mut [f64]) {
        for (xnode, dst) in yb[..self.a.rows() * L].chunks_exact_mut(L).enumerate() {
            let mut acc = [0.0f64; L];
            let mut nonempty = false;
            for (y, v) in self.a.row_entries(xnode) {
                let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                for (a, s) in acc.iter_mut().zip(src) {
                    *a += v * s;
                }
                nonempty = true;
            }
            if nonempty {
                for (d, a) in dst.iter_mut().zip(acc) {
                    *d += a;
                }
            }
        }
    }
}

impl RightMultiplier for CsrRightMultiplier {
    fn node_count(&self) -> usize {
        self.a.rows()
    }

    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize) {
        match lanes {
            1 => return self.apply_block_fixed::<1>(xb, yb),
            BLOCK => return self.apply_block_fixed::<BLOCK>(xb, yb),
            _ => {}
        }
        for xnode in 0..self.a.rows() {
            let acc = &mut yb[xnode * lanes..(xnode + 1) * lanes];
            for (y, v) in self.a.row_entries(xnode) {
                lane_axpy(acc, &xb[y as usize * lanes..(y as usize + 1) * lanes], v);
            }
        }
    }

    fn work_per_row(&self) -> usize {
        self.a.nnz() + self.a.rows()
    }
}

/// Blocked kernel over a [`NeighborAccess`] backing — the engines' dense
/// fallback when the graph is *not* materialised as CSR matrices (e.g. a
/// random-access `.ssg` store decoding adjacency off compressed bytes).
///
/// Two shapes, both driven by the shared `1/|I(v)|` weights:
///
/// * [`AccessRightMultiplier::q`] computes `Y = X·Qᵀ`
///   (`yb[x] = inv_in[x]·Σ_{y ∈ I(x)} xb[y]` — one in-list walk per node,
///   exactly [`PlainRightMultiplier`]'s add-then-scale arithmetic);
/// * [`AccessRightMultiplier::q_transpose`] computes `Y = X·Q`
///   (`yb[x] = Σ_{j ∈ O(x)} inv_in[j]·xb[j]` — one out-list walk per node
///   with per-target weights, the θ-direction advance).
pub struct AccessRightMultiplier {
    src: Arc<dyn NeighborAccess>,
    inv_in: Arc<Vec<f64>>,
    transposed: bool,
}

impl AccessRightMultiplier {
    /// Wraps `Q` (in-neighbor walks): the kernel computes `X·Qᵀ`.
    pub fn q(src: Arc<dyn NeighborAccess>, inv_in: Arc<Vec<f64>>) -> Self {
        assert_eq!(src.node_count(), inv_in.len(), "weights per node");
        AccessRightMultiplier { src, inv_in, transposed: false }
    }

    /// Wraps `Qᵀ` (out-neighbor walks): the kernel computes `X·Q`.
    pub fn q_transpose(src: Arc<dyn NeighborAccess>, inv_in: Arc<Vec<f64>>) -> Self {
        assert_eq!(src.node_count(), inv_in.len(), "weights per node");
        AccessRightMultiplier { src, inv_in, transposed: true }
    }

    /// Row `i` of the wrapped matrix as `f(col, weight)`, columns ascending:
    /// for `Q`, the in-list `I(i)` weighted `1/|I(i)|`; for `Qᵀ`, the
    /// out-list `O(i)` with entry `j` weighted `1/|I(j)|` (every
    /// out-neighbor has in-degree ≥ 1). The query engine's sparse pushes
    /// walk these rows.
    pub(crate) fn for_each_row_entry(&self, i: u32, mut f: impl FnMut(u32, f64)) {
        if self.transposed {
            self.src.for_each_out(i, &mut |j| f(j, self.inv_in[j as usize]));
        } else {
            let w = self.inv_in[i as usize];
            if w != 0.0 {
                self.src.for_each_in(i, &mut |y| f(y, w));
            }
        }
    }

    /// The access source's own resident accounting plus the `O(n)` weight
    /// vector.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.src.resident_bytes() + self.inv_in.len() * std::mem::size_of::<f64>()
    }

    /// Fixed-width fast path, mirroring the other kernels' register-block
    /// accumulation (the virtual per-node neighbor call dominates here, but
    /// the lane arithmetic still vectorizes).
    fn apply_block_fixed<const L: usize>(&self, xb: &[f64], yb: &mut [f64]) {
        let n = self.inv_in.len();
        for (xnode, dst) in yb[..n * L].chunks_exact_mut(L).enumerate() {
            let mut acc = [0.0f64; L];
            if self.transposed {
                self.src.for_each_out(xnode as u32, &mut |j| {
                    let w = self.inv_in[j as usize];
                    let src: &[f64; L] = xb[j as usize * L..][..L].try_into().expect("L lanes");
                    for (a, s) in acc.iter_mut().zip(src) {
                        *a += w * s;
                    }
                });
                for (d, a) in dst.iter_mut().zip(acc) {
                    *d += a;
                }
            } else {
                let inv = self.inv_in[xnode];
                if inv == 0.0 {
                    continue;
                }
                self.src.for_each_in(xnode as u32, &mut |y| {
                    let src: &[f64; L] = xb[y as usize * L..][..L].try_into().expect("L lanes");
                    for (a, s) in acc.iter_mut().zip(src) {
                        *a += s;
                    }
                });
                for (d, a) in dst.iter_mut().zip(acc) {
                    *d += a * inv;
                }
            }
        }
    }
}

impl RightMultiplier for AccessRightMultiplier {
    fn node_count(&self) -> usize {
        self.inv_in.len()
    }

    fn apply_block(&self, xb: &[f64], yb: &mut [f64], lanes: usize) {
        match lanes {
            1 => return self.apply_block_fixed::<1>(xb, yb),
            BLOCK => return self.apply_block_fixed::<BLOCK>(xb, yb),
            _ => {}
        }
        for xnode in 0..self.inv_in.len() {
            if self.transposed {
                let dst_range = xnode * lanes..(xnode + 1) * lanes;
                self.src.for_each_out(xnode as u32, &mut |j| {
                    let w = self.inv_in[j as usize];
                    // Split borrows: `yb[dst] += w·xb[src]` with dst ≠ src
                    // rows guaranteed by the two separate buffers.
                    lane_axpy(
                        &mut yb[dst_range.clone()],
                        &xb[j as usize * lanes..(j as usize + 1) * lanes],
                        w,
                    );
                });
            } else {
                let inv = self.inv_in[xnode];
                if inv == 0.0 {
                    continue;
                }
                let mut acc = vec![0.0; lanes];
                self.src.for_each_in(xnode as u32, &mut |y| {
                    lane_add(&mut acc, &xb[y as usize * lanes..(y as usize + 1) * lanes]);
                });
                for (d, a) in yb[xnode * lanes..(xnode + 1) * lanes].iter_mut().zip(acc) {
                    *d += a * inv;
                }
            }
        }
    }

    fn work_per_row(&self) -> usize {
        self.src.edge_count() + self.inv_in.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_linalg::Csr;

    fn fig1_like() -> DiGraph {
        DiGraph::from_edges(
            11,
            &[
                (0, 1),
                (0, 3),
                (0, 4),
                (1, 2),
                (1, 5),
                (1, 6),
                (1, 8),
                (3, 2),
                (3, 6),
                (3, 8),
                (4, 7),
                (4, 8),
                (5, 3),
                (7, 8),
                (9, 7),
                (9, 8),
                (10, 7),
                (10, 8),
            ],
        )
        .unwrap()
    }

    fn random_dense(rows: usize, cols: usize, seed: u64) -> Dense {
        let mut d = Dense::zeros(rows, cols);
        let mut s = seed;
        for i in 0..rows {
            for j in 0..cols {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                d.set(i, j, ((s >> 33) as f64) / (u32::MAX as f64));
            }
        }
        d
    }

    #[test]
    fn plain_kernel_matches_csr() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 1);
        let kernel = PlainRightMultiplier::new(&g);
        let y = kernel.apply(&x);
        // Reference: X · Qᵀ via explicit sparse transpose.
        let q = Csr::backward_transition(&g);
        let reference = q.mul_dense(&x.transpose()).transpose();
        assert!(y.approx_eq(&reference, 1e-12));
    }

    #[test]
    fn compressed_kernel_matches_plain() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 2);
        let plain = PlainRightMultiplier::new(&g);
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        assert!(memo.apply(&x).approx_eq(&plain.apply(&x), 1e-12));
    }

    #[test]
    fn compressed_work_is_smaller_on_fig1() {
        let g = fig1_like();
        let plain = PlainRightMultiplier::new(&g);
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        assert!(memo.work_per_row() < plain.work_per_row());
        // Paper: m̃ = m - 2 on the Figure 4 example.
        assert_eq!(memo.work_per_row(), plain.work_per_row() - 2);
    }

    #[test]
    fn empty_in_set_rows_are_zero() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 3);
        let kernel = PlainRightMultiplier::new(&g);
        let y = kernel.apply(&x);
        // Node 0 (= a), 9 (= j), 10 (= k) have no in-neighbors.
        for a in 0..n {
            for &src in &[0usize, 9, 10] {
                assert_eq!(y.get(a, src), 0.0);
            }
        }
    }

    #[test]
    fn non_square_and_non_block_multiple_inputs() {
        // Eq. (19) applies the kernel to rectangular blocks; row counts that
        // are not multiples of BLOCK must work too.
        let g = fig1_like();
        let plain = PlainRightMultiplier::new(&g);
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        for rows in [1usize, 3, BLOCK, BLOCK + 1, 2 * BLOCK + 5] {
            let x = random_dense(rows, g.node_count(), 4 + rows as u64);
            assert!(memo.apply(&x).approx_eq(&plain.apply(&x), 1e-12), "rows = {rows}");
        }
    }

    #[test]
    fn csr_kernel_matches_plain_on_q_and_transposes_to_left_mul() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 5);
        let q = Csr::backward_transition(&g);
        // Wrapping Q computes X·Qᵀ, i.e. exactly the plain kernel.
        let via_csr = CsrRightMultiplier::new(q.clone()).apply(&x);
        let via_plain = PlainRightMultiplier::new(&g).apply(&x);
        assert!(via_csr.approx_eq(&via_plain, 1e-12));
        // Wrapping Qᵀ computes X·Q (the θ-direction advance).
        let via_qt = CsrRightMultiplier::new(q.transpose()).apply(&x);
        let reference = x.matmul(&q.to_dense());
        assert!(via_qt.approx_eq(&reference, 1e-12));
    }

    fn inv_in_of(g: &DiGraph) -> Arc<Vec<f64>> {
        Arc::new(
            g.nodes()
                .map(|v| match g.in_degree(v) {
                    0 => 0.0,
                    d => 1.0 / d as f64,
                })
                .collect(),
        )
    }

    #[test]
    fn access_kernels_match_csr_kernels() {
        let g = fig1_like();
        let n = g.node_count();
        let q = Csr::backward_transition(&g);
        let inv_in = inv_in_of(&g);
        let src: Arc<dyn NeighborAccess> = Arc::new(g.clone());
        let aq = AccessRightMultiplier::q(src.clone(), inv_in.clone());
        let aqt = AccessRightMultiplier::q_transpose(src, inv_in);
        // Both shapes, both the 16-lane fast path and ragged lane counts.
        for rows in [1usize, 3, BLOCK, BLOCK + 1, 2 * BLOCK + 5] {
            let x = random_dense(rows, n, 8 + rows as u64);
            let want_q = CsrRightMultiplier::new(q.clone()).apply(&x);
            assert!(aq.apply(&x).approx_eq(&want_q, 1e-12), "q, rows={rows}");
            let want_qt = CsrRightMultiplier::new(q.transpose()).apply(&x);
            assert!(aqt.apply(&x).approx_eq(&want_qt, 1e-12), "qt, rows={rows}");
        }
        assert_eq!(aq.work_per_row(), g.edge_count() + n);
    }

    #[test]
    fn apply_into_overwrites_dirty_buffers() {
        let g = fig1_like();
        let n = g.node_count();
        let x = random_dense(n, n, 6);
        let kernel = PlainRightMultiplier::new(&g);
        let clean = kernel.apply(&x);
        let mut dirty = random_dense(n, n, 7);
        kernel.apply_into(&x, &mut dirty);
        assert!(dirty.approx_eq(&clean, 0.0));
    }

    fn graph_300() -> DiGraph {
        let mut edges = Vec::new();
        let mut s = 7u64;
        for _ in 0..3000 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((s >> 33) % 300) as u32;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = ((s >> 33) % 300) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        DiGraph::from_edges(300, &edges).unwrap()
    }

    #[test]
    fn larger_graph_parallel_path_consistent() {
        // Result must equal the CSR reference exactly.
        let g = graph_300();
        let x = random_dense(300, 300, 11);
        let plain = PlainRightMultiplier::new(&g);
        let q = Csr::backward_transition(&g);
        let reference = q.mul_dense(&x.transpose()).transpose();
        assert!(plain.apply(&x).approx_eq(&reference, 1e-10));
        let memo = CompressedRightMultiplier::new(&g, &CompressOptions::default());
        assert!(memo.apply(&x).approx_eq(&reference, 1e-10));
    }

    #[test]
    fn rows_are_independent_of_block_grouping() {
        // Each lane's arithmetic is the same whichever rows share its block:
        // the whole product equals, bit for bit, the product of every
        // 1-row slice, and any block split or thread count.
        let g = graph_300();
        let n = g.node_count();
        let q = Csr::backward_transition(&g);
        let src: Arc<dyn NeighborAccess> = Arc::new(g.clone());
        let kernels: Vec<Box<dyn RightMultiplier>> = vec![
            Box::new(PlainRightMultiplier::new(&g)),
            Box::new(CompressedRightMultiplier::new(&g, &CompressOptions::default())),
            Box::new(CsrRightMultiplier::new(q.transpose())),
            Box::new(AccessRightMultiplier::q(src, inv_in_of(&g))),
        ];
        let x = random_dense(n, n, 12);
        for (k, kernel) in kernels.iter().enumerate() {
            let whole = kernel.apply(&x);
            for r in 0..n {
                let mut one = Dense::zeros(1, n);
                one.row_mut(0).copy_from_slice(x.row(r));
                assert_eq!(kernel.apply(&one).row(0), whole.row(r), "kernel {k}, row {r}");
            }
            let mut split = Dense::zeros(n, n);
            let bufs = LaneBuffers::default();
            apply_row_blocks(kernel.as_ref(), &x, split.as_mut_slice(), 5, 2, &bufs);
            assert_eq!(split.as_slice(), whole.as_slice(), "kernel {k}, 5-row blocks");
        }
    }
}
