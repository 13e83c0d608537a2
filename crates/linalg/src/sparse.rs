use crate::dense::{num_threads, Dense};
use ssr_graph::DiGraph;

/// Compressed-sparse-row `f64` matrix.
///
/// Rows hold column indices in ascending order. The two graph constructors
/// produce the stochastic matrices of the paper:
///
/// * [`Csr::backward_transition`] — `Q` with `Q[i][j] = 1/|I(i)|` if
///   `j -> i ∈ E` (row-normalised `Aᵀ`), the operator of SimRank and
///   SimRank\*. Rows of nodes with `I(i) = ∅` are empty (all-zero), exactly
///   matching the `s(a, b) = 0 if I(a) = ∅` base case.
/// * [`Csr::forward_transition`] — `W` with `W[i][j] = 1/|O(i)|` if
///   `i -> j ∈ E`, the operator of RWR/PPR.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl Csr {
    /// Builds from `(row, col, value)` triplets. Duplicate coordinates are
    /// summed. Panics if any coordinate is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f64)]) -> Self {
        let mut t: Vec<(u32, u32, f64)> = triplets.to_vec();
        for &(r, c, _) in &t {
            assert!((r as usize) < rows && (c as usize) < cols, "triplet out of range");
        }
        t.sort_by_key(|&(r, c, _)| (r, c));
        let mut indptr = vec![0usize; rows + 1];
        let mut indices = Vec::with_capacity(t.len());
        let mut values: Vec<f64> = Vec::with_capacity(t.len());
        let mut i = 0;
        for r in 0..rows {
            while i < t.len() && t[i].0 as usize == r {
                let c = t[i].1;
                let mut v = t[i].2;
                i += 1;
                while i < t.len() && t[i].0 as usize == r && t[i].1 == c {
                    v += t[i].2;
                    i += 1;
                }
                indices.push(c);
                values.push(v);
            }
            indptr[r + 1] = indices.len();
        }
        Csr { rows, cols, indptr, indices, values }
    }

    /// The backward transition matrix `Q` of the paper (row-normalised `Aᵀ`).
    pub fn backward_transition(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(g.edge_count());
        let mut values = Vec::with_capacity(g.edge_count());
        indptr.push(0);
        for i in g.nodes() {
            let nb = g.in_neighbors(i);
            if !nb.is_empty() {
                let w = 1.0 / nb.len() as f64;
                for &j in nb {
                    indices.push(j);
                    values.push(w);
                }
            }
            indptr.push(indices.len());
        }
        Csr { rows: n, cols: n, indptr, indices, values }
    }

    /// The forward transition matrix `W` of RWR (row-normalised `A`).
    pub fn forward_transition(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(g.edge_count());
        let mut values = Vec::with_capacity(g.edge_count());
        indptr.push(0);
        for i in g.nodes() {
            let nb = g.out_neighbors(i);
            if !nb.is_empty() {
                let w = 1.0 / nb.len() as f64;
                for &j in nb {
                    indices.push(j);
                    values.push(w);
                }
            }
            indptr.push(indices.len());
        }
        Csr { rows: n, cols: n, indptr, indices, values }
    }

    /// The (unweighted) adjacency matrix `A` of a graph.
    pub fn adjacency(g: &DiGraph) -> Self {
        let n = g.node_count();
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::with_capacity(g.edge_count());
        indptr.push(0);
        for i in g.nodes() {
            indices.extend_from_slice(g.out_neighbors(i));
            indptr.push(indices.len());
        }
        let values = vec![1.0; indices.len()];
        Csr { rows: n, cols: n, indptr, indices, values }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column, value)` pairs of row `i`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (u32, f64)> + '_ {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        self.indices[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// Sum of row `i`'s values (1.0 for stochastic rows, 0.0 for empty ones).
    pub fn row_sum(&self, i: usize) -> f64 {
        self.values[self.indptr[i]..self.indptr[i + 1]].iter().sum()
    }

    /// `Mᵀ` (entries re-bucketed by column).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = counts;
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let pos = cursor[c as usize];
                indices[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        Csr { rows: self.cols, cols: self.rows, indptr, indices, values }
    }

    /// Dense product `self · B` — the per-iteration kernel of SimRank\*
    /// (Theorem 2 needs exactly one of these per iteration). Parallelised
    /// over output-row blocks.
    pub fn mul_dense(&self, b: &Dense) -> Dense {
        assert_eq!(self.cols, b.rows(), "dimension mismatch");
        let bc = b.cols();
        let mut out = Dense::zeros(self.rows, bc);
        let work = self.nnz() * bc;
        let threads = num_threads();
        if work < 1 << 22 || threads == 1 || self.rows < 2 {
            self.mul_dense_rows(b, out.as_mut_slice(), 0, self.rows);
            return out;
        }
        let rows_per = self.rows.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, chunk) in out.as_mut_slice().chunks_mut(rows_per * bc).enumerate() {
                let start = t * rows_per;
                let me = &*self;
                scope.spawn(move || {
                    let nrows = chunk.len() / bc;
                    me.mul_dense_into(b, chunk, start, start + nrows);
                });
            }
        });
        out
    }

    fn mul_dense_rows(&self, b: &Dense, out: &mut [f64], lo: usize, hi: usize) {
        self.mul_dense_into(b, out, lo, hi)
    }

    /// Writes rows `lo..hi` of `self · B` into `out` (which holds exactly
    /// those rows).
    fn mul_dense_into(&self, b: &Dense, out: &mut [f64], lo: usize, hi: usize) {
        let bc = b.cols();
        for r in lo..hi {
            let out_row = &mut out[(r - lo) * bc..(r - lo + 1) * bc];
            for (c, v) in self.row_entries(r) {
                let b_row = b.row(c as usize);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += v * bv;
                }
            }
        }
    }

    /// Dense matrix-vector product `self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// `self · x` written into a caller-owned buffer (every entry of `out`
    /// is overwritten; no allocation).
    // Out of line, like `vec_mul_into`: inlined into the dense lattice
    // sweep (`single_source`), LLVM's code for both ran the sweep ~30%
    // slower (`exp_query_engine --smoke`, naive mode, 2-core x86-64).
    #[inline(never)]
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(self.cols, x.len(), "dimension mismatch");
        assert_eq!(self.rows, out.len(), "output dimension mismatch");
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.row_entries(r).map(|(c, v)| v * x[c as usize]).sum();
        }
    }

    /// `xᵀ · self` (left multiplication by a row vector).
    pub fn vec_mul(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.vec_mul_into(x, &mut y);
        y
    }

    /// `xᵀ · self` written into a caller-owned buffer (every entry of `out`
    /// is overwritten; no allocation).
    #[inline(never)]
    pub fn vec_mul_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(self.rows, x.len(), "dimension mismatch");
        assert_eq!(self.cols, out.len(), "output dimension mismatch");
        out.fill(0.0);
        for (r, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            for (c, v) in self.row_entries(r) {
                out[c as usize] += xv * v;
            }
        }
    }

    /// Materialises the dense form (test/debug helper; `O(rows·cols)`).
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                d.add_to(r, c as usize, v);
            }
        }
        d
    }

    /// Estimated resident bytes (Fig. 6(h) accounting).
    pub fn estimated_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<u32>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn backward_transition_rows_are_stochastic_or_empty() {
        let g = diamond();
        let q = Csr::backward_transition(&g);
        assert_eq!(q.row_sum(0), 0.0); // I(0) = ∅
        assert!((q.row_sum(1) - 1.0).abs() < 1e-12);
        assert!((q.row_sum(3) - 1.0).abs() < 1e-12);
        // Q[3] = {1: 0.5, 2: 0.5}
        let entries: Vec<_> = q.row_entries(3).collect();
        assert_eq!(entries, vec![(1, 0.5), (2, 0.5)]);
    }

    #[test]
    fn forward_transition_matches_out_neighbors() {
        let g = diamond();
        let w = Csr::forward_transition(&g);
        let entries: Vec<_> = w.row_entries(0).collect();
        assert_eq!(entries, vec![(1, 0.5), (2, 0.5)]);
        assert_eq!(w.row_sum(3), 0.0); // O(3) = ∅
    }

    #[test]
    fn adjacency_counts_paths_when_powered() {
        let g = diamond();
        let a = Csr::adjacency(&g).to_dense();
        let a2 = a.matmul(&a);
        // Two paths of length 2 from 0 to 3.
        assert_eq!(a2.get(0, 3), 2.0);
    }

    #[test]
    fn mul_dense_equals_dense_matmul() {
        let g = diamond();
        let q = Csr::backward_transition(&g);
        let s = Dense::from_rows(&[
            vec![1.0, 0.1, 0.2, 0.3],
            vec![0.1, 1.0, 0.4, 0.5],
            vec![0.2, 0.4, 1.0, 0.6],
            vec![0.3, 0.5, 0.6, 1.0],
        ]);
        let sparse_way = q.mul_dense(&s);
        let dense_way = q.to_dense().matmul(&s);
        assert!(sparse_way.approx_eq(&dense_way, 1e-12));
    }

    #[test]
    fn transpose_involution() {
        let g = diamond();
        let q = Csr::backward_transition(&g);
        let qtt = q.transpose().transpose();
        assert!(qtt.to_dense().approx_eq(&q.to_dense(), 0.0));
    }

    #[test]
    fn transpose_of_dense_agrees() {
        let g = diamond();
        let q = Csr::backward_transition(&g);
        assert!(q.transpose().to_dense().approx_eq(&q.to_dense().transpose(), 0.0));
    }

    #[test]
    fn mul_vec_and_vec_mul() {
        let g = diamond();
        let q = Csr::backward_transition(&g);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = q.mul_vec(&x);
        // Row 3 of Q = {1:0.5, 2:0.5} => y[3] = 0.5*2 + 0.5*3 = 2.5
        assert!((y[3] - 2.5).abs() < 1e-12);
        // vec_mul equals mul_vec on the transpose.
        let yt = q.transpose().vec_mul(&x);
        let y2 = q.mul_vec(&x);
        for (a, b) in yt.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 5.0)]);
        assert_eq!(m.nnz(), 2);
        let d = m.to_dense();
        assert_eq!(d.get(0, 1), 3.0);
        assert_eq!(d.get(1, 0), 5.0);
    }

    #[test]
    fn from_triplets_empty_rows() {
        let m = Csr::from_triplets(4, 4, &[(2, 0, 1.0)]);
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.row_entries(2).count(), 1);
        assert_eq!(m.row_entries(3).count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_triplets_bounds_checked() {
        let _ = Csr::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn empty_matrix() {
        let m = Csr::from_triplets(0, 0, &[]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 0);
    }
}
