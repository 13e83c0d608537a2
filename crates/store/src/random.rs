//! Random access into a `.ssg` v2 store without materialising a CSR.
//!
//! [`RandomAccessStore`] keeps only O(n) state resident — per-direction
//! degree arrays, the Elias-Fano offset indexes and the optional layout
//! permutation — while the compressed adjacency stays on disk, reached
//! through a memory map (or, with `SSR_STORE_NO_MMAP=1`, a buffer read
//! at open; see `mmap`). Any node's neighbor list is one Elias-Fano
//! select for its block's byte range plus one bounded varint decode of
//! that block alone, straight from the mapped bytes into the caller's
//! callback: no row cache, no lock, no allocation per row.
//!
//! The store implements [`NeighborAccess`] in the **original** id space:
//! for permuted files each request maps through the stored layout, and
//! the decoded row is mapped back and re-sorted in a per-thread buffer
//! before it is delivered, so engines see bit-identical adjacency
//! regardless of the on-disk order.
//!
//! Open cost is one streaming pass over both adjacency sections: it
//! checksums them, proves every block decodes and sits exactly where the
//! offset index claims, and collects the degree arrays. After that no
//! code path can hit corrupt bytes. [`crate::StoreWriter::write_file`]
//! replaces files by rename, so rewriting a store never changes the
//! bytes an open handle maps; a file truncated or modified in place
//! underneath the handle panics rather than returning wrong neighbors.

use crate::checksum::checksum64;
use crate::format::{Header, SectionInfo, SECTION_IN, SECTION_OUT};
use crate::mmap::Region;
use crate::reader::unzigzag;
use crate::varint::read_varint;
use crate::{EliasFano, StoreError, StoreReader};
use ssr_graph::{NeighborAccess, NodeId, Permutation};
use std::cell::Cell;
use std::ops::Range;
use std::path::Path;

/// A `.ssg` v2 file served node-by-node straight off the compressed
/// bytes.
pub struct RandomAccessStore {
    region: Region,
    n: usize,
    m: usize,
    out: DirectionState,
    inc: DirectionState,
    perm: Option<Permutation>,
    meta: Vec<(String, String)>,
    /// Resident bytes, fixed at open: degree arrays, offset indexes,
    /// permutation maps, and the file buffer when not mapped.
    resident_bytes: usize,
}

struct DirectionState {
    /// The adjacency section's byte range within the file.
    payload: Range<usize>,
    index: EliasFano,
    /// Degrees in the original id space.
    degree: Vec<u32>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Out,
    In,
}

thread_local! {
    /// Reusable row buffer for permuted stores. Taken out for the length
    /// of one row and put back afterwards, so a callback that reads the
    /// store again finds it empty and allocates its own instead of
    /// aliasing the caller's row.
    static PERMUTED_ROW: Cell<Vec<NodeId>> = const { Cell::new(Vec::new()) };
}

impl RandomAccessStore {
    /// Opens `path`: header/index/permutation validation via
    /// [`StoreReader::open`], then one streaming scan per adjacency
    /// section (checksum + per-block structure + offset-index agreement)
    /// that also collects the degree arrays.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<RandomAccessStore, StoreError> {
        let region = Region::open(path.as_ref()).map_err(StoreError::from)?;
        Self::open_region(path.as_ref(), region)
    }

    /// [`RandomAccessStore::open`] over an already-opened `region` of the
    /// file at `path`.
    fn open_region(path: &Path, region: Region) -> Result<RandomAccessStore, StoreError> {
        let reader = StoreReader::open(path)?;
        if reader.version() < 2 {
            return Err(StoreError::Corrupt {
                message: format!(
                    "random access needs a v2 store (this file is v{}); rebuild it with \
                     `store build`",
                    reader.version()
                ),
            });
        }
        let parts = reader.into_parts();
        let (header, meta, out_index, in_index, perm) =
            (parts.header, parts.meta, parts.out_index, parts.in_index, parts.perm);
        // Present whenever the adjacency section is — StoreReader::open
        // enforced that for v2 files.
        let out_index = out_index.expect("v2 open validated the out-offset index");
        let in_index = in_index.expect("v2 open validated the in-offset index");
        let n = header.nodes as usize;
        let m = header.edges as usize;

        let out_info = section(&header, SECTION_OUT)?;
        let in_info = section(&header, SECTION_IN)?;
        let out_payload = payload_range(&region, &out_info)?;
        let in_payload = payload_range(&region, &in_info)?;
        let bytes = region.bytes();
        let (out_deg, out_digest) =
            scan_direction(&bytes[out_payload.clone()], &out_info, &out_index, n, m, Dir::Out)?;
        let (in_deg, in_digest) =
            scan_direction(&bytes[in_payload.clone()], &in_info, &in_index, n, m, Dir::In)?;
        if out_digest != in_digest {
            return Err(StoreError::Corrupt {
                message: "out- and in-adjacency sections describe different edge sets".into(),
            });
        }
        let (out_degree, in_degree) = match &perm {
            None => (out_deg, in_deg),
            Some(p) => {
                let remap = |stored: Vec<u32>| -> Vec<u32> {
                    (0..n as NodeId).map(|old| stored[p.to_new(old) as usize]).collect()
                };
                (remap(out_deg), remap(in_deg))
            }
        };

        let resident_bytes = (out_degree.len() + in_degree.len()) * 4
            + out_index.resident_bytes()
            + in_index.resident_bytes()
            + perm.as_ref().map_or(0, |p| p.len() * 8)
            + region.resident_bytes();
        Ok(RandomAccessStore {
            region,
            n,
            m,
            out: DirectionState { payload: out_payload, index: out_index, degree: out_degree },
            inc: DirectionState { payload: in_payload, index: in_index, degree: in_degree },
            perm,
            meta,
            resident_bytes,
        })
    }

    /// All metadata pairs from the container.
    pub fn metadata(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Looks up one metadata value.
    pub fn meta(&self, key: &str) -> Option<&str> {
        self.meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether the stored layout is relabeled (ids are mapped back
    /// transparently either way).
    pub fn is_permuted(&self) -> bool {
        self.perm.is_some()
    }

    /// Whether adjacency reads go through a memory mapping (as opposed
    /// to a buffer read at open).
    pub fn is_mapped(&self) -> bool {
        self.region.is_mapped()
    }

    /// Resident heap bytes: degree arrays + offset indexes + permutation,
    /// plus the whole file when it is buffered rather than mapped. Fixed
    /// at open. A mapped file is not counted — the kernel pages it in and
    /// out on demand.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Calls `f` for every neighbor of `v` in direction `dir`, ascending,
    /// in the original id space.
    fn for_each(&self, dir: Dir, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        assert!((v as usize) < self.n, "node {v} out of range ({} nodes)", self.n);
        let state = match dir {
            Dir::Out => &self.out,
            Dir::In => &self.inc,
        };
        // Open-time validation proved every block decodes cleanly and the
        // index tells the truth; a failure here means the file changed
        // underneath the open handle, and panicking beats silently
        // computing on garbage adjacency.
        const CHANGED: &str = "store block changed after open-time validation";
        let Some(p) = &self.perm else {
            decode_block(self.block(state, v), v, self.n, f).expect(CHANGED);
            return;
        };
        let stored = p.to_new(v);
        let mut row = PERMUTED_ROW.take();
        row.clear();
        decode_block(self.block(state, stored), stored, self.n, |w| row.push(p.to_old(w)))
            .expect(CHANGED);
        row.sort_unstable();
        for &w in &row {
            f(w);
        }
        PERMUTED_ROW.set(row);
    }

    /// The encoded block of stored node `stored`.
    fn block(&self, state: &DirectionState, stored: NodeId) -> &[u8] {
        let (start, end) = state.index.range(stored as usize);
        &self.region.bytes()[state.payload.clone()][start as usize..end as usize]
    }
}

impl NeighborAccess for RandomAccessStore {
    fn node_count(&self) -> usize {
        self.n
    }

    fn edge_count(&self) -> usize {
        self.m
    }

    fn out_degree(&self, v: NodeId) -> usize {
        self.out.degree[v as usize] as usize
    }

    fn in_degree(&self, v: NodeId) -> usize {
        self.inc.degree[v as usize] as usize
    }

    fn for_each_out(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.for_each(Dir::Out, v, f);
    }

    fn for_each_in(&self, v: NodeId, f: &mut dyn FnMut(NodeId)) {
        self.for_each(Dir::In, v, f);
    }

    fn resident_bytes(&self) -> usize {
        RandomAccessStore::resident_bytes(self)
    }
}

/// The byte range of a section's payload, checked against the file.
fn payload_range(region: &Region, info: &SectionInfo) -> Result<Range<usize>, StoreError> {
    match info.offset.checked_add(info.len) {
        Some(end) if end <= region.bytes().len() as u64 => Ok(info.offset as usize..end as usize),
        _ => Err(StoreError::Truncated { context: "section payload" }),
    }
}

fn section(header: &Header, id: u32) -> Result<SectionInfo, StoreError> {
    header.section(id).ok_or(StoreError::MissingSection { section: id })
}

/// One streaming pass over an adjacency section: checksum, every block
/// decoded at exactly the byte range its index entry claims, total id
/// count against the header. Returns stored-space degrees plus the
/// order-independent edge-set digest — with no degree varints the offset
/// index is load-bearing, so the caller cross-checks the two directions'
/// digests to prove both sections (and both indexes) describe one edge
/// set.
fn scan_direction(
    payload: &[u8],
    info: &SectionInfo,
    index: &EliasFano,
    n: usize,
    m: usize,
    dir: Dir,
) -> Result<(Vec<u32>, u64), StoreError> {
    let id = info.id;
    if checksum64(payload) != info.checksum {
        return Err(StoreError::ChecksumMismatch { section: id });
    }
    let mut degrees: Vec<u32> = Vec::with_capacity(n);
    let mut digest = 0u64;
    let mut total = 0usize;
    // Walk the index sequentially — `range` would pay a select per node
    // on what is a full linear pass.
    let mut bounds = index.iter();
    let mut start = bounds.next().expect("open validated the index holds n + 1 entries");
    for p in 0..n {
        let end = bounds.next().expect("open validated the index holds n + 1 entries");
        if start > end || end > payload.len() as u64 {
            return Err(StoreError::Corrupt {
                message: format!(
                    "offset index for section {id} claims block {p} spans {start}..{end} in a \
                     {}-byte payload",
                    payload.len()
                ),
            });
        }
        let mut degree = 0u32;
        decode_block(&payload[start as usize..end as usize], p as NodeId, n, |w| {
            degree += 1;
            digest ^= match dir {
                Dir::Out => ssr_graph::edge_digest(p as NodeId, w),
                Dir::In => ssr_graph::edge_digest(w, p as NodeId),
            };
        })
        .map_err(|e| StoreError::Corrupt { message: format!("section {id} block {p}: {e}") })?;
        total += degree as usize;
        if total > m {
            return Err(StoreError::Corrupt {
                message: format!("section {id} holds more than the {m} ids the header promises"),
            });
        }
        degrees.push(degree);
        start = end;
    }
    if total != m {
        return Err(StoreError::Corrupt {
            message: format!("section {id} decodes {total} ids but the header promises {m}"),
        });
    }
    Ok((degrees, digest))
}

/// Decodes one v2 adjacency block (`varint(zigzag(first − node))`, then
/// `varint(gap − 1)`…) spanning `bytes` exactly, calling `emit` per id —
/// there is no degree varint; the block's byte range (from the offset
/// index) delimits it and the degree is the number of varints inside.
/// Ids come out ascending in the stored space. On corrupt bytes `emit`
/// may already have seen a prefix of the block.
fn decode_block(
    bytes: &[u8],
    node: NodeId,
    n: usize,
    mut emit: impl FnMut(NodeId),
) -> Result<(), StoreError> {
    let corrupt = |what: &str| StoreError::Corrupt {
        message: format!("adjacency block of node {node} {what}"),
    };
    let mut pos = 0usize;
    let Some(delta) = read_varint(bytes, &mut pos) else {
        return if bytes.is_empty() { Ok(()) } else { Err(corrupt("ends inside a varint")) };
    };
    let first = i64::from(node).checked_add(unzigzag(delta)).filter(|&v| v >= 0);
    let mut prev = match first {
        Some(v) if (v as u64) < n as u64 => v as u64,
        _ => return Err(corrupt(&format!("starts outside 0..{n}"))),
    };
    emit(prev as NodeId);
    while pos < bytes.len() {
        let gap = read_varint(bytes, &mut pos).ok_or_else(|| corrupt("ends inside a varint"))?;
        prev = match prev.checked_add(gap).and_then(|x| x.checked_add(1)) {
            Some(v) if v < n as u64 => v,
            _ => return Err(corrupt(&format!("references a node >= {n}"))),
        };
        emit(prev as NodeId);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreWriter;
    use ssr_graph::perm::{bfs_order, degree_order};
    use ssr_graph::DiGraph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ssr_store_random_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    fn sample_graph() -> DiGraph {
        let mut edges = Vec::new();
        for v in 0..40u32 {
            edges.push((v, (v * 7 + 3) % 40));
            edges.push((v, (v * 11 + 1) % 40));
            if v % 3 == 0 {
                edges.push((v, v)); // self-loops exercise the zigzag path
            }
        }
        DiGraph::from_edges(40, &edges).unwrap()
    }

    fn assert_matches_graph(store: &RandomAccessStore, g: &DiGraph) {
        assert_eq!(NeighborAccess::node_count(store), g.node_count());
        assert_eq!(NeighborAccess::edge_count(store), g.edge_count());
        for v in 0..g.node_count() as NodeId {
            assert_eq!(store.out_neighbors_vec(v), g.out_neighbors(v), "out of {v}");
            assert_eq!(store.in_neighbors_vec(v), g.in_neighbors(v), "in of {v}");
            assert_eq!(store.out_degree(v), g.out_degree(v));
            assert_eq!(store.in_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn plain_store_serves_exact_adjacency() {
        let g = sample_graph();
        let path = tmp("plain.ssg");
        StoreWriter::new(&g).write_file(&path).unwrap();
        let store = RandomAccessStore::open(&path).unwrap();
        assert!(!store.is_permuted());
        assert_matches_graph(&store, &g);
        assert!(store.resident_bytes() > 0);
    }

    #[test]
    fn permuted_store_serves_original_id_space() {
        let g = sample_graph();
        for (order, perm) in [("bfs", bfs_order(&g)), ("degree", degree_order(&g))] {
            let path = tmp(&format!("perm_{order}.ssg"));
            StoreWriter::new(&g).permutation(perm, order).write_file(&path).unwrap();
            let store = RandomAccessStore::open(&path).unwrap();
            assert!(store.is_permuted());
            assert_matches_graph(&store, &g);
        }
    }

    #[test]
    fn nested_reads_inside_a_callback_return_the_right_rows() {
        let g = sample_graph();
        let plain = tmp("reentrant_plain.ssg");
        let permuted = tmp("reentrant_perm.ssg");
        StoreWriter::new(&g).write_file(&plain).unwrap();
        StoreWriter::new(&g).permutation(bfs_order(&g), "bfs").write_file(&permuted).unwrap();
        for path in [plain, permuted] {
            let store = RandomAccessStore::open(&path).unwrap();
            for v in 0..g.node_count() as NodeId {
                let mut outer = Vec::new();
                store.for_each_out(v, &mut |w| {
                    outer.push(w);
                    let mut inner = Vec::new();
                    store.for_each_in(w, &mut |u| inner.push(u));
                    assert_eq!(inner, g.in_neighbors(w), "in of {w} inside out of {v}");
                });
                assert_eq!(outer, g.out_neighbors(v), "out of {v}");
            }
        }
    }

    #[test]
    fn fallback_reads_match_mmap() {
        let g = sample_graph();
        let path = tmp("fallback.ssg");
        StoreWriter::new(&g).permutation(degree_order(&g), "degree").write_file(&path).unwrap();
        let mapped = RandomAccessStore::open(&path).unwrap();
        let store = RandomAccessStore::open_region(&path, Region::read(&path).unwrap()).unwrap();
        assert!(!store.is_mapped());
        assert_matches_graph(&store, &g);
        // The buffered file is resident; a mapping is not.
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        assert_eq!(store.resident_bytes(), mapped.resident_bytes() + file_len);
    }

    #[test]
    fn v1_store_is_refused_with_typed_error() {
        let g = sample_graph();
        let path = tmp("v1.ssg");
        StoreWriter::new(&g).version(1).write_file(&path).unwrap();
        match RandomAccessStore::open(&path) {
            Err(StoreError::Corrupt { message }) => assert!(message.contains("v2")),
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("v1 store must be refused"),
        }
    }

    #[test]
    fn resident_bytes_stay_fixed_while_serving() {
        let g = sample_graph();
        let path = tmp("resident.ssg");
        StoreWriter::new(&g).write_file(&path).unwrap();
        let store = RandomAccessStore::open(&path).unwrap();
        let before = store.resident_bytes();
        assert_matches_graph(&store, &g);
        assert_eq!(store.resident_bytes(), before);
    }

    #[test]
    fn rewriting_the_file_leaves_an_open_handle_intact() {
        let g = sample_graph();
        let other = DiGraph::from_edges(40, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        let path = tmp("rewrite.ssg");
        StoreWriter::new(&g).write_file(&path).unwrap();
        let store = RandomAccessStore::open(&path).unwrap();
        assert!(store.is_mapped());
        StoreWriter::new(&other).write_file(&path).unwrap();
        // The old handle still maps the old file; a fresh open sees the new one.
        assert_matches_graph(&store, &g);
        assert_matches_graph(&RandomAccessStore::open(&path).unwrap(), &other);
    }
}
