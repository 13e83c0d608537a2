//! Serialising a [`DiGraph`] into the `.ssg` container.

use crate::checksum::checksum64;
use crate::ef::EliasFano;
use crate::format::{
    Header, SectionInfo, FORMAT_VERSION, FORMAT_VERSION_V1, SECTION_IN, SECTION_IN_OFFSETS,
    SECTION_META, SECTION_OUT, SECTION_OUT_OFFSETS, SECTION_PERM,
};
use crate::varint::write_varint;
use crate::{meta_keys, StoreError};
use ssr_graph::perm::permute_graph;
use ssr_graph::{DiGraph, NodeId, Permutation};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Streams a graph into the binary store format.
///
/// Encoding happens one node at a time (no intermediate text, no edge
/// vector): each adjacency direction becomes a delta-gap varint section,
/// checksummed as it is built. Memory overhead is the compressed payload
/// itself — typically well below the graph's in-memory CSR size.
///
/// By default the writer produces format v2: tighter adjacency coding
/// (signed first-neighbor delta, implicit minimum gap, no per-node degree
/// byte — the offset index delimits blocks and varints self-delimit
/// within them), plus Elias-Fano block-offset indexes that make the file
/// randomly accessible without materialising a CSR. [`StoreWriter::version`] selects v1 for
/// compatibility, and [`StoreWriter::permutation`] relabels the stored
/// layout for locality while recording the bijection so readers keep
/// presenting original ids.
///
/// ```
/// use ssr_graph::DiGraph;
/// use ssr_store::{StoreReader, StoreWriter};
/// let g = DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
/// let dir = std::env::temp_dir().join("ssr_store_doc");
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("doc.ssg");
/// StoreWriter::new(&g).meta("dataset", "doc-example").write_file(&path).unwrap();
/// let loaded = StoreReader::open(&path).unwrap().load_full().unwrap();
/// assert_eq!(loaded, g);
/// ```
pub struct StoreWriter<'g> {
    graph: &'g DiGraph,
    meta: Vec<(String, String)>,
    version: u32,
    perm: Option<(Permutation, String)>,
}

impl<'g> StoreWriter<'g> {
    /// A writer for `graph` with no metadata, targeting the current
    /// format version.
    pub fn new(graph: &'g DiGraph) -> Self {
        StoreWriter { graph, meta: Vec::new(), version: FORMAT_VERSION, perm: None }
    }

    /// Attaches one metadata key/value pair (chainable). Conventional keys
    /// are in [`crate::meta_keys`]; arbitrary pairs are fine.
    pub fn meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Selects the container version to write (1 or 2; default 2).
    /// Validation happens at write time so the builder stays infallible.
    pub fn version(mut self, version: u32) -> Self {
        self.version = version;
        self
    }

    /// Stores the graph under the given node relabeling (original id →
    /// stored id), recording the bijection in a PERM section so readers
    /// translate back transparently. `order` names how the permutation
    /// was derived (e.g. `bfs`, `degree`) and lands in the metadata.
    /// Requires v2 (checked at write time).
    pub fn permutation(mut self, perm: Permutation, order: impl Into<String>) -> Self {
        self.perm = Some((perm, order.into()));
        self
    }

    /// Writes the container to `w`. Returns the total bytes written.
    pub fn write_to<W: Write>(&self, mut w: W) -> Result<u64, StoreError> {
        match self.version {
            FORMAT_VERSION_V1 => {
                if self.perm.is_some() {
                    return Err(StoreError::Corrupt {
                        message: "permuted layouts require format v2 (v1 has no PERM section)"
                            .into(),
                    });
                }
                self.write_v1(&mut w)
            }
            FORMAT_VERSION => self.write_v2(&mut w),
            other => {
                Err(StoreError::UnsupportedVersion { found: other, supported: FORMAT_VERSION })
            }
        }
    }

    /// Writes the container to a file, replacing it atomically: the bytes
    /// go to a sibling temporary file, which is synced and then renamed
    /// over `path`. A process that has the old file open or mapped keeps
    /// reading the old bytes, and a failed write leaves `path` untouched.
    pub fn write_file<P: AsRef<Path>>(&self, path: P) -> Result<u64, StoreError> {
        let path = path.as_ref();
        let tmp = temp_sibling(path);
        let written = (|| {
            let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            let bytes = self.write_to(&mut w)?;
            w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp, path)?;
            sync_parent_dir(path)?;
            Ok(bytes)
        })();
        if written.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        written
    }

    fn write_v1<W: Write>(&self, w: &mut W) -> Result<u64, StoreError> {
        let g = self.graph;
        let n = g.node_count();
        let out_payload = encode_adjacency_v1(n, |v| g.out_neighbors(v));
        let in_payload = encode_adjacency_v1(n, |v| g.in_neighbors(v));
        let meta_payload = encode_meta(&self.meta);
        let payloads: Vec<(u32, Vec<u8>)> = vec![
            (SECTION_OUT, out_payload),
            (SECTION_IN, in_payload),
            (SECTION_META, meta_payload),
        ];
        emit(w, FORMAT_VERSION_V1, n as u64, g.edge_count() as u64, &payloads)
    }

    fn write_v2<W: Write>(&self, w: &mut W) -> Result<u64, StoreError> {
        let n = self.graph.node_count();
        if let Some((perm, _)) = &self.perm {
            if perm.len() != n {
                return Err(StoreError::Corrupt {
                    message: format!(
                        "permutation covers {} ids but the graph has {n} nodes",
                        perm.len()
                    ),
                });
            }
        }
        // Relabel up front if a layout permutation was requested; readers
        // undo the relabeling via the PERM section.
        let permuted;
        let g: &DiGraph = match &self.perm {
            Some((perm, _)) => {
                permuted = permute_graph(self.graph, perm);
                &permuted
            }
            None => self.graph,
        };
        let (out_payload, out_offsets) = encode_adjacency_v2(n, |v| g.out_neighbors(v));
        let (in_payload, in_offsets) = encode_adjacency_v2(n, |v| g.in_neighbors(v));
        let out_index = EliasFano::from_monotone(&out_offsets).encode();
        let in_index = EliasFano::from_monotone(&in_offsets).encode();

        // Record what v1 coding of the *same layout* would have cost, so
        // `store info` can report a pure coding delta without rebuilding
        // (for permuted stores the layout gain shows up in bits/id, not
        // here).
        let v1_bytes = count_adjacency_v1(n, |v| g.out_neighbors(v))
            + count_adjacency_v1(n, |v| g.in_neighbors(v));
        let mut meta = self.meta.clone();
        meta.push((meta_keys::V1_ADJACENCY_BYTES.into(), v1_bytes.to_string()));
        if let Some((_, order)) = &self.perm {
            meta.push((meta_keys::PERM_ORDER.into(), order.clone()));
        }

        let mut payloads: Vec<(u32, Vec<u8>)> = vec![
            (SECTION_OUT, out_payload),
            (SECTION_IN, in_payload),
            (SECTION_OUT_OFFSETS, out_index),
            (SECTION_IN_OFFSETS, in_index),
        ];
        if let Some((perm, _)) = &self.perm {
            let mut p = Vec::new();
            for old in 0..n as NodeId {
                write_varint(&mut p, u64::from(perm.to_new(old)));
            }
            payloads.push((SECTION_PERM, p));
        }
        payloads.push((SECTION_META, encode_meta(&meta)));
        emit(w, FORMAT_VERSION, n as u64, g.edge_count() as u64, &payloads)
    }
}

/// A temporary name next to `path` (same directory, so the final rename
/// stays within one filesystem), unique per process and call.
fn temp_sibling(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    path.with_file_name(format!(".{name}.{}.{unique}.tmp", std::process::id()))
}

/// Makes a rename into `path`'s directory durable. Directories cannot be
/// opened as files outside Unix, where this is a no-op.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    if cfg!(unix) {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// Lays out the header + section table + payloads and writes them.
fn emit<W: Write>(
    w: &mut W,
    version: u32,
    nodes: u64,
    edges: u64,
    payloads: &[(u32, Vec<u8>)],
) -> Result<u64, StoreError> {
    // Section payloads land immediately after the header + table, in
    // table order; skipping a section is one seek for the reader.
    let mut offset = Header::encoded_len(payloads.len()) as u64;
    let mut sections = Vec::with_capacity(payloads.len());
    for (id, payload) in payloads {
        sections.push(SectionInfo {
            id: *id,
            offset,
            len: payload.len() as u64,
            checksum: checksum64(payload),
        });
        offset += payload.len() as u64;
    }
    let header = Header { version, nodes, edges, sections };
    w.write_all(&header.encode())?;
    for (_, payload) in payloads {
        w.write_all(payload)?;
    }
    w.flush()?;
    Ok(offset)
}

/// One CSR direction as a delta-gap varint stream: per node,
/// `varint(degree)`, then `varint(first)` and `varint(gap)` for the rest.
/// Gaps are ≥ 1 because adjacency lists are sorted and deduplicated.
fn encode_adjacency_v1<'a>(n: usize, neighbors: impl Fn(NodeId) -> &'a [NodeId]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in 0..n as NodeId {
        let list = neighbors(v);
        write_varint(&mut out, list.len() as u64);
        let mut prev = 0u64;
        for (i, &t) in list.iter().enumerate() {
            let t = u64::from(t);
            if i == 0 {
                write_varint(&mut out, t);
            } else {
                write_varint(&mut out, t - prev);
            }
            prev = t;
        }
    }
    out
}

/// Byte count [`encode_adjacency_v1`] would produce, without building it.
fn count_adjacency_v1<'a>(n: usize, neighbors: impl Fn(NodeId) -> &'a [NodeId]) -> u64 {
    let mut bytes = 0u64;
    for v in 0..n as NodeId {
        let list = neighbors(v);
        bytes += varint_len(list.len() as u64);
        let mut prev = 0u64;
        for (i, &t) in list.iter().enumerate() {
            let t = u64::from(t);
            bytes += varint_len(if i == 0 { t } else { t - prev });
            prev = t;
        }
    }
    bytes
}

/// v2 coding: per node, `varint(zigzag(first − v))`, then
/// `varint(gap − 1)` per subsequent neighbor. No degree varint — varints
/// are self-delimiting and the Elias-Fano offset index bounds every
/// block, so the degree is simply the number of varints in the block
/// (an empty block is a zero-length byte range). Also returns the
/// `n + 1` block byte offsets feeding that index.
fn encode_adjacency_v2<'a>(
    n: usize,
    neighbors: impl Fn(NodeId) -> &'a [NodeId],
) -> (Vec<u8>, Vec<u64>) {
    let mut out = Vec::new();
    let mut offsets = Vec::with_capacity(n + 1);
    for v in 0..n as NodeId {
        offsets.push(out.len() as u64);
        let list = neighbors(v);
        let mut prev = 0u64;
        for (i, &t) in list.iter().enumerate() {
            let t = u64::from(t);
            if i == 0 {
                write_varint(&mut out, zigzag(t as i64 - i64::from(v)));
            } else {
                write_varint(&mut out, t - prev - 1);
            }
            prev = t;
        }
    }
    offsets.push(out.len() as u64);
    (out, offsets)
}

/// ZigZag map: interleaves signed values so small magnitudes of either
/// sign get short varints (0 → 0, −1 → 1, 1 → 2, −2 → 3, …).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Metadata section: `varint(count)`, then length-prefixed UTF-8 key and
/// value per pair.
fn encode_meta(meta: &[(String, String)]) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, meta.len() as u64);
    for (k, v) in meta {
        for s in [k, v] {
            write_varint(&mut out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
    out
}

/// Encoded length of one varint.
fn varint_len(mut v: u64) -> u64 {
    let mut len = 1;
    while v >= 0x80 {
        v >>= 7;
        len += 1;
    }
    len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_coding_is_compact_on_dense_runs() {
        // Node 0 points at 1..=100: first value + 99 gaps of 1, all
        // single-byte varints, plus the degree byte.
        let g = DiGraph::from_edges(101, &(1..=100).map(|v| (0, v)).collect::<Vec<_>>()).unwrap();
        let payload = encode_adjacency_v1(101, |v| g.out_neighbors(v));
        // 1 (degree=100 is two bytes? 100 < 128 so one) + 100 ids + 100
        // empty-degree bytes for nodes 1..=100.
        assert_eq!(payload.len(), 1 + 100 + 100);
        assert_eq!(count_adjacency_v1(101, |v| g.out_neighbors(v)), payload.len() as u64);
    }

    #[test]
    fn v2_coding_beats_v1_on_local_runs() {
        // Each node points at its successor run: v2's signed first delta
        // and implicit gap shave bytes on exactly this shape.
        let edges: Vec<(NodeId, NodeId)> =
            (0..200u32).flat_map(|v| (1..=3).map(move |d| (v, (v + d) % 203))).collect();
        let g = DiGraph::from_edges(203, &edges).unwrap();
        let v1 = encode_adjacency_v1(203, |v| g.out_neighbors(v));
        let (v2, offsets) = encode_adjacency_v2(203, |v| g.out_neighbors(v));
        assert!(v2.len() < v1.len(), "v2 {} vs v1 {}", v2.len(), v1.len());
        assert_eq!(offsets.len(), 204);
        assert_eq!(*offsets.last().unwrap(), v2.len() as u64);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
    }

    #[test]
    fn empty_graph_writes_v2_with_five_sections() {
        let g = DiGraph::from_edges(0, &[]).unwrap();
        let mut buf = Vec::new();
        let written = StoreWriter::new(&g).write_to(&mut buf).unwrap();
        assert_eq!(written as usize, buf.len());
        let h = Header::decode(&buf).unwrap();
        assert_eq!(h.version, FORMAT_VERSION);
        // OUT, IN, OUT_OFFSETS, IN_OFFSETS, META.
        assert_eq!(h.sections.len(), 5);
        assert_eq!((h.nodes, h.edges), (0, 0));
    }

    #[test]
    fn v1_still_writes_three_sections() {
        let g = DiGraph::from_edges(0, &[]).unwrap();
        let mut buf = Vec::new();
        StoreWriter::new(&g).version(FORMAT_VERSION_V1).write_to(&mut buf).unwrap();
        let h = Header::decode(&buf).unwrap();
        assert_eq!(h.version, FORMAT_VERSION_V1);
        assert_eq!(h.sections.len(), 3);
    }

    #[test]
    fn invalid_version_and_v1_perm_are_typed_errors() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(
            StoreWriter::new(&g).version(3).write_to(&mut buf),
            Err(StoreError::UnsupportedVersion { found: 3, .. })
        ));
        let perm = Permutation::identity(2);
        assert!(matches!(
            StoreWriter::new(&g).version(1).permutation(perm, "bfs").write_to(&mut buf),
            Err(StoreError::Corrupt { .. })
        ));
        let wrong_size = Permutation::identity(5);
        assert!(matches!(
            StoreWriter::new(&g).permutation(wrong_size, "bfs").write_to(&mut buf),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn failed_file_write_leaves_target_and_no_temp() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let dir = std::env::temp_dir().join(format!("ssr_store_writer_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keep.ssg");
        StoreWriter::new(&g).write_file(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert!(StoreWriter::new(&g).version(3).write_file(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["keep.ssg"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_encodes_pairs_in_order() {
        let payload = encode_meta(&[("a".into(), "xy".into()), ("k".into(), String::new())]);
        // count=2, then "a"(1+1) "xy"(1+2) "k"(1+1) ""(1+0)
        assert_eq!(payload, vec![2, 1, b'a', 2, b'x', b'y', 1, b'k', 0]);
    }
}
