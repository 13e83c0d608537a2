//! `allpairs_topk` and `allpairs_topk_csr`: offline `AllPairsEngine::top_k`
//! (k = 10) over seeded row chunks, on the mmap-backed store (the path
//! `simstar allpairs --top-k` takes on a v2 store) or on the in-memory
//! CSR (`--load-full true`). The timed part runs in a child process so
//! `peak_rss_mb` is the all-pairs process's own peak, not the graph
//! generator's.

use crate::check;
use crate::graph;
use crate::loadgen::TOP_K;
use crate::rng::{self, Rng};
use crate::stats;
use crate::Report;
use simrank_star::{AllPairsEngine, AllPairsOptions, QueryEngine};
use ssr_graph::NodeId;
use ssr_store::RandomAccessStore;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Rows per timed `top_k` call (a multiple of the 16-lane block).
pub const CHUNK_ROWS: usize = 64;
/// Store-open + engine-build repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Rows whose rankings are checked per run.
pub const CHECKED_ROWS: usize = 8;

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where the all-pairs engine reads the graph from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Random access into the mmapped v2 store.
    Mmap,
    /// The store decoded into an in-memory CSR.
    Csr,
}

impl Backing {
    fn name(self) -> &'static str {
        match self {
            Backing::Mmap => "mmap",
            Backing::Csr => "csr",
        }
    }

    fn parse(s: &str) -> Option<Backing> {
        [Backing::Mmap, Backing::Csr].into_iter().find(|b| b.name() == s)
    }
}

/// The all-pairs engine as `simstar allpairs --top-k` builds it on a v2
/// store (`--load-full true` for the CSR), with `threads` workers.
pub fn build_engine(
    store: &Path,
    backing: Backing,
    threads: usize,
) -> Result<AllPairsEngine, String> {
    let opts = AllPairsOptions { threads, ..Default::default() };
    match backing {
        Backing::Mmap => {
            let s = RandomAccessStore::open(store)
                .map_err(|e| format!("opening {}: {e}", store.display()))?;
            Ok(AllPairsEngine::with_access(Arc::new(s), check::serve_params(), opts))
        }
        Backing::Csr => {
            let g = ssr_store::load_graph_auto(store)
                .map_err(|e| format!("loading {}: {e}", store.display()))?;
            Ok(AllPairsEngine::with_options(&g, check::serve_params(), opts))
        }
    }
}

/// The seeded row order, cut into chunks.
pub fn row_chunks(n: usize, seed: u64) -> Vec<Vec<NodeId>> {
    rng::permutation(n, &mut Rng::stream(seed, "rows"))
        .chunks(CHUNK_ROWS)
        .map(<[_]>::to_vec)
        .collect()
}

/// Child side: set-up, timed chunks, peak RSS; prints `key value` lines
/// and the rankings kept for the check.
pub fn child(store: &Path, backing: &str, seed: u64, secs: f64) -> Result<(), String> {
    let backing = Backing::parse(backing).ok_or(format!("unknown backing {backing}"))?;
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let e = build_engine(store, backing, threads())?;
        setups.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("at least one build");
    let chunks = row_chunks(engine.node_count(), seed);
    // Warm-up chunk: the decoded-row cache and scratch pools fill first.
    engine.top_k(&chunks[0], TOP_K);
    let mut rates = Vec::new();
    let mut rows = 0usize;
    let started = Instant::now();
    let mut i = 1;
    while started.elapsed().as_secs_f64() < secs || rates.len() < 5 {
        let chunk = &chunks[i % chunks.len()];
        let t0 = Instant::now();
        let ranked = engine.top_k(chunk, TOP_K);
        rates.push(chunk.len() as f64 / t0.elapsed().as_secs_f64());
        rows += chunk.len();
        if (i - 1) < CHECKED_ROWS {
            let q = chunk[0];
            let items: Vec<String> =
                ranked[0].iter().map(|(v, s)| format!("{v}:{:016x}", s.to_bits())).collect();
            println!("rank {q} {}", items.join(" "));
        }
        i += 1;
    }
    println!("setup_s {}", stats::median(&setups));
    println!("rows_per_s {}", stats::median(&rates));
    println!("rows {rows}");
    println!("peak_rss_mb {}", crate::server::vm_hwm_mb("/proc/self/status")?);
    Ok(())
}

/// The untraced all-pairs run on `backing`.
pub fn run(
    seed: u64,
    secs: f64,
    backing: Backing,
    work: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let g = graph::generate(seed)?;
    let store = work.join("graph.ssg");
    graph::write_store(&g, &store)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg("--allpairs-child")
        .arg(&store)
        .args([backing.name(), &seed.to_string(), &secs.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the all-pairs child: {e}"))?;
    if !out.status.success() {
        return Err(format!("all-pairs child failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let value = |key: &str| -> Result<f64, String> {
        text.lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| format!("all-pairs child reported no {key}"))
    };
    let rows = value("rows")? as u64;

    // Check the kept rankings against full QueryEngine rows.
    let reference = QueryEngine::new(&g, check::serve_params());
    let mut checked = 0;
    let mut wrong = 0;
    for line in text.lines().filter_map(|l| l.strip_prefix("rank ")) {
        let mut parts = line.split(' ');
        let q: NodeId = parts.next().and_then(|t| t.parse().ok()).ok_or("bad rank line")?;
        let got: Vec<(NodeId, f64)> = parts
            .filter_map(|t| {
                let (v, bits) = t.split_once(':')?;
                Some((v.parse().ok()?, f64::from_bits(u64::from_str_radix(bits, 16).ok()?)))
            })
            .collect();
        checked += 1;
        if let Err(e) = check::check_ranking(q, &got, &reference.query(q), TOP_K) {
            wrong += 1;
            rep.note(format!("wrong answer: {e}"));
        }
    }
    rep.note(format!(
        "allpairs on {}: {rows} rows; checked {checked} rankings: {wrong} wrong",
        backing.name()
    ));
    rep.meta("samples", rows.to_string());
    rep.attempted += rows;
    rep.failed += wrong;
    rep.correct &= wrong == 0 && checked > 0;
    rep.metric("setup_s", value("setup_s")?, "s");
    rep.metric("rows_per_s", value("rows_per_s")?, "rows/s");
    rep.metric("peak_rss_mb", value("peak_rss_mb")?, "MiB");
    Ok(())
}
