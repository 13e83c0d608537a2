//! The traced run: per-layer metrics, each derived from the benchmark's
//! own spans around calls into one layer's public functions, plus the
//! ledger that reconciles the layers with client-observed latency.
//!
//! Every traced run (whatever `--workload`) measures every layer, so each
//! reports the full per-layer set. What depends on the workload's traffic
//! — `cache.hit_rate`, `ledger.server.*`, `ledger.trace_overhead`,
//! `ledger.gen_late_p99_ms` — comes from that workload's own traffic.

use crate::allpairs;
use crate::check::{self, serve_engine_options, serve_params};
use crate::graph::{self, Writes};
use crate::loadgen::{self, Op, Outcome, Planned, Res, SyncConn, TOP_K};
use crate::rng::{self, Rng};
use crate::server::{self, ServerProc};
use crate::spans::Tracer;
use crate::stats;
use crate::workloads::{self, Serve, Traffic};
use crate::Report;
use simrank_star::{AllPairsEngine, AllPairsOptions, QueryEngine};
use ssr_graph::{DiGraph, NeighborAccess, NodeId};
use ssr_serve::batcher::{Batcher, BatcherOptions, CompletionSink, QueryAnswer, SubmitError};
use ssr_serve::cache::{CacheKey, ShardedCache};
use ssr_serve::client::Client;
use ssr_serve::codec::WireFormat;
use ssr_serve::epoch::EpochStore;
use ssr_serve::protocol::{QueryReply, Request, Response, StatsReply};
use ssr_store::RandomAccessStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server cache geometry (`simstar serve` defaults).
const CACHE_CAPACITY: usize = 4_096;
const CACHE_SHARDS: usize = 8;

/// Layer p50s the ledger sums, collected as the layers are measured.
#[derive(Default)]
struct Ledger {
    ns: BTreeMap<&'static str, f64>,
}

impl Ledger {
    fn set(&mut self, key: &'static str, ns: f64) {
        self.ns.insert(key, ns);
    }

    fn sum(&self, keys: &[&str]) -> f64 {
        keys.iter().map(|k| self.ns[k]).sum()
    }
}

fn p50(t: &Tracer, name: &str) -> f64 {
    stats::median(&t.durations(name))
}

pub fn run(
    workload: &str,
    seed: u64,
    secs: f64,
    work: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let mut t = Tracer::new();
    let mut ledger = Ledger::default();
    let g = graph::generate(seed)?;
    let store = work.join("graph.ssg");
    let bytes = graph::write_store(&g, &store)?;

    let started = Instant::now();
    let progress = |layer: &str| {
        eprintln!("perfbench: {layer} measured ({:.1} s)", started.elapsed().as_secs_f64())
    };
    store_layer(&mut t, &g, &store, bytes, seed, rep)?;
    progress("store");
    engine_layer(&mut t, &g, seed, rep, &mut ledger);
    progress("engine");
    allpairs_layer(&mut t, &g, &store, seed, rep)?;
    progress("all_pairs");
    cache_layer(&mut t, rep, &mut ledger);
    progress("cache");
    batcher_layer(&mut t, &g, seed, rep, &mut ledger)?;
    progress("batcher and epoch");
    codec_layer(&mut t, &g, rep, &mut ledger);
    progress("codec");
    server_layers(&mut t, workload, &g, &store, seed, secs, rep, &mut ledger)?;
    progress("runtime and ledger");

    let out = Path::new(".perfbench_out");
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let path = out.join(format!("spans-{workload}-{seed}.jsonl"));
    t.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    rep.note(format!("{} spans written to {}", t.spans().len(), path.display()));
    rep.attempted += t.spans().iter().filter(|s| s.parent.is_none()).count() as u64;
    rep.meta("spans", path.display().to_string());
    Ok(())
}

fn store_layer(
    t: &mut Tracer,
    g: &DiGraph,
    store: &Path,
    bytes: u64,
    seed: u64,
    rep: &mut Report,
) -> Result<(), String> {
    for _ in 0..5 {
        let (loaded, _) = t.time("store.load_graph_auto", || ssr_store::load_graph_auto(store));
        loaded.map_err(|e| e.to_string())?;
        let (opened, _) = t.time("store.open", || RandomAccessStore::open(store));
        opened.map_err(|e| e.to_string())?;
    }
    let fresh = RandomAccessStore::open(store).map_err(|e| e.to_string())?;
    let rows = &rng::permutation(g.node_count(), &mut Rng::stream(seed, "row-fetch"))[..512];
    for &v in rows {
        let mut seen = 0usize;
        t.time("store.for_each_in", || fresh.for_each_in(v, &mut |_| seen += 1));
    }
    rep.metric("store.load_ms", p50(t, "store.load_graph_auto") / 1e6, "ms");
    rep.metric("store.open_ms", p50(t, "store.open") / 1e6, "ms");
    rep.metric("store.bytes_per_edge", bytes as f64 / g.edge_count() as f64, "count");
    rep.metric("store.row_fetch_ns", p50(t, "store.for_each_in"), "ns");
    Ok(())
}

fn engine_layer(t: &mut Tracer, g: &DiGraph, seed: u64, rep: &mut Report, ledger: &mut Ledger) {
    let mut engine = None;
    for _ in 0..3 {
        let (e, _) = t.time("engine.build", || {
            QueryEngine::with_options(g, serve_params(), serve_engine_options())
        });
        engine = Some(e);
    }
    let e = engine.expect("built");
    let nodes = rng::permutation(g.node_count(), &mut Rng::stream(seed, "engine"));
    // Lazy kernels and scratch pools are set up before timing.
    e.top_k_batch(&nodes[..16], TOP_K);
    e.top_k_batch(&nodes[16..17], TOP_K);
    let before = e.stats();
    let mut select = Vec::new();
    for &q in &nodes[100..164] {
        let (_, tk) = t.time("engine.top_k_batch.1", || e.top_k_batch(&[q], TOP_K));
        let (_, qb) = t.time("engine.query_batch.1", || e.query_batch(&[q]));
        select.push(tk as f64 - qb as f64);
    }
    for chunk in nodes[200..328].chunks(16) {
        t.time("engine.top_k_batch.16", || e.top_k_batch(chunk, TOP_K));
    }
    for chunk in nodes[400..592].chunks(64) {
        t.time("engine.top_k_batch.64", || e.top_k_batch(chunk, TOP_K));
    }
    let after = e.stats();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let batch1 = p50(t, "engine.top_k_batch.1");
    ledger.set("engine.batch1", batch1);
    rep.metric("engine.build_ms", p50(t, "engine.build") / 1e6, "ms");
    rep.metric("engine.batch1_us", batch1 / 1e3, "us");
    rep.metric("engine.batch16_us", p50(t, "engine.top_k_batch.16") / 16.0 / 1e3, "us");
    rep.metric("engine.batch64_us", p50(t, "engine.top_k_batch.64") / 64.0 / 1e3, "us");
    rep.metric("engine.select_us", stats::median(&select) / 1e3, "us");
    rep.metric(
        "engine.frontier_density",
        ratio(
            after.frontier_active - before.frontier_active,
            after.frontier_slots - before.frontier_slots,
        ),
        "fraction",
    );
    rep.metric(
        "engine.dense_share",
        ratio(after.dense_steps - before.dense_steps, after.iterations - before.iterations),
        "fraction",
    );
    rep.metric(
        "engine.lane_occupancy",
        ratio(after.lanes_used - before.lanes_used, after.lane_slots - before.lane_slots),
        "fraction",
    );
}

fn allpairs_layer(
    t: &mut Tracer,
    g: &DiGraph,
    store: &Path,
    seed: u64,
    rep: &mut Report,
) -> Result<(), String> {
    let rows = &rng::permutation(g.node_count(), &mut Rng::stream(seed, "allpairs-layer"))[..64];
    let threads = allpairs::threads();
    let rate = |t: &mut Tracer, name: &str, e: &AllPairsEngine| {
        e.top_k(&rows[..16], TOP_K);
        for _ in 0..2 {
            t.time(name, || e.top_k(rows, TOP_K));
        }
        rows.len() as f64 / (p50(t, name) / 1e9)
    };
    let mmap_1t = rate(
        t,
        "allpairs.top_k.mmap.1t",
        &allpairs::build_engine(store, allpairs::Backing::Mmap, 1)?,
    );
    let mmap_nt = rate(
        t,
        "allpairs.top_k.mmap.nt",
        &allpairs::build_engine(store, allpairs::Backing::Mmap, threads)?,
    );
    let csr = AllPairsEngine::with_options(
        g,
        serve_params(),
        AllPairsOptions { threads, ..Default::default() },
    );
    let csr_nt = rate(t, "allpairs.top_k.csr.nt", &csr);
    rep.metric("allpairs.rows_per_s_1t", mmap_1t, "rows/s");
    rep.metric("allpairs.thread_scaling", mmap_nt / (threads as f64 * mmap_1t), "ratio");
    rep.metric("store.mmap_slowdown", csr_nt / mmap_nt, "ratio");
    Ok(())
}

fn matches_for(node: NodeId) -> Arc<Vec<(NodeId, f64)>> {
    Arc::new(
        (0..TOP_K as u32)
            .map(|i| ((node + i + 1) % graph::NODES as u32, 0.5 / (i + 1) as f64))
            .collect(),
    )
}

fn cache_layer(t: &mut Tracer, rep: &mut Report, ledger: &mut Ledger) {
    const BATCH: u32 = 256;
    let cache = ShardedCache::new(CACHE_CAPACITY, CACHE_SHARDS);
    let key = |node: NodeId| CacheKey { epoch: 0, node, k: TOP_K as u32, params_key: 7 };
    for node in 0..CACHE_CAPACITY as u32 {
        cache.insert(key(node), matches_for(node));
    }
    let mut fresh = CACHE_CAPACITY as u32;
    for round in 0..64u32 {
        let base = (round * 97) % 1_024;
        t.time("cache.get.x256", || {
            (0..BATCH).filter(|i| cache.get(&key((base + i) % 1_024)).is_some()).count()
        });
        t.time("cache.insert.x256", || {
            for _ in 0..BATCH {
                cache.insert(key(fresh), matches_for(fresh));
                fresh += 1;
            }
        });
    }
    let hit = p50(t, "cache.get.x256") / BATCH as f64;
    let insert = p50(t, "cache.insert.x256") / BATCH as f64;
    ledger.set("cache.hit", hit);
    ledger.set("cache.insert", insert);
    rep.metric("cache.hit_ns", hit, "ns");
    rep.metric("cache.insert_ns", insert, "ns");
}

/// `(tag, outcome, arrival ns)` of one batcher submission.
type Completion = (u64, Result<QueryAnswer, SubmitError>, u64);

/// Collects asynchronous batcher completions with their arrival time.
struct Collect {
    origin: Instant,
    done: Mutex<Vec<Completion>>,
}

impl CompletionSink for Collect {
    fn complete(&self, tag: u64, result: Result<QueryAnswer, SubmitError>) {
        let at = self.origin.elapsed().as_nanos() as u64;
        self.done.lock().expect("sink poisoned").push((tag, result, at));
    }
}

/// One open-loop pass of in-process `Batcher::submit` calls; records a
/// `batcher.request` span per query with `batcher.queue` and
/// `batcher.engine` children named after `prefix`.
fn batcher_pass(
    t: &mut Tracer,
    batcher: &Batcher,
    nodes: &mut impl Iterator<Item = NodeId>,
    qps: f64,
    count: usize,
    rng: &mut Rng,
    prefix: &str,
) -> Result<(), String> {
    let origin = t.origin();
    let collect = Arc::new(Collect { origin, done: Mutex::new(Vec::new()) });
    let sink: Arc<dyn CompletionSink> = collect.clone();
    let start = t.now_ns() + 1_000_000;
    let mut due = start as f64;
    let mut submitted = Vec::with_capacity(count);
    for tag in 0..count as u64 {
        due += -(1.0 - rng.unit()).ln() / qps * 1e9;
        loop {
            let left = (due as u64).saturating_sub(t.now_ns());
            if left == 0 {
                break;
            } else if left > 250_000 {
                std::thread::sleep(Duration::from_nanos(left - 150_000));
            } else {
                std::thread::yield_now();
            }
        }
        let node = nodes.next().expect("enough nodes");
        let at = t.now_ns();
        match batcher.submit(node, TOP_K, false, &sink, tag) {
            Ok(None) => submitted.push(at),
            Ok(Some(_)) => return Err(format!("{prefix}: node {node} hit the cache")),
            Err(e) => return Err(format!("{prefix}: submit failed: {e:?}")),
        }
    }
    let wait = Instant::now();
    while collect.done.lock().expect("sink poisoned").len() < count {
        if wait.elapsed() > Duration::from_secs(30) {
            return Err(format!("{prefix}: batcher answers missing"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let done = std::mem::take(&mut *collect.done.lock().expect("sink poisoned"));
    for (tag, result, end) in done {
        let a = result.map_err(|e| format!("{prefix}: query failed: {e:?}"))?;
        let begin = submitted[tag as usize];
        let group = t.group();
        let root = t.record(group, None, &format!("{prefix}.request"), begin, end);
        let q0 = begin + a.trace.cache_ns;
        let q1 = q0 + a.trace.queue_ns;
        t.record(group, Some(root), &format!("{prefix}.queue"), q0, q1);
        t.record(group, Some(root), &format!("{prefix}.engine"), q1, q1 + a.trace.engine_ns);
    }
    Ok(())
}

fn batcher_layer(
    t: &mut Tracer,
    g: &DiGraph,
    seed: u64,
    rep: &mut Report,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let store = Arc::new(EpochStore::new(g.clone(), serve_params(), serve_engine_options()));
    let cache = Arc::new(ShardedCache::new(CACHE_CAPACITY, CACHE_SHARDS));
    let batcher = Batcher::start(store.clone(), cache, BatcherOptions::default());
    let perm = rng::permutation(g.node_count(), &mut Rng::stream(seed, "batcher"));
    let mut nodes = perm.into_iter();
    let mut arrivals = Rng::stream(seed, "batcher-arrivals");
    // Warm-up (lazy kernels), then a low-rate pass for the ledger and a
    // pass at the cold_rw nominal rate for the queue percentiles.
    batcher_pass(t, &batcher, &mut nodes, 50.0, 8, &mut arrivals, "warm")?;
    batcher_pass(t, &batcher, &mut nodes, 20.0, 40, &mut arrivals, "batcher.idle")?;
    let before = batcher.stats();
    let count = workloads::MIN_READS;
    batcher_pass(
        t,
        &batcher,
        &mut nodes,
        Serve::Cold.nominal_qps(),
        count,
        &mut arrivals,
        "batcher",
    )?;
    let after = batcher.stats();
    let queue = stats::sorted(t.durations("batcher.queue"));
    ledger.set("batcher.queue_idle", p50(t, "batcher.idle.queue"));
    let flushes = (after.flushes - before.flushes).max(1);
    rep.metric("batcher.queue_us_p50", stats::quantile(&queue, 0.5) / 1e3, "us");
    rep.metric("batcher.queue_us_p99", stats::tail(&queue, 0.99)? / 1e3, "us");
    rep.metric(
        "batcher.mean_flush",
        (after.flushed_jobs - before.flushed_jobs) as f64 / flushes as f64,
        "count",
    );
    rep.metric("batcher.shed", after.shed as f64, "count");
    batcher.shutdown();

    let writes = Writes::new(g, 6, seed);
    for i in 1..=5 {
        let (add, remove) = writes.delta(i);
        let (applied, _) = t.time("epoch.apply_delta", || store.apply_delta(&add, &remove));
        applied?;
    }
    rep.metric("epoch.apply_delta_ms", p50(t, "epoch.apply_delta") / 1e6, "ms");
    Ok(())
}

fn codec_layer(t: &mut Tracer, g: &DiGraph, rep: &mut Report, ledger: &mut Ledger) {
    const CALLS: usize = 512;
    let engine = QueryEngine::with_options(g, serve_params(), serve_engine_options());
    let node = (g.node_count() / 2) as NodeId;
    let matches = Arc::new(engine.top_k(node, TOP_K));
    let req = Request::Query { node, k: TOP_K };
    let reply = Response::Query(QueryReply {
        epoch: 3,
        node,
        k: TOP_K as u64,
        cached: true,
        matches,
        trace_id: None,
    });
    for (fmt, label) in [(WireFormat::Ssb, "ssb"), (WireFormat::Jsonl, "jsonl")] {
        let codec = fmt.codec();
        let mut req_bytes = Vec::new();
        codec.encode_request(1, &req, &mut req_bytes);
        let mut reply_bytes = Vec::new();
        codec.encode_response(1, &reply, &mut reply_bytes);
        let names = [
            format!("codec.{label}.decode_request.x{CALLS}"),
            format!("codec.{label}.encode_reply.x{CALLS}"),
            format!("codec.{label}.decode_reply.x{CALLS}"),
        ];
        let mut buf = Vec::with_capacity(reply_bytes.len() * 2);
        for _ in 0..48 {
            t.time(&names[0], || {
                (0..CALLS)
                    .filter(|_| {
                        matches!(
                            codec.decode_request(&req_bytes),
                            ssr_serve::codec::Decoded::Frame { .. }
                        )
                    })
                    .count()
            });
            t.time(&names[1], || {
                for _ in 0..CALLS {
                    buf.clear();
                    codec.encode_response(1, &reply, &mut buf);
                }
            });
            t.time(&names[2], || {
                (0..CALLS)
                    .filter(|_| {
                        matches!(
                            codec.decode_response(&reply_bytes),
                            ssr_serve::codec::Decoded::Frame { .. }
                        )
                    })
                    .count()
            });
        }
        let per = |n: &str| p50(t, n) / CALLS as f64;
        let (dreq, erep, drep) = (per(&names[0]), per(&names[1]), per(&names[2]));
        if fmt == WireFormat::Ssb {
            ledger.set("codec.decode_request", dreq);
            ledger.set("codec.encode_reply", erep);
        }
        rep.metric(&format!("codec.{label}.decode_request_ns"), dreq, "ns");
        rep.metric(&format!("codec.{label}.encode_reply_ns"), erep, "ns");
        rep.metric(&format!("codec.{label}.decode_reply_ns"), drep, "ns");
    }
}

/// Records one open-loop request as a span tree: `request` from due to
/// decoded, with the generator's lateness, the send, and the client
/// decode as children (the rest of its self time is network + server).
fn record_requests(t: &mut Tracer, origin: Instant, prefix: &str, outcomes: &[Outcome]) {
    let origin_ns = origin.saturating_duration_since(t.origin()).as_nanos() as u64;
    for o in outcomes.iter().filter(|o| o.recv_ns > 0) {
        let group = t.group();
        let end = o.recv_ns + o.decode_ns;
        let root = t.record(
            group,
            None,
            &format!("{prefix}.request"),
            origin_ns + o.due_ns,
            origin_ns + end,
        );
        t.record(
            group,
            Some(root),
            &format!("{prefix}.late"),
            origin_ns + o.due_ns,
            origin_ns + o.send_ns,
        );
        t.record(
            group,
            Some(root),
            &format!("{prefix}.send"),
            origin_ns + o.send_ns,
            origin_ns + o.sent_ns,
        );
        t.record(
            group,
            Some(root),
            &format!("{prefix}.decode"),
            origin_ns + o.recv_ns,
            origin_ns + end,
        );
    }
}

/// What the server itself reports, beside the outside timings: the cache
/// hit rate since `before` (or since start), the batcher's mean flush, and
/// the p50 of every pipeline stage from the admin `metrics` op.
fn server_report(
    admin: &mut Client,
    before: Option<&StatsReply>,
    rep: &mut Report,
) -> Result<(), String> {
    let s = admin.stats().map_err(|e| e.to_string())?;
    let (hits, misses) = match before {
        Some(b) => (s.cache.hits - b.cache.hits, s.cache.misses - b.cache.misses),
        None => (s.cache.hits, s.cache.misses),
    };
    rep.metric("cache.hit_rate", hits as f64 / (hits + misses).max(1) as f64, "fraction");
    rep.metric("ledger.server.mean_flush", s.batcher.mean_flush(), "count");
    let m = admin.metrics().map_err(|e| e.to_string())?;
    for stage in ["decode", "cache", "queue", "engine", "merge", "encode", "total"] {
        let name = format!("ssr_stage_us{{stage=\"{stage}\"}}");
        let h = m
            .snapshot
            .hists
            .iter()
            .find(|h| h.name == name)
            .ok_or(format!("no {name} in metrics"))?;
        rep.metric(&format!("ledger.server.{stage}_us"), h.p50 as f64, "us");
    }
    rep.note(format!(
        "server counters: cache hits {} misses {} evictions {}; batcher submitted {} flushes {} shed {}",
        s.cache.hits, s.cache.misses, s.cache.evictions, s.batcher.submitted, s.batcher.flushes, s.batcher.shed
    ));
    Ok(())
}

/// A low-rate open-loop read pass on one `ssb/1` connection; returns its
/// outcomes (all must succeed).
fn read_pass(
    server: &ServerProc,
    nodes: &[NodeId],
    qps: f64,
    seed: u64,
    tag: &str,
) -> Result<(Instant, Vec<Outcome>), String> {
    let mut rng = Rng::stream(seed, tag);
    let mut due = 0.0;
    let plan: Vec<Planned> = nodes
        .iter()
        .map(|&v| {
            due += -(1.0 - rng.unit()).ln() / qps * 1e9;
            Planned { due_ns: due as u64, conn: 0, op: Op::Read(v) }
        })
        .collect();
    let (origin, out) = loadgen::run_open_loop(
        server.addr,
        &[WireFormat::Ssb],
        &plan,
        &[],
        Duration::from_secs(3),
    )?;
    if let Some(bad) = out.iter().find(|o| !matches!(o.res, Res::Read { .. })) {
        return Err(format!("{tag}: read failed: {:?}", bad.res));
    }
    Ok((origin, out))
}

#[allow(clippy::too_many_arguments)]
fn server_layers(
    t: &mut Tracer,
    workload: &str,
    g: &DiGraph,
    store: &Path,
    seed: u64,
    secs: f64,
    rep: &mut Report,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let bin = server::build_simstar()?;
    let (server, _) = ServerProc::start(&bin, store)?;
    let mut admin = server.admin()?;
    let n = g.node_count();

    // The workload's own traffic: untraced, then traced, same length.
    let kind = match workload {
        "cold_rw" => Some(Serve::Cold),
        "hot_read" => Some(Serve::Hot),
        _ => None,
    };
    let reads = |qps: f64| ((qps * secs * 0.05) as usize).clamp(200, 20_000);
    if let Some(kind) = kind {
        let mut traffic = Traffic::new(kind, g, seed);
        if kind == Serve::Hot {
            workloads::warm(&server, traffic.hot_set())?;
        }
        let stats_before = admin.stats().map_err(|e| e.to_string())?;
        let plan = traffic.plan(kind.nominal_qps(), reads(kind.nominal_qps()));
        let plain = workloads::run_phase(&server, kind, plan, &[], 0)?;
        server.wait_idle(Duration::from_secs(10))?;
        let first_write = traffic.writes_sent;
        let plan = traffic.plan(kind.nominal_qps(), reads(kind.nominal_qps()));
        let keep = workloads::keep_sample(&plan, workloads::CHECKED_REPLIES, seed);
        let traced = workloads::run_phase(&server, kind, plan, &keep, first_write)?;
        record_requests(t, traced.origin, kind.name(), &traced.outcomes);
        server.wait_idle(Duration::from_secs(10))?;
        rep.attempted += (plain.attempted() + traced.attempted()) as u64;
        rep.failed += (plain.failed() + traced.failed()) as u64;
        let (wrong, why) = check::check_replies(&traffic.writes, &workloads::samples(&traced))?;
        rep.failed += wrong as u64;
        rep.correct &= wrong == 0;
        for w in why.iter().take(3) {
            rep.note(format!("wrong answer: {w}"));
        }
        rep.metric("ledger.trace_overhead", traced.p50() / plain.p50(), "ratio");
        server_report(&mut admin, Some(&stats_before), rep)?;
    } else {
        let backing = match workload {
            "allpairs_topk_csr" => allpairs::Backing::Csr,
            _ => allpairs::Backing::Mmap,
        };
        let e = allpairs::build_engine(store, backing, allpairs::threads())?;
        let chunks = allpairs::row_chunks(n, seed);
        e.top_k(&chunks[0], TOP_K);
        let mut plain = Vec::new();
        for c in &chunks[1..5] {
            let t0 = Instant::now();
            e.top_k(c, TOP_K);
            plain.push(t0.elapsed().as_nanos() as f64);
        }
        for c in &chunks[1..5] {
            t.time("allpairs.top_k.chunk", || e.top_k(c, TOP_K));
        }
        rep.metric(
            "ledger.trace_overhead",
            p50(t, "allpairs.top_k.chunk") / stats::median(&plain),
            "ratio",
        );
    }

    // Round trips: ping, and one cached query per codec.
    let mut ssb = SyncConn::connect(server.addr, WireFormat::Ssb)?;
    let mut json = SyncConn::connect(server.addr, WireFormat::Jsonl)?;
    let probe = (n / 3) as NodeId;
    ssb.read(probe)?;
    for _ in 0..300 {
        let (r, _) = t.time("runtime.ping", || ssb.call(&Request::Ping));
        r?;
        let (r, _) = t.time("runtime.hit.ssb", || ssb.read(probe));
        r?;
        let (r, _) = t.time("runtime.hit.jsonl", || json.read(probe));
        r?;
    }
    let ping = p50(t, "runtime.ping");
    rep.metric("runtime.ping_rtt_us", ping / 1e3, "us");
    rep.metric("runtime.hit_rtt_us.ssb", p50(t, "runtime.hit.ssb") / 1e3, "us");
    rep.metric("runtime.hit_rtt_us.jsonl", p50(t, "runtime.hit.jsonl") / 1e3, "us");

    // Ledger passes at a low rate: cold reads (distinct nodes, no cache
    // hits) and hot reads (one warmed node set).
    // Cold ledger reads avoid the hot_read hot set, which may be cached.
    let hot_set: std::collections::HashSet<NodeId> =
        Traffic::new(Serve::Hot, g, seed).hot_set().iter().copied().collect();
    let perm: Vec<NodeId> = rng::permutation(n, &mut Rng::stream(seed, "ledger"))
        .into_iter()
        .filter(|v| !hot_set.contains(v))
        .collect();
    let (cold_origin, cold) = read_pass(&server, &perm[..120], 30.0, seed, "ledger-cold")?;
    let hot_nodes: Vec<NodeId> = perm[200..264].to_vec();
    workloads::warm(&server, &hot_nodes)?;
    let hot_reads: Vec<NodeId> = (0..1_100).map(|i| hot_nodes[i % hot_nodes.len()]).collect();
    let (hot_origin, hot) = read_pass(&server, &hot_reads, 500.0, seed, "ledger-hot")?;
    let late = stats::sorted(cold.iter().chain(&hot).map(|o| o.late_ns() as f64 / 1e6).collect());
    rep.metric("ledger.gen_late_p99_ms", stats::tail(&late, 0.99)?, "ms");
    record_requests(t, cold_origin, "ledger.cold", &cold);
    record_requests(t, hot_origin, "ledger.hot", &hot);
    // Client-side pieces come from the passes' own span self times; the
    // server-side pieces from the in-process layer measurements.
    let own = t.self_times();
    let client = |pass: &str| -> f64 {
        ["late", "send", "decode"].iter().map(|c| stats::median(&own[&format!("{pass}.{c}")])).sum()
    };
    let server_side =
        ping + ledger.sum(&["codec.decode_request", "codec.encode_reply", "cache.hit"]);
    let cold_sum = client("ledger.cold")
        + server_side
        + ledger.sum(&["batcher.queue_idle", "engine.batch1", "cache.insert"]);
    let hot_sum = client("ledger.hot") + server_side;
    rep.metric("ledger.cold_gap_share", 1.0 - cold_sum / p50(t, "ledger.cold.request"), "fraction");
    rep.metric("ledger.hot_gap_share", 1.0 - hot_sum / p50(t, "ledger.hot.request"), "fraction");

    if kind.is_none() {
        server_report(&mut admin, None, rep)?;
    }
    drop(admin);
    server.stop()?;
    Ok(())
}
