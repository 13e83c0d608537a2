//! Serving-layer throughput benchmark (`exp_serve`), emitted as
//! `BENCH_serve.json`.
//!
//! Starts a real [`ssr_serve::Server`] on an ephemeral loopback port and
//! drives it with the closed-loop load generator (one server,
//! reconfigured between phases through the admin `config` op — exactly
//! what `simstar bench-serve` does against an external server) through
//! two phase groups:
//!
//! The **batching** group (16 clients, newline JSON):
//!
//! * **serial** — batch window disabled, cache off: every request flushes
//!   alone through the engine. The baseline.
//! * **batched** — the coalescing window on, cache off: concurrent
//!   requests ride the 16-lane blocked path together. The acceptance
//!   metric is `speedup_batched_vs_serial ≥ 2×` at 16 concurrent clients
//!   on CitHepTh.
//! * **cached** — window on, cache on, hot node pool: adds the sharded
//!   result cache (hit-rate reported).
//!
//! The **protocol** group (64 clients, window on, cache off — only the
//! wire moves):
//!
//! * **json_serial** / **ssb_serial** — one request in flight per client
//!   on each codec: isolates per-frame codec cost.
//! * **ssb_pipelined** — binary `ssb/1` with 8 requests in flight per
//!   client: the depth that actually fills a coalescing window. The
//!   acceptance metric is `speedup_ssb_pipelined_vs_json_serial ≥ 2×`.
//! * **conns_1k** — the pipelined load while 1024 idle connections are
//!   held open (256 in smoke, under CI's fd limit), with the
//!   server-reported connection gauge: the event loop carries the idle
//!   mass on its fixed thread budget.
//!
//! The **workers** group (`serial_workersN` / `batched_workersN`): the
//! batching pair again, against servers running N flush workers over one
//! shared engine (2 in smoke; 2 and 4 in the full run). Answers are
//! bit-identical to one worker (the e2e suite enforces it); these modes
//! measure what concurrent flushes buy.
//!
//! Two graphs: the citation stand-in (one weakly-connected component, so
//! a query's frontier spans most of the graph) and a sparse Erdős–Rényi
//! graph with thousands of small components, where a query's frontier is
//! tiny and top-k selection straight off the sparse frontier is what
//! keeps a flush from paying `O(n)` per query. The ER graph runs the
//! batching and workers groups; the wire-bound protocol group runs on the
//! citation graph only.
//!
//! Queries come from the in-degree-stratified sample the paper's §5
//! protocol uses. The JSON schema (`ssr-bench/serve/v1`) is rendered by
//! [`ssr_serve::loadgen::render_serve_json`] and carries `p50_us` per
//! mode, so `bench_check`'s median gate applies unchanged — now across
//! both protocols.

use simrank_star::SimStarParams;
use ssr_datasets::{load, DatasetId};
use ssr_eval::queries::select_queries;
use ssr_graph::{DiGraph, NodeId};
use ssr_serve::batcher::BatcherOptions;
use ssr_serve::loadgen::{
    run_connections_phase, run_protocol_phases, run_standard_phases, run_workers_phases, LoadPlan,
    PhaseResult, ServeBenchMeta, ServeDataset,
};
use ssr_serve::server::{Server, ServerOptions};

/// Configuration of one serve-bench run.
pub struct ServeBenchOptions {
    /// Tiny dataset + few requests (the CI mode).
    pub smoke: bool,
    /// Where to write the JSON report.
    pub out_path: std::path::PathBuf,
}

const C: f64 = 0.6;
/// Serving depth, matching the query-engine bench (see its rationale).
const K: usize = 8;
const TOP_K: usize = 10;
const CLIENTS: usize = 16;
const WINDOW_US: u64 = 800;
/// Requests each `ssb_pipelined` client keeps in flight.
const PIPELINE: usize = 8;
const SEED: u64 = 0x0BE7_C0DE;
/// The many-component graph: `simstar generate --kind er --nodes 16000
/// --edges 14000 --seed 7` (3,419 WCCs, the largest 11,417 nodes), and a
/// same-density eighth of it in smoke.
const ER_FULL: (usize, usize) = (16_000, 14_000);
const ER_SMOKE: (usize, usize) = (2_000, 1_750);
const ER_SEED: u64 = 7;

fn start_server(g: &DiGraph, params: SimStarParams, workers: usize, conns: usize) -> Server {
    Server::start(
        g.clone(),
        "127.0.0.1",
        0,
        ServerOptions {
            params,
            cache_capacity: 4096,
            cache_shards: 8,
            batch: BatcherOptions {
                window_us: WINDOW_US,
                max_batch: 64,
                queue_capacity: 1024,
                workers,
            },
            max_connections: conns,
            ..Default::default()
        },
    )
    .expect("bind ephemeral loopback port")
}

/// `n` in-degree-stratified query nodes (the paper's §5 protocol).
fn query_pool(g: &DiGraph, n: usize) -> Vec<NodeId> {
    let mut q = select_queries(g, 5, n.div_ceil(5), SEED);
    q.truncate(n);
    q
}

/// The workers-axis pairs, each against a fresh server with that many
/// flush workers.
fn workers_phases(
    g: &DiGraph,
    params: SimStarParams,
    plan: &LoadPlan,
    smoke: bool,
) -> Vec<PhaseResult> {
    let mut phases = Vec::new();
    for &workers in if smoke { &[2usize][..] } else { &[2, 4] } {
        let server = start_server(g, params, workers, CLIENTS + 32);
        phases.extend(
            run_workers_phases(server.addr(), plan, WINDOW_US, workers).expect("workers run"),
        );
        server.shutdown();
    }
    phases
}

/// Runs the benchmark, prints a summary table, and writes the JSON report.
pub fn run_serve_bench(opts: &ServeBenchOptions) {
    // (dataset, divisor, requests per client). 16 clients × 140 requests
    // = 2240 requests per phase on CitHepTh — enough for stable medians
    // at ~ms-scale serial latency without a multi-minute run.
    let (id, divisor, requests_per_client) =
        if opts.smoke { (DatasetId::D05, 2, 25) } else { (DatasetId::CitHepTh, 2, 140) };
    // Protocol group: (clients, requests per client, idle connections).
    // Smoke stays at 256 held sockets — GitHub runners cap fds at 1024.
    let (p_clients, p_requests, idle_conns) =
        if opts.smoke { (32, 12, 256) } else { (64, 50, 1024) };
    let d = load(id, divisor);
    let g = &d.graph;
    let params = SimStarParams { c: C, iterations: K };
    let n_pool = (CLIENTS * requests_per_client).max(p_clients * p_requests).min(g.node_count());
    let pool = query_pool(g, n_pool);
    let hot: Vec<u32> = pool.iter().copied().take(64).collect();
    // Standard phases warm `hot` through the cached phase; the protocol
    // phases then reuse it with the cache on, so they time the wire.

    let server = start_server(g, params, 1, idle_conns + p_clients + 32);
    let addr = server.addr();

    println!(
        "SERVE BENCH {} (n={}, m={}, c={C}, k={K}, top-k={TOP_K}, {CLIENTS} clients, \
         window={WINDOW_US}us, {} threads)",
        id.name(),
        g.node_count(),
        g.edge_count(),
        server.worker_threads(),
    );
    let plan = LoadPlan::new(CLIENTS, requests_per_client, TOP_K, pool.clone());
    let mut phases = run_standard_phases(addr, &plan, hot.clone(), WINDOW_US).expect("load run");
    let p_plan = LoadPlan::new(p_clients, p_requests, TOP_K, pool);
    phases.extend(
        run_protocol_phases(addr, &p_plan, hot.clone(), WINDOW_US, PIPELINE).expect("protocol run"),
    );
    let conns_plan =
        LoadPlan::new(p_clients, p_requests.div_ceil(2).max(5), TOP_K, p_plan.nodes.clone());
    phases.push(
        run_connections_phase(addr, &conns_plan, hot, WINDOW_US, PIPELINE, idle_conns)
            .expect("connection-scaling run"),
    );
    let worker_threads = server.worker_threads();
    server.shutdown();
    phases.extend(workers_phases(g, params, &plan, opts.smoke));
    let mut datasets = vec![ServeDataset {
        name: id.name().to_string(),
        nodes: g.node_count(),
        edges: g.edge_count(),
        phases,
    }];

    // The many-component graph: batching and workers groups only.
    let (er_n, er_m) = if opts.smoke { ER_SMOKE } else { ER_FULL };
    let er = ssr_gen::random::erdos_renyi_gnm(er_n, er_m, ER_SEED);
    let er_pool = query_pool(&er, (CLIENTS * requests_per_client).min(er.node_count()));
    let er_hot: Vec<u32> = er_pool.iter().copied().take(64).collect();
    let er_plan = LoadPlan::new(CLIENTS, requests_per_client, TOP_K, er_pool);
    let er_server = start_server(&er, params, 1, CLIENTS + 32);
    let mut er_phases =
        run_standard_phases(er_server.addr(), &er_plan, er_hot, WINDOW_US).expect("ER load run");
    er_server.shutdown();
    er_phases.extend(workers_phases(&er, params, &er_plan, opts.smoke));
    datasets.push(ServeDataset {
        name: format!("ER-n{er_n}-m{er_m}"),
        nodes: er.node_count(),
        edges: er.edge_count(),
        phases: er_phases,
    });

    for d in &datasets {
        println!("{} (n={}, m={})", d.name, d.nodes, d.edges);
        println!(
            "{:<18} {:>7} {:>4} {:>9} {:>10} {:>10} {:>9} {:>6} {:>6}",
            "mode", "proto", "pipe", "qps", "p50_us", "p99_us", "hit_rate", "shed", "conns"
        );
        for p in &d.phases {
            println!(
                "{:<18} {:>7} {:>4} {:>9.1} {:>10.1} {:>10.1} {:>8.1}% {:>6} {:>6}",
                p.name,
                p.protocol,
                p.pipeline,
                p.report.qps(),
                p.report.percentile_us(0.50),
                p.report.percentile_us(0.99),
                100.0 * p.hit_rate(),
                p.shed,
                p.connections,
            );
        }
        let qps =
            |name: &str| d.phases.iter().find(|p| p.name == name).map_or(0.0, |p| p.report.qps());
        println!("speedup batched vs serial: {:.2}x", qps("batched") / qps("serial").max(1e-12));
        if qps("json_serial") > 0.0 {
            println!(
                "speedup ssb pipelined vs json serial: {:.2}x",
                qps("ssb_pipelined") / qps("json_serial")
            );
        }
    }

    let meta = ServeBenchMeta {
        smoke: opts.smoke,
        clients: CLIENTS,
        window_us: WINDOW_US,
        pipeline: PIPELINE,
        idle_conns,
        worker_threads,
        top_k: TOP_K,
        c: C,
        k: K,
    };
    let json = ssr_serve::loadgen::render_serve_json(&meta, &datasets);
    std::fs::write(&opts.out_path, json).expect("write bench JSON");
    println!("wrote {}", opts.out_path.display());
}
