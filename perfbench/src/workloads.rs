//! The three workloads' untraced runs: the end-to-end metrics.

use crate::check::{self, Sample};
use crate::graph::{self, Writes};
use crate::loadgen::{self, Op, Outcome, Planned, Res, SyncConn};
use crate::rng::{self, Rng, Zipf};
use crate::server::ServerProc;
use crate::stats;
use crate::Report;
use ssr_graph::{DiGraph, NodeId};
use ssr_serve::codec::WireFormat;
use std::path::Path;
use std::time::Duration;

/// Server starts per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Serve replies kept and checked bit for bit per run.
pub const CHECKED_REPLIES: usize = 24;
/// A run is marked invalid when the generator's p99 lateness exceeds this
/// share of the workload's p99 limit: the offered load was then not the
/// scheduled one. A probe whose generator ran that late does not pass.
pub const LATE_SHARE_LIMIT: f64 = 0.25;
/// Most requests that may fail in a passing `slo_qps` probe.
pub const SLO_FAIL_SHARE: f64 = 0.001;
/// `slo_qps` search resolution (finer than its bound).
pub const SLO_RESOLUTION: f64 = 0.05;
/// Reads per open-loop phase, at least: enough for a p99 with ten
/// samples above it.
pub const MIN_READS: usize = 1_000;
/// Reads per `slo_qps` probe, at least.
pub const PROBE_READS: usize = 1_500;
/// Reads per open-loop phase, at most (bounds the generator's memory).
pub const MAX_READS: usize = 150_000;
/// Times the search may step up before it gives up on bracketing.
pub const MAX_EXPANSIONS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    Cold,
    Hot,
}

impl Serve {
    pub fn name(self) -> &'static str {
        match self {
            Serve::Cold => "cold_rw",
            Serve::Hot => "hot_read",
        }
    }

    /// Offered read rate at which `p50_ms`/`p99_ms` are measured (req/s).
    pub fn nominal_qps(self) -> f64 {
        match self {
            Serve::Cold => 100.0,
            Serve::Hot => 20_000.0,
        }
    }

    /// The p99 limit `slo_qps` holds to (ms).
    pub fn p99_limit_ms(self) -> f64 {
        match self {
            Serve::Cold => 200.0,
            Serve::Hot => 10.0,
        }
    }

    /// Connections: `cold_rw` reads on `ssb/1` and writes on `json/1`;
    /// `hot_read` splits its reads across both.
    pub fn formats(self) -> [WireFormat; 2] {
        match self {
            Serve::Cold => [WireFormat::Ssb, WireFormat::Jsonl],
            Serve::Hot => [WireFormat::Jsonl, WireFormat::Ssb],
        }
    }
}

/// `cold_rw` sends one `edge_delta` every this many milliseconds.
pub const WRITE_EVERY_MS: u64 = 5_000;
/// Size of `hot_read`'s hot set.
pub const HOT_SET: usize = 1_024;
/// Zipf exponent of `hot_read`'s popularity.
pub const ZIPF_S: f64 = 1.0;

/// Seeded request streams, continued across every phase of a run so no
/// cold read repeats and epochs follow the write sequence.
pub struct Traffic {
    kind: Serve,
    perm: Vec<u32>,
    cursor: usize,
    hot: Vec<NodeId>,
    zipf: Zipf,
    rng: Rng,
    pub writes: Writes,
    pub writes_sent: usize,
}

impl Traffic {
    pub fn new(kind: Serve, g: &DiGraph, seed: u64) -> Traffic {
        let n = g.node_count();
        let perm = rng::permutation(n, &mut Rng::stream(seed, "reads"));
        let hot = rng::permutation(n, &mut Rng::stream(seed, "hot"))[..HOT_SET.min(n)].to_vec();
        Traffic {
            kind,
            perm,
            cursor: 0,
            hot,
            zipf: Zipf::new(HOT_SET.min(n), ZIPF_S),
            rng: Rng::stream(seed, "arrivals"),
            writes: Writes::new(g, 2_000, seed),
            writes_sent: 0,
        }
    }

    pub fn hot_set(&self) -> &[NodeId] {
        &self.hot
    }

    pub fn next_cold(&mut self) -> NodeId {
        let v = self.perm[self.cursor % self.perm.len()];
        self.cursor += 1;
        v
    }

    fn next_read(&mut self) -> NodeId {
        match self.kind {
            Serve::Cold => self.next_cold(),
            Serve::Hot => self.hot[self.zipf.sample(&mut self.rng)],
        }
    }

    /// A seeded Poisson schedule of `reads` reads at `qps`, plus (for
    /// `cold_rw`) the fixed write schedule over the same window.
    pub fn plan(&mut self, qps: f64, reads: usize) -> Vec<Planned> {
        let mut plan = Vec::with_capacity(reads + reads / 16);
        let mut t = 0.0f64;
        for i in 0..reads {
            t += -(1.0 - self.rng.unit()).ln() / qps * 1e9;
            let conn = match self.kind {
                Serve::Cold => 0,
                Serve::Hot => i % 2,
            };
            plan.push(Planned { due_ns: t as u64, conn, op: Op::Read(self.next_read()) });
        }
        if self.kind == Serve::Cold {
            let end = t as u64;
            let step = WRITE_EVERY_MS * 1_000_000;
            let mut due = step / 2;
            while due < end && self.writes_sent < self.writes.len() {
                self.writes_sent += 1;
                let (add, remove) = self.writes.delta(self.writes_sent);
                plan.push(Planned { due_ns: due, conn: 1, op: Op::Write { add, remove } });
                due += step;
            }
        }
        plan.sort_by_key(|p| p.due_ns);
        plan
    }
}

/// What one open-loop phase measured.
pub struct Phase {
    pub reads: usize,
    pub read_failed: usize,
    /// Read latencies in ms in schedule order, failures as +∞.
    pub lat_ms: Vec<f64>,
    pub late_p99_ms: f64,
    pub write_ms: Vec<f64>,
    pub writes: usize,
    pub write_failed: usize,
    pub outcomes: Vec<Outcome>,
    /// The instant outcome times count from.
    pub origin: std::time::Instant,
}

impl Phase {
    pub fn p50(&self) -> f64 {
        stats::quantile(&stats::sorted(self.lat_ms.clone()), 0.5)
    }

    pub fn p99(&self) -> Result<f64, String> {
        stats::tail(&stats::sorted(self.lat_ms.clone()), 0.99)
    }

    /// The median of the p99s of consecutive windows of `window` reads:
    /// one stall of the shared host sets at most one window's p99.
    pub fn windowed_p99(&self, window: usize) -> Result<f64, String> {
        let p99s: Vec<f64> = self
            .lat_ms
            .chunks_exact(window)
            .map(|w| stats::tail(&stats::sorted(w.to_vec()), 0.99))
            .collect::<Result<_, _>>()?;
        if p99s.is_empty() {
            return Err(format!("{} reads fill no {window}-read window", self.lat_ms.len()));
        }
        Ok(stats::median(&p99s))
    }

    /// Median read latency of the first and of the last quarter (ms).
    pub fn quarter_medians(&self) -> (f64, f64) {
        let q = (self.lat_ms.len() / 4).max(1).min(self.lat_ms.len());
        (stats::median(&self.lat_ms[..q]), stats::median(&self.lat_ms[self.lat_ms.len() - q..]))
    }

    pub fn failed(&self) -> usize {
        self.read_failed + self.write_failed
    }

    pub fn attempted(&self) -> usize {
        self.reads + self.writes
    }
}

/// Runs one open-loop phase; write acks must carry the expected epochs.
pub fn run_phase(
    server: &ServerProc,
    kind: Serve,
    plan: Vec<Planned>,
    keep: &[bool],
    first_write: usize,
) -> Result<Phase, String> {
    let drain = Duration::from_secs(3);
    let (origin, outcomes) =
        loadgen::run_open_loop(server.addr, &kind.formats(), &plan, keep, drain)?;
    let mut lat = Vec::new();
    let (mut reads, mut read_failed, mut writes, mut write_failed) = (0, 0, 0, 0);
    let mut write_ms = Vec::new();
    let mut late = Vec::new();
    let mut next_epoch = first_write as u64;
    for (p, o) in plan.iter().zip(&outcomes) {
        match &p.op {
            Op::Read(node) => {
                reads += 1;
                late.push(o.late_ns() as f64 / 1e6);
                let ok = matches!(&o.res, Res::Read { node: got, .. } if got == node);
                let ms = if ok { o.latency_ns() as f64 / 1e6 } else { f64::INFINITY };
                if !ok {
                    read_failed += 1;
                }
                lat.push(ms);
            }
            Op::Write { .. } => {
                writes += 1;
                next_epoch += 1;
                match o.res {
                    Res::Delta { epoch } if epoch == next_epoch => {
                        write_ms.push(o.recv_ns.saturating_sub(o.send_ns) as f64 / 1e6)
                    }
                    _ => write_failed += 1,
                }
            }
        }
    }
    Ok(Phase {
        reads,
        read_failed,
        lat_ms: lat,
        late_p99_ms: stats::quantile(&stats::sorted(late), 0.99),
        write_ms: stats::sorted(write_ms),
        writes,
        write_failed,
        outcomes,
        origin,
    })
}

/// Whether a probe at its offered rate meets the workload's SLO.
pub fn probe_passes(kind: Serve, ph: &Phase) -> bool {
    let limit = kind.p99_limit_ms();
    let fail_ok = ph.failed() as f64 <= SLO_FAIL_SHARE * ph.attempted() as f64;
    let p99_ok = ph.p99().is_ok_and(|p| p <= limit);
    let (first, last) = ph.quarter_medians();
    let backlog_ok = last <= first + limit / 4.0;
    let gen_ok = ph.late_p99_ms <= LATE_SHARE_LIMIT * limit;
    fail_ok && p99_ok && backlog_ok && gen_ok
}

/// Starts the server [`SETUP_REPS`] times; returns the last one running
/// and the median set-up time.
pub fn start_server(bin: &Path, store: &Path) -> Result<(ServerProc, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPS {
        let (server, secs) = ServerProc::start(bin, store)?;
        times.push(secs);
        if i + 1 < SETUP_REPS {
            server.stop()?;
        } else {
            last = Some(server);
        }
    }
    Ok((last.expect("at least one start"), stats::median(&times)))
}

/// Reads every hot node once so the timed window starts cache-warm.
pub fn warm(server: &ServerProc, nodes: &[NodeId]) -> Result<(), String> {
    let mut c = SyncConn::connect(server.addr, WireFormat::Ssb)?;
    for &v in nodes {
        match c.read(v)? {
            Res::Read { .. } => {}
            other => return Err(format!("warm-up read of {v} failed: {other:?}")),
        }
    }
    Ok(())
}

/// Which read indices of `plan` keep their replies for the check.
pub fn keep_sample(plan: &[Planned], count: usize, seed: u64) -> Vec<bool> {
    let reads: Vec<usize> = plan
        .iter()
        .enumerate()
        .filter(|(_, p)| matches!(p.op, Op::Read(_)))
        .map(|(i, _)| i)
        .collect();
    let mut keep = vec![false; plan.len()];
    let mut rng = Rng::stream(seed, "check");
    for _ in 0..count.min(reads.len()) {
        keep[reads[rng.below(reads.len() as u64) as usize]] = true;
    }
    keep
}

pub fn samples(phase: &Phase) -> Vec<Sample> {
    phase
        .outcomes
        .iter()
        .filter_map(|o| match &o.res {
            Res::Read { epoch, node, matches: Some(m), .. } => {
                Some(Sample { node: *node, epoch: *epoch, matches: m.to_vec() })
            }
            _ => None,
        })
        .collect()
}

/// The untraced serve run: `setup_s`, `p50_ms` at the nominal rate,
/// `slo_qps` and `peak_rss_mb`, with the p99 and the write
/// acknowledgement p50 as note lines.
pub fn serve_run(
    kind: Serve,
    seed: u64,
    secs: f64,
    work: &Path,
    rep: &mut Report,
) -> Result<(), String> {
    let bin = crate::server::build_simstar()?;
    let g = graph::generate(seed)?;
    let store = work.join("graph.ssg");
    graph::write_store(&g, &store)?;
    let mut traffic = Traffic::new(kind, &g, seed);
    let (server, setup_s) = start_server(&bin, &store)?;
    match kind {
        Serve::Hot => warm(&server, traffic.hot_set())?,
        Serve::Cold => {
            let first: Vec<NodeId> = (0..32).map(|_| traffic.next_cold()).collect();
            warm(&server, &first)?;
        }
    }

    // Latency at the nominal rate over `--seconds`; the rate search
    // follows.
    let reads = |qps: f64, least: usize| ((qps * secs) as usize).clamp(least, MAX_READS);
    let plan = traffic.plan(kind.nominal_qps(), reads(kind.nominal_qps(), MIN_READS));
    let keep = keep_sample(&plan, CHECKED_REPLIES, seed);
    let nominal = run_phase(&server, kind, plan, &keep, 0)?;
    let mut writes_done = traffic.writes_sent;
    server.wait_idle(Duration::from_secs(10))?;
    let p99 = nominal.windowed_p99(MIN_READS)?;
    rep.note(format!(
        "{}: nominal {} req/s, {} reads, gen_late_p99_ms {:.3}, {} writes",
        kind.name(),
        kind.nominal_qps(),
        nominal.reads,
        nominal.late_p99_ms,
        nominal.writes
    ));
    rep.meta("samples", nominal.reads.to_string());
    rep.meta("gen_late_p99_ms", format!("{:.4}", nominal.late_p99_ms));
    // A generator that ran late offered bursts instead of the schedule:
    // the run is marked invalid (its latencies still count from the due
    // times, so they are not flattered).
    let valid = nominal.late_p99_ms <= LATE_SHARE_LIMIT * kind.p99_limit_ms();
    rep.meta("valid", valid.to_string());
    if !valid {
        rep.note(format!(
            "INVALID: generator p99 lateness {:.3} ms exceeds {:.3} ms; the offered load was not the schedule",
            nominal.late_p99_ms,
            LATE_SHARE_LIMIT * kind.p99_limit_ms()
        ));
    }
    rep.attempted += nominal.attempted() as u64;
    rep.failed += nominal.failed() as u64;

    // slo_qps over the rest: bracket it between the nominal rate and a
    // ×4 step that fails, then bisect to the resolution. A failing
    // probe is repeated once, so one transient stall of the shared host
    // does not decide the rate.
    let mut probe = |qps: f64, traffic: &mut Traffic| -> Result<bool, String> {
        for _ in 0..2 {
            let plan = traffic.plan(qps, reads(qps / 8.0, PROBE_READS));
            let ph = run_phase(&server, kind, plan, &[], writes_done)?;
            writes_done = traffic.writes_sent;
            server.wait_idle(Duration::from_secs(10))?;
            let pass = probe_passes(kind, &ph);
            note_probe(kind, qps, &ph, pass);
            if pass {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let mut lo = kind.nominal_qps();
    let mut hi = lo * 4.0;
    let mut expansions = 0;
    while probe(hi, &mut traffic)? {
        lo = hi;
        hi *= 4.0;
        expansions += 1;
        if expansions == MAX_EXPANSIONS {
            return Err(format!("slo_qps exceeds {lo:.0} req/s; the search range is stale"));
        }
    }
    while hi / lo > 1.0 + SLO_RESOLUTION {
        let mid = (lo * hi).sqrt();
        if probe(mid, &mut traffic)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let peak = server.peak_rss_mb()?;
    server.stop()?;

    // Output check, outside every timed window.
    let samples = samples(&nominal);
    let (wrong, why) = check::check_replies(&traffic.writes, &samples)?;
    rep.note(format!("checked {} replies bit for bit: {wrong} wrong", samples.len()));
    for w in why.iter().take(3) {
        rep.note(format!("wrong answer: {w}"));
    }
    rep.failed += wrong as u64;
    rep.correct &= wrong == 0 && samples.len() >= CHECKED_REPLIES / 2;

    rep.metric("setup_s", setup_s, "s");
    rep.metric("p50_ms", nominal.p50(), "ms");
    rep.metric("slo_qps", lo, "req/s");
    rep.metric("peak_rss_mb", peak, "MiB");
    // Measured and printed every run, but not gated: on a shared 2-vCPU
    // host their spread over ten seeds (0.35-0.40) exceeds the largest
    // bound a gated metric may have (0.25).
    rep.note(format!("p99_ms = {p99} ms (median of {MIN_READS}-read window p99s; not gated)"));
    if kind == Serve::Cold {
        let write_p50 = stats::quantile(&nominal.write_ms, 0.5);
        rep.note(format!("write_p50_ms = {write_p50} ms (not gated)"));
    }
    Ok(())
}

fn note_probe(kind: Serve, qps: f64, ph: &Phase, pass: bool) {
    let (q1, q4) = ph.quarter_medians();
    eprintln!(
        "perfbench {}: probe {:.0} req/s -> {} (reads {}, failed {}, p99 {}, q1 {:.2} ms, q4 {:.2} ms, late p99 {:.3} ms)",
        kind.name(),
        qps,
        if pass { "pass" } else { "fail" },
        ph.reads,
        ph.failed(),
        ph.p99().map_or("n/a".to_string(), |p| format!("{p:.2} ms")),
        q1,
        q4,
        ph.late_p99_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The nominal rates and p99 limits are recorded in `BENCHMARK.json`;
    /// the code and the file must agree.
    #[test]
    fn benchmark_json_records_the_nominal_rates_and_limits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let doc = ssr_serve::json::parse_json(&text).expect("valid JSON");
        let workloads = doc.get("workloads").and_then(|w| w.as_arr()).expect("workloads");
        for kind in [Serve::Cold, Serve::Hot] {
            let listed = workloads
                .iter()
                .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(kind.name()));
            let Some(why) = listed.and_then(|w| w.get("why")).and_then(|w| w.as_str()) else {
                continue;
            };
            assert!(why.contains(&format!("at {} req/s", kind.nominal_qps())), "{why}");
            assert!(why.contains(&format!("p99 limit {} ms", kind.p99_limit_ms())), "{why}");
        }
    }

    #[test]
    fn one_stall_sets_at_most_one_window_p99() {
        let mut lat_ms = vec![1.0; 3 * MIN_READS];
        // One stall: 40 slow reads, all inside the second window.
        lat_ms[MIN_READS..MIN_READS + 40].fill(100.0);
        let ph = Phase {
            reads: lat_ms.len(),
            read_failed: 0,
            lat_ms,
            late_p99_ms: 0.0,
            write_ms: Vec::new(),
            writes: 0,
            write_failed: 0,
            outcomes: Vec::new(),
            origin: std::time::Instant::now(),
        };
        assert_eq!(ph.p99(), Ok(100.0));
        assert_eq!(ph.windowed_p99(MIN_READS), Ok(1.0));
        assert!(ph.windowed_p99(4 * MIN_READS).is_err());
    }

    #[test]
    fn cold_reads_never_repeat_within_a_run_and_writes_are_scheduled() {
        let g = ssr_gen::citation::citation_graph(
            ssr_gen::citation::CitationParams { nodes: 2_000, ..Default::default() },
            1,
        );
        let mut t = Traffic::new(Serve::Cold, &g, 4);
        let plan = t.plan(100.0, 1_000);
        let reads: Vec<NodeId> = plan
            .iter()
            .filter_map(|p| if let Op::Read(v) = p.op { Some(v) } else { None })
            .collect();
        let mut uniq = reads.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), reads.len());
        assert_eq!(reads.len(), 1_000);
        // 1,000 reads at 100 req/s span about 10 s of writes.
        let expect = 10_000 / WRITE_EVERY_MS as usize;
        assert!(t.writes_sent.abs_diff(expect) <= 1, "{} writes", t.writes_sent);
        assert!(plan.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let mut again = Traffic::new(Serve::Cold, &g, 4);
        let replay = again.plan(100.0, 1_000);
        assert!(plan.iter().zip(&replay).all(|(a, b)| a.due_ns == b.due_ns));
    }
}
