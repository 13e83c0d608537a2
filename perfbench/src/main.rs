//! `perfbench`: the repository's benchmark. One command runs one
//! workload, checks its outputs, and prints every metric by name with
//! its unit; the last line of standard output is the JSON result.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload allpairs_topk --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `cold_rw`, `hot_read`, `allpairs_topk`, `allpairs_topk_csr`
//! (see README.md).
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced ledger and reports the per-layer metrics instead, writing the
//! benchmark's spans as JSONL under `.perfbench_out/`.

mod allpairs;
mod check;
mod graph;
mod layers;
mod loadgen;
mod rng;
mod server;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;

/// One run's result: the contract's JSON line plus human-readable notes
/// and run metadata.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, String)>,
    notes: Vec<String>,
    meta: Vec<(String, String)>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            meta: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn meta(&mut self, key: &str, value: String) {
        self.meta.retain(|(k, _)| k != key);
        self.meta.push((key.to_string(), value));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", number(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with all its digits (non-finite values become null).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

const WORKLOADS: [&str; 4] = ["cold_rw", "hot_read", "allpairs_topk", "allpairs_topk_csr"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 20.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} (got {:?})", a.workload));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// A content hash of the checkout's sources, standing in for the commit
/// when the checkout is not a git repository.
fn source_id() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates"), PathBuf::from("perfbench/src")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        for b in f.display().to_string().bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn run(args: &Args, rep: &mut Report) -> Result<(), String> {
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}-{}",
        args.workload,
        args.seed,
        args.trace as u8,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds, &work, rep)
    } else {
        match args.workload.as_str() {
            "cold_rw" => {
                workloads::serve_run(workloads::Serve::Cold, args.seed, args.seconds, &work, rep)
            }
            "hot_read" => {
                workloads::serve_run(workloads::Serve::Hot, args.seed, args.seconds, &work, rep)
            }
            "allpairs_topk" => {
                allpairs::run(args.seed, args.seconds, allpairs::Backing::Mmap, &work, rep)
            }
            _ => allpairs::run(args.seed, args.seconds, allpairs::Backing::Csr, &work, rep),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--allpairs-child") {
        let go = || -> Result<(), String> {
            let [_, store, backing, seed, secs] = &argv[..] else {
                return Err("usage: --allpairs-child STORE mmap|csr SEED SECS".into());
            };
            allpairs::child(
                std::path::Path::new(store),
                backing,
                seed.parse().map_err(|_| "bad seed")?,
                secs.parse().map_err(|_| "bad seconds")?,
            )
        };
        if let Err(e) = go() {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::new();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rep.meta("workload", args.workload.clone());
    rep.meta("seed", args.seed.to_string());
    rep.meta("trace", (args.trace as u8).to_string());
    rep.meta("cores", cores.to_string());
    rep.meta("generator_shares_cores", "true".into());
    rep.meta("commit", source_id());
    if let Err(e) = run(&args, &mut rep) {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    }
    for n in &rep.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &rep.metrics {
        println!("{name} = {} {unit}", number(*value));
    }
    let meta: Vec<String> = rep.meta.iter().map(|(k, v)| format!("\"{k}\": \"{v}\"")).collect();
    println!("{{\"meta\": {{{}}}}}", meta.join(", "));
    println!("{}", rep.json());
    if !rep.correct {
        std::process::exit(1);
    }
}
