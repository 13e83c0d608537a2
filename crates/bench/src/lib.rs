//! # ssr-bench — experiment harness regenerating every table and figure
//!
//! One binary per paper artifact, plus the perf trajectories and their
//! regression gate:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `exp_fig1_table` | Figure 1 similarity table |
//! | `exp_fig5_datasets` | Figure 5 dataset table |
//! | `exp_fig6a_semantics` | Fig. 6(a) Kendall/Spearman/NDCG |
//! | `exp_fig6b_roles` | Fig. 6(b) role difference of top pairs |
//! | `exp_fig6c_groups` | Fig. 6(c) within/cross decile similarity |
//! | `exp_fig6d_zero` | Fig. 6(d) zero-similarity census |
//! | `exp_fig6e_time` | Fig. 6(e) elapsed time |
//! | `exp_fig6f_amortized` | Fig. 6(f) amortised phase time |
//! | `exp_fig6g_density` | Fig. 6(g) density sweep |
//! | `exp_fig6h_memory` | Fig. 6(h) memory space |
//! | `exp_ablation_compression` | ablation: edge-concentration mining configurations |
//! | `exp_ablation_weights` | ablation: the §3.2 length-weight choice |
//! | `tool_compression_stats` | edge-concentration statistics per dataset stand-in |
//! | `exp_query_engine` | query-engine perf trajectory (`BENCH_query_engine.json`) |
//! | `exp_allpairs` | all-pairs perf trajectory (`BENCH_allpairs.json`) |
//! | `exp_serve` | serving-layer perf trajectory (`BENCH_serve.json`) |
//! | `exp_store` | graph-store load trajectory (`BENCH_store.json`) |
//! | `exp_obs_overhead` | CI gate: metrics + trace-sampler overhead on the serve path |
//! | `bench_check` | CI perf-regression gate over the trajectories |
//! | `run_all` | the paper figures, the convergence table, and the query/serve/store trajectories |
//!
//! This crate also hosts the shared runner ([`runners`]) that executes each
//! of the paper's five algorithm configurations with per-phase timing, and
//! the byte-accounting helpers ([`memuse`]) behind the memory figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allpairs_bench;
pub mod check;
pub mod experiments;
pub mod memuse;
pub mod query_bench;
pub mod runners;
pub mod serve_bench;
pub mod store_bench;

use std::time::{Duration, Instant};

/// Times a closure, returning its output and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a duration as fractional seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}
