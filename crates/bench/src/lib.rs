//! # exacml-bench — experiment harness for the eXACML+ evaluation
//!
//! This crate regenerates every table and figure of the paper's Section 4.2
//! evaluation:
//!
//! | artefact | binary |
//! |---|---|
//! | Table 3 (workload parameters / corpus summary) | `cargo run -p exacml-bench --release --bin table3` |
//! | policy loading cost (¶ before Fig. 6) | `cargo run -p exacml-bench --release --bin policy_loading` |
//! | Figure 6(a) — response-time CDF, unique sequence | `cargo run -p exacml-bench --release --bin fig6a` |
//! | Figure 6(b) — response-time CDF, Zipf sequence, cache on/off | `cargo run -p exacml-bench --release --bin fig6b` |
//! | Figure 7(a)/(b) — per-request time decomposition | `cargo run -p exacml-bench --release --bin fig7` |
//!
//! That is all this crate holds. Per-component costs (PDP, query-graph
//! manipulation, NR/PR analysis, DSMS ingest, the WAL) are rungs of the
//! repo's one benchmark, `benchmark/` (see `BENCHMARK.json`).
//!
//! All five binaries accept `--small` to run a ~10% scaled workload and
//! `--json <path>` to dump the raw series; `fig7` and `policy_loading` also
//! take `--requests N` / `--policies N`. Anything else is an error.

pub mod experiments;
pub mod report;

pub use experiments::{
    build_environment, fig6a as fig6a_result, fig6b as fig6b_result, fig7 as fig7_result,
    policy_loading_experiment, run_direct_queries, run_exacml_sequence, Environment, Fig6Result,
    Fig7Result, PolicyLoadingResult,
};
pub use report::{cdf_table, series_table, write_json};
