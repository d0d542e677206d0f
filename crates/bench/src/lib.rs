//! Benchmark harness reproducing every table and figure of the G-PASTA
//! paper.
//!
//! One binary per artefact (see `DESIGN.md` §4 for the experiment index):
//!
//! | Binary   | Paper artefact |
//! |----------|----------------|
//! | `fig1a`  | Figure 1(a): runtime breakdown of `update_timing` with/without partitioning |
//! | `fig1b`  | Figure 1(b): partitioning-time growth vs TDG size (Sarkar, GDCA, G-PASTA) |
//! | `table1` | Table 1: TDG runtime and partitioning runtime for all four partitioners on six circuits |
//! | `fig7`   | Figure 7: cumulative STA runtime over incremental timing iterations |
//! | `fig8`   | Figure 8: TDG runtime vs partition size |
//!
//! Every binary accepts `--scale <f>` (default 0.05: 5 % of the paper's TDG
//! sizes so the suite runs on laptop-class machines), `--full` (paper-scale),
//! `--runs <n>` (averaging), `--workers <n>` and `--out <dir>` (CSV/JSON
//! output, default `results/`). Absolute milliseconds differ from the paper
//! (different machine, simulated GPU); the *shape* — who wins, by what
//! factor, where curves bend — is the reproduction target recorded in
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figs;
pub mod flow;
pub mod output;
pub mod tuning;

pub use cli::{BenchConfig, CliError};
pub use flow::{measure_partitioned_update, measure_plain_update, FlowTiming};
pub use output::{to_markdown, write_csv, write_json, OutputError, Row};
pub use tuning::tune_gdca_ps;
