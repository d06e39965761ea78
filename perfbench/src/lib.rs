//! End-to-end benchmark of the `tir serve` stack.
//!
//! One command runs a named workload against the server as the `tir`
//! binary ships it, prints every end-to-end metric by name and unit, and
//! fails on any wrong answer. A traced run (`--trace 1`) replays the
//! same operations in-process with spans around each layer's public
//! functions and prints per-layer metrics instead. See `README.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod replay;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
