//! # tir-invidx
//!
//! Inverted-index substrate for temporal information retrieval:
//!
//! * [`Dictionary`] — string-to-element-id interning with document
//!   frequencies;
//! * [`InvertedIndex`] — a corpus-level inverted index for classic
//!   containment search;
//! * [`CompactInverted`] / [`CompactTemporalInverted`] — flat,
//!   low-overhead per-division indexes used inside irHINT partitions;
//! * [`kernels`] — merge / galloping / adaptive sorted-set intersection
//!   primitives, tombstone-aware;
//! * [`simd`] — runtime-dispatched SSE2/SSSE3/AVX2 variants of the hot
//!   kernels (the one audited `unsafe` module in this crate; scalar
//!   fallbacks always available, `TIR_SIMD=off` forces them);
//! * [`container`] — hybrid array/bitmap/run posting containers chosen
//!   by density and run structure at build/compaction time;
//! * [`planner`] — the cost-based conjunction planner and reusable
//!   [`QueryScratch`] arena with per-query kernel counters;
//! * [`compress`] — delta/varint compressed temporal postings and
//!   stream-vbyte [`BlockPostings`] with per-block skip bounds, the base
//!   store of `tir-core`'s cTIF (the paper's compression future-work
//!   direction).

// `deny`, not `forbid`, so the audited [`simd`] module can locally
// allow intrinsics. The `unsafe-code` analyze rule pins the allowlist
// to exactly that file.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod compress;
pub mod container;
pub mod dict;
pub mod kernels;
pub mod plain;
pub mod planner;
pub mod simd;

pub use compact::{CompactInverted, CompactTemporalInverted, TemporalPostings};
pub use compress::{BlockPostings, CompressedTemporalPostings};
pub use container::{ContainerConfig, DenseBits, HybridPostings, PostingContainer, RunSet};
pub use dict::Dictionary;
pub use kernels::{
    contains_sorted, intersect_adaptive_into, intersect_gallop_into, intersect_gallop_rev_into,
    intersect_merge_into, kway_merge_dedup, live, mark_hits, mark_hits_gallop,
    mark_hits_gallop_rev, raw, TOMBSTONE,
};
pub use plain::InvertedIndex;
pub use planner::{global_stats, Kernel, PlanStats, Postings, QueryScratch};
pub use simd::SimdLevel;
