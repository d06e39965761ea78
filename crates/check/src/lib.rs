//! # tir-check
//!
//! Deep structural invariant validation for every index structure in the
//! workspace: the [`Validate`] trait walks a structure's internals through
//! the introspection accessors each crate exposes and reports every broken
//! invariant as a path-addressed [`Violation`]
//! (`hint/level3/partition7/O_in: ids not sorted`).
//!
//! The checks cover, per structure family:
//!
//! * **record-count conservation** — live entries across divisions /
//!   slices / shards must agree with the tracked frequency or live
//!   counters;
//! * **minimal-cover and replica placement** — every HINT record appears
//!   in exactly one original division, its replicas reference a live
//!   original, and kept endpoints fall inside the partition's cell range;
//! * **sorted, duplicate-free postings** — id-sorted lists are strictly
//!   ascending by raw id, beneficial orders are verified per subdivision;
//! * **tombstone hygiene** — cached `dead` counters equal the number of
//!   tombstone bits actually set;
//! * **offset monotonicity** — flat postings directories have exact,
//!   monotone offset arrays and bounds-checked compressed streams;
//! * **cross-structure agreement** — decoupled dual structures (the
//!   size-variant irHINT) must describe the same object sets;
//! * **on-disk snapshots** — [`validate_snapshot`] fscks a `tir-persist`
//!   snapshot file: section CRCs, the dictionary, ascending catalog ids
//!   and intervals, and META counters.
//!
//! Validation never panics on corrupted input: every walk is
//! bounds-checked, so a validator can safely run over a structure that a
//! direct query would crash on.
//!
//! ```
//! use tir_check::Validate;
//! use tir_core::prelude::*;
//!
//! let coll = Collection::running_example();
//! let index = IrHintPerf::build(&coll);
//! assert!(index.validate().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_checks;
mod hint_checks;
mod invidx_checks;
mod oracle_checks;
mod snapshot_checks;

pub use core_checks::validate_method;
pub use oracle_checks::{diff_against_oracle, oracle_query_grid};
pub use snapshot_checks::validate_snapshot;

use std::fmt;

/// One broken invariant, addressed by a `/`-separated path into the
/// structure (`hint/level3/partition7/O_in`) plus a human-readable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Where in the structure the invariant broke.
    pub path: String,
    /// What broke.
    pub message: String,
}

impl Violation {
    /// Creates a violation.
    pub fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Violation {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// Structural self-validation: walk the structure's internals and report
/// every broken invariant. An empty result means the structure is sound.
pub trait Validate {
    /// Returns all detected violations (empty when the structure is
    /// internally consistent).
    fn validate(&self) -> Vec<Violation>;
}

/// Re-prefixes nested violations under `prefix` and appends them to `out`.
pub(crate) fn nest(prefix: &str, nested: Vec<Violation>, out: &mut Vec<Violation>) {
    for v in nested {
        out.push(Violation::new(format!("{prefix}/{}", v.path), v.message));
    }
}

/// Pushes a violation built from format-ready parts.
pub(crate) fn fail(out: &mut Vec<Violation>, path: &str, message: String) {
    out.push(Violation::new(path, message));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_is_path_colon_message() {
        let v = Violation::new("hint/level3/partition7/O_in", "ids not sorted");
        assert_eq!(v.to_string(), "hint/level3/partition7/O_in: ids not sorted");
    }

    #[test]
    fn nest_prefixes_paths() {
        let mut out = Vec::new();
        nest("outer", vec![Violation::new("inner", "boom")], &mut out);
        assert_eq!(out[0].path, "outer/inner");
        assert_eq!(out[0].message, "boom");
    }
}
