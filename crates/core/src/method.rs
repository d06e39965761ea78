//! The method registry: the nine temporal-IR methods of the evaluation,
//! their CLI/wire names, their paper labels and their constructors, in
//! one place.
//!
//! Every caller that picks a method by name — the `tir` CLI, the
//! benchmark harness, the structural fsck, the cross-index oracle
//! suites — goes through [`Method`]. Callers that need the concrete
//! index type (the serving stack is monomorphic; a `Validate` or
//! `Persist` bound can only be checked at the caller) dispatch with
//! [`with_method!`](crate::with_method), the only place that maps a
//! method to its constructor.

use std::fmt;
use std::str::FromStr;

use crate::collection::Collection;
use crate::index_trait::SharedIndex;

/// One of the nine temporal-IR methods the system builds, serves and
/// benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Base temporal inverted file (§2.2, Algorithm 1).
    Tif,
    /// tIF+Slicing: vertical time-slice partitioning (§2.2).
    Slicing,
    /// tIF+Sharding: staircase shards + impact lists (§2.2).
    Sharding,
    /// tIF+HINT with binary-search intersections (§3.1, Algorithm 3).
    TifHintBs,
    /// tIF+HINT with merge-sort intersections (§3.1, Algorithm 4).
    TifHintMs,
    /// The tIF+HINT+Slicing dual-copy hybrid (§3.2).
    Hybrid,
    /// irHINT, performance variant (§4.1, Algorithm 5).
    IrHintPerf,
    /// irHINT, size variant (§4.2, Algorithm 6).
    IrHintSize,
    /// Compressed temporal inverted file (§7 future-work extension).
    Ctif,
}

impl Method {
    /// Every method, in the paper's presentation order.
    pub const ALL: [Method; 9] = [
        Method::Tif,
        Method::Slicing,
        Method::Sharding,
        Method::TifHintBs,
        Method::TifHintMs,
        Method::Hybrid,
        Method::IrHintPerf,
        Method::IrHintSize,
        Method::Ctif,
    ];

    /// The CLI and wire name (`--method`, `STATS`).
    pub fn name(self) -> &'static str {
        match self {
            Method::Tif => "tif",
            Method::Slicing => "slicing",
            Method::Sharding => "sharding",
            Method::TifHintBs => "tif-hint-bs",
            Method::TifHintMs => "tif-hint-ms",
            Method::Hybrid => "hybrid",
            Method::IrHintPerf => "irhint-perf",
            Method::IrHintSize => "irhint-size",
            Method::Ctif => "ctif",
        }
    }

    /// The paper label, equal to the built index's
    /// [`TemporalIrIndex::name`](crate::TemporalIrIndex::name).
    pub fn label(self) -> &'static str {
        match self {
            Method::Tif => "tIF",
            Method::Slicing => "tIF+Slicing",
            Method::Sharding => "tIF+Sharding",
            Method::TifHintBs => "tIF+HINT(bs)",
            Method::TifHintMs => "tIF+HINT(ms)",
            Method::Hybrid => "tIF+HINT+Slicing",
            Method::IrHintPerf => "irHINT(perf)",
            Method::IrHintSize => "irHINT(size)",
            Method::Ctif => "cTIF",
        }
    }

    /// Builds this method over a collection with its default parameters.
    pub fn build(self, coll: &Collection) -> SharedIndex {
        crate::with_method!(self, |build| Box::new(build(coll)))
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Method {
    type Err = String;

    /// Parses a CLI name; the error lists every valid one.
    fn from_str(s: &str) -> Result<Method, String> {
        Method::ALL
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                let names = Method::ALL.map(Method::name).join(", ");
                format!("unknown method {s} (methods: {names})")
            })
    }
}

/// Dispatches on a [`Method`] with its concrete index type: each arm
/// binds `build` to that method's constructor (`fn(&Collection) -> I`)
/// and evaluates the body, so generic code keeps its static bounds.
///
/// ```
/// use tir_core::{with_method, Collection, Method, TemporalIrIndex};
///
/// let coll = Collection::running_example();
/// let sizes: Vec<usize> = Method::ALL
///     .into_iter()
///     .map(|m| with_method!(m, |build| build(&coll).size_bytes()))
///     .collect();
/// assert!(sizes.iter().all(|&s| s > 0));
/// ```
///
/// A subset form names the methods to dispatch and handles the rest in
/// one fallback arm, for bounds only some index types meet:
///
/// ```
/// use tir_core::{with_method, Collection, Method, TemporalIrIndex};
///
/// let coll = Collection::running_example();
/// let bytes = |m: Method| {
///     with_method!(m, [Tif, TifHintBs], |build| Some(build(&coll).size_bytes()), _ => None)
/// };
/// assert!(bytes(Method::Tif).is_some());
/// assert!(bytes(Method::Ctif).is_none());
/// ```
#[macro_export]
macro_rules! with_method {
    (@new Tif) => { $crate::Tif::build };
    (@new Slicing) => { $crate::TifSlicing::build };
    (@new Sharding) => { $crate::TifSharding::build };
    (@new TifHintBs) => {
        |c: &$crate::Collection| $crate::TifHint::build(c, $crate::TifHintConfig::binary_search())
    };
    (@new TifHintMs) => {
        |c: &$crate::Collection| $crate::TifHint::build(c, $crate::TifHintConfig::merge_sort())
    };
    (@new Hybrid) => { $crate::TifHintSlicing::build };
    (@new IrHintPerf) => { $crate::IrHintPerf::build };
    (@new IrHintSize) => { $crate::IrHintSize::build };
    (@new Ctif) => { $crate::CompressedTif::build };
    (@all $method:expr, |$build:ident| $body:expr; $($m:ident)+) => {
        match $method {
            $($crate::Method::$m => {
                let $build = $crate::with_method!(@new $m);
                $body
            })+
        }
    };
    ($method:expr, [$($m:ident),+ $(,)?], |$build:ident| $body:expr, $other:pat => $fallback:expr $(,)?) => {
        match $method {
            $($crate::Method::$m => {
                let $build = $crate::with_method!(@new $m);
                $body
            })+
            $other => $fallback,
        }
    };
    ($method:expr, |$build:ident| $body:expr $(,)?) => {
        $crate::with_method!(
            @all $method, |$build| $body;
            Tif Slicing Sharding TifHintBs TifHintMs Hybrid IrHintPerf IrHintSize Ctif
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeTravelQuery;

    #[test]
    fn names_round_trip_through_from_str() {
        for m in Method::ALL {
            assert_eq!(m.name().parse::<Method>(), Ok(m));
            assert_eq!(m.to_string(), m.name());
        }
    }

    #[test]
    fn label_is_the_built_index_name() {
        let coll = Collection::running_example();
        for m in Method::ALL {
            let index = m.build(&coll);
            assert_eq!(index.name(), m.label(), "{m}");
            let mut hits = index.query(&TimeTravelQuery::new(5, 9, vec![0, 2]));
            hits.sort_unstable();
            assert_eq!(hits, vec![1, 3, 6], "{m}");
        }
    }

    #[test]
    fn unknown_name_lists_every_method() {
        let err = "nope".parse::<Method>().expect_err("unknown name");
        assert!(err.contains("nope"), "{err}");
        for m in Method::ALL {
            assert!(err.contains(m.name()), "{err} lacks {m}");
        }
    }
}
