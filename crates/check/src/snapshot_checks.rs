//! Snapshot fsck: deep validation of an on-disk `tir-persist` snapshot,
//! beyond the CRC/bounds checks `SnapshotFile::open` already enforces.
//!
//! Open-time validation proves the bytes are the bytes that were
//! written; this module proves the *content* is a well-formed catalog
//! image: an intact dictionary, strictly ascending catalog ids, ordered
//! intervals inside the META domain, descriptions inside the
//! dictionary, and META counters that match the columns. Every finding
//! is a path-addressed [`Violation`]
//! (`snapshot/catalog/ids[3]: ids not strictly ascending`), the same
//! currency the in-memory validators use — `tir check --file` prints
//! them verbatim.

use std::path::Path;

use tir_persist::{SnapshotError, SnapshotFile};

use crate::{fail, Violation};

/// Opens and deep-validates the snapshot at `path`. Open failures
/// (bad magic, CRC mismatch, truncation, …) become the single violation
/// the open reported; a readable file gets the full content walk.
pub fn validate_snapshot(path: &Path) -> Vec<Violation> {
    match SnapshotFile::open(path) {
        Ok(snap) => validate_snapshot_file(&snap),
        Err(SnapshotError::Corrupt { at, msg }) => vec![Violation::new(at, msg)],
        Err(SnapshotError::Io(e)) => vec![Violation::new("snapshot/file", e.to_string())],
    }
}

/// Deep-validates an already-open snapshot.
fn validate_snapshot_file(snap: &SnapshotFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let meta = snap.meta();

    if meta.domain_min > meta.domain_max {
        fail(
            &mut out,
            "snapshot/meta",
            format!(
                "domain inverted: [{}, {}]",
                meta.domain_min, meta.domain_max
            ),
        );
    }
    if meta.live != meta.catalog_len {
        fail(
            &mut out,
            "snapshot/meta",
            format!(
                "live count {} disagrees with catalog length {}",
                meta.live, meta.catalog_len
            ),
        );
    }

    // Dictionary: length agreement and intact terms (UTF-8 and offset
    // monotonicity are enforced by the accessor itself).
    match snap.dictionary() {
        Ok(dict) => {
            if dict.len() as u64 != meta.dict_len {
                fail(
                    &mut out,
                    "snapshot/dict",
                    format!("META says {} terms, decoded {}", meta.dict_len, dict.len()),
                );
            }
        }
        Err(e) => out.push(violation_of(e)),
    }

    // Catalog: sorted unique ids, ordered intervals inside the domain.
    match snap.catalog_objects() {
        Ok(catalog) => {
            for (i, o) in catalog.iter().enumerate() {
                if i > 0 && catalog[i - 1].id >= o.id {
                    fail(
                        &mut out,
                        &format!("snapshot/catalog/ids[{i}]"),
                        format!(
                            "ids not strictly ascending ({} then {})",
                            catalog[i - 1].id,
                            o.id
                        ),
                    );
                }
                if o.interval.st > o.interval.end {
                    fail(
                        &mut out,
                        &format!("snapshot/catalog/object[{}]", o.id),
                        format!("interval inverted: [{}, {}]", o.interval.st, o.interval.end),
                    );
                }
                if o.interval.st < meta.domain_min || o.interval.end > meta.domain_max {
                    fail(
                        &mut out,
                        &format!("snapshot/catalog/object[{}]", o.id),
                        format!(
                            "interval [{}, {}] outside the domain [{}, {}]",
                            o.interval.st, o.interval.end, meta.domain_min, meta.domain_max
                        ),
                    );
                }
                for &e in &o.desc {
                    if u64::from(e) >= meta.dict_len {
                        fail(
                            &mut out,
                            &format!("snapshot/catalog/object[{}]", o.id),
                            format!("element {e} outside the {}-term dictionary", meta.dict_len),
                        );
                    }
                }
            }
        }
        Err(e) => out.push(violation_of(e)),
    }

    out
}

fn violation_of(e: SnapshotError) -> Violation {
    match e {
        SnapshotError::Corrupt { at, msg } => Violation::new(at, msg),
        SnapshotError::Io(e) => Violation::new("snapshot/file", e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path as StdPath;
    use std::path::PathBuf;
    use tir_core::{Collection, Method};
    use tir_invidx::Dictionary;
    use tir_persist::write_snapshot;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tir-fsck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn write_example(path: &StdPath) {
        let coll = Collection::running_example();
        let mut dict = Dictionary::new();
        for t in ["a", "b", "c"] {
            dict.intern(t);
        }
        write_snapshot(path, Method::Tif, 3, &dict, coll.objects()).expect("write");
    }

    #[test]
    fn clean_snapshot_passes_fsck() {
        let path = scratch("clean.tir");
        write_example(&path);
        let violations = validate_snapshot(&path);
        assert!(violations.is_empty(), "{violations:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_one_violation() {
        let violations = validate_snapshot(Path::new("/nonexistent/nope.tir"));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].path, "snapshot/file");
    }

    #[test]
    fn corrupted_bytes_are_reported_not_panicked() {
        let path = scratch("corrupt.tir");
        write_example(&path);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip the epoch field: inside the header, covered by its CRC.
        bytes[16] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let violations = validate_snapshot(&path);
        assert!(!violations.is_empty(), "header flip undetected");
        let _ = std::fs::remove_file(&path);
    }
}
