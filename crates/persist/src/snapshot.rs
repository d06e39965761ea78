//! The versioned, checksummed on-disk snapshot format and the
//! [`Persist`] trait.
//!
//! A snapshot stores what every index is derived from — the dictionary
//! and the object catalog — plus the [`Method`] that wrote it. No index
//! structure is serialized: recovery rebuilds the index from the
//! catalog through the method registry ([`Persist::rebuild`]), so every
//! served method is durable with one format.
//!
//! ## File layout (little-endian throughout)
//!
//! | range | contents |
//! |-------|----------|
//! | `0..64` | header: magic `TIRSNAP1`, format version, writer method tag, epoch, live count, section count, file length, CRC32 over header+table |
//! | `64..832` | section table: 24 slots × 32 B (`id, offset, len, crc32`) |
//! | `832..` | sections, each padded to a 64-byte-aligned offset |
//!
//! Sections are plain SoA columns:
//!
//! | id | section | column type |
//! |----|---------|-------------|
//! | 1 | META — domain, dictionary and catalog lengths | fixed 32 B |
//! | 10/11/12 | dictionary term offsets / UTF-8 blob / frequencies | `u32 / u8 / u32` |
//! | 20–24 | catalog ids / starts / ends / desc offsets / desc elems | `u32 / u64 / u64 / u32 / u32` |
//!
//! The method tag is the writer's position in [`Method::ALL`] plus one,
//! so the order of `Method::ALL` is part of the format.
//!
//! Writing is atomic: callers write to a temp file ([`write_snapshot`]
//! fsyncs it), then rename over `snapshot.tir` and
//! fsync the directory — a crash leaves either the old snapshot or the
//! new one, never a torn hybrid. [`SnapshotFile::open`] verifies the
//! magic, version, file length, and every CRC before handing out data;
//! corrupt, truncated, or version-skewed files are rejected with a
//! path-addressed [`SnapshotError::Corrupt`].

use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

use tir_core::{
    Collection, CompressedTif, IrHintPerf, IrHintSize, Method, Object, Tif, TifHint, TifHintConfig,
    TifHintSlicing, TifSharding, TifSlicing,
};
use tir_invidx::Dictionary;

use crate::cols::{put_u32, put_u64, read_u32, read_u64, U32Col, U64Col};
use crate::crc::{crc32, Crc32};

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"TIRSNAP1";
/// Current format version; files with any other version are rejected.
pub const FORMAT_VERSION: u32 = 2;
/// Section payloads start at offsets aligned to this many bytes.
pub const SECTION_ALIGN: u64 = 64;
/// Fixed capacity of the section table.
pub const MAX_SECTIONS: usize = 24;
/// Byte length of the header.
const HEADER_LEN: u64 = 64;
/// Byte length of one section-table entry.
const ENTRY_LEN: u64 = 32;
/// Where section payloads begin (64 + 24·32 = 832, itself 64-aligned).
const PAYLOAD_START: u64 = HEADER_LEN + MAX_SECTIONS as u64 * ENTRY_LEN;
/// Byte length of the META section.
const META_LEN: usize = 32;

/// Section ids.
mod section {
    /// Fixed-size metadata (domain, dictionary and catalog lengths).
    pub const META: u32 = 1;
    /// Dictionary term offsets (`len+1` × u32).
    pub const DICT_OFFS: u32 = 10;
    /// Dictionary UTF-8 term blob.
    pub const DICT_BLOB: u32 = 11;
    /// Dictionary document frequencies (`len` × u32).
    pub const DICT_FREQ: u32 = 12;
    /// Catalog object ids, ascending.
    pub const CAT_IDS: u32 = 20;
    /// Catalog lifespan starts.
    pub const CAT_STS: u32 = 21;
    /// Catalog lifespan ends.
    pub const CAT_ENDS: u32 = 22;
    /// Catalog description offsets (`len+1` × u32).
    pub const CAT_DESC_OFFS: u32 = 23;
    /// Catalog description element ids, concatenated.
    pub const CAT_DESC: u32 = 24;
}

/// The header tag of `method`: its position in [`Method::ALL`] plus one.
fn method_tag(method: Method) -> u32 {
    Method::ALL
        .iter()
        .position(|&m| m == method)
        .map_or(0, |i| i as u32 + 1)
}

/// The method a header tag names, if any.
fn method_of_tag(tag: u32) -> Option<Method> {
    let i = (tag as usize).checked_sub(1)?;
    Method::ALL.get(i).copied()
}

/// Why a snapshot could not be read.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read.
    Io(io::Error),
    /// The file is corrupt, truncated, or version-skewed. `at` is a
    /// path-addressed location (e.g. `snapshot/catalog/desc_offs[3]`).
    Corrupt {
        /// Path-addressed location of the violation.
        at: String,
        /// Human-readable description.
        msg: String,
    },
}

impl SnapshotError {
    fn corrupt(at: impl Into<String>, msg: impl Into<String>) -> SnapshotError {
        SnapshotError::Corrupt {
            at: at.into(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o: {e}"),
            SnapshotError::Corrupt { at, msg } => write!(f, "{at}: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<SnapshotError> for io::Error {
    fn from(e: SnapshotError) -> io::Error {
        match e {
            SnapshotError::Io(e) => e,
            // analyze:allow(hot-path-alloc): error-path formatting during snapshot load; queries never construct SnapshotErrors (suffix collision with BlockPostings' `Error::from`)
            corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
        }
    }
}

/// Parsed header + META fields of a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotMeta {
    /// The method that wrote the snapshot (and that recovery rebuilds).
    pub method: Method,
    /// Epoch the snapshot captures.
    pub epoch: u64,
    /// Live objects at that epoch.
    pub live: u64,
    /// Time domain minimum.
    pub domain_min: u64,
    /// Time domain maximum.
    pub domain_max: u64,
    /// Dictionary entries.
    pub dict_len: u64,
    /// Catalog entries.
    pub catalog_len: u64,
}

struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

/// Streaming snapshot writer over a temp file. Sections append in call
/// order; [`SnapshotWriter::finish`] seeks back, writes the header and
/// table, and fsyncs.
struct SnapshotWriter {
    file: File,
    sections: Vec<SectionEntry>,
    pos: u64,
}

impl SnapshotWriter {
    /// Creates (truncating) the file at `path` and reserves header space.
    fn create(path: &Path) -> io::Result<SnapshotWriter> {
        let mut file = File::create(path)?;
        file.write_all(&vec![0u8; PAYLOAD_START as usize])?;
        Ok(SnapshotWriter {
            file,
            sections: Vec::new(),
            pos: PAYLOAD_START,
        })
    }

    /// Appends one section, padding to the alignment boundary first.
    fn section(&mut self, id: u32, bytes: &[u8]) -> io::Result<()> {
        if self.sections.len() == MAX_SECTIONS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot section table full",
            ));
        }
        let aligned = self.pos.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
        if aligned > self.pos {
            let pad = vec![0u8; (aligned - self.pos) as usize];
            self.file.write_all(&pad)?;
            self.pos = aligned;
        }
        self.file.write_all(bytes)?;
        self.sections.push(SectionEntry {
            id,
            offset: aligned,
            len: bytes.len() as u64,
            crc: crc32(bytes),
        });
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Writes the header + section table and fsyncs the file.
    fn finish(mut self, method: Method, epoch: u64, live: u64) -> io::Result<()> {
        let mut head = Vec::with_capacity(PAYLOAD_START as usize);
        head.extend_from_slice(&MAGIC);
        put_u32(&mut head, FORMAT_VERSION);
        put_u32(&mut head, method_tag(method));
        put_u64(&mut head, epoch);
        put_u64(&mut head, live);
        put_u32(&mut head, self.sections.len() as u32);
        put_u64(&mut head, self.pos);
        let crc_at = head.len();
        put_u32(&mut head, 0); // CRC placeholder
        head.resize(HEADER_LEN as usize, 0);
        for s in &self.sections {
            put_u32(&mut head, s.id);
            put_u32(&mut head, 0);
            put_u64(&mut head, s.offset);
            put_u64(&mut head, s.len);
            put_u32(&mut head, s.crc);
            put_u32(&mut head, 0);
        }
        head.resize(PAYLOAD_START as usize, 0);
        let crc = crc32(&head);
        head[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        self.file.seek(SeekFrom::Start(0))?;
        self.file.write_all(&head)?;
        self.file.sync_all()
    }
}

/// Writes a snapshot of `method`'s state into `path` (a temp file the
/// caller then renames into place): the dictionary and the catalog,
/// whose ids must be strictly ascending.
pub fn write_snapshot(
    path: &Path,
    method: Method,
    epoch: u64,
    dict: &Dictionary,
    catalog: &[Object],
) -> io::Result<()> {
    let mut w = SnapshotWriter::create(path)?;

    // META.
    let (mut dmin, mut dmax) = (u64::MAX, 0u64);
    for o in catalog {
        dmin = dmin.min(o.interval.st);
        dmax = dmax.max(o.interval.end);
    }
    if dmin > dmax {
        (dmin, dmax) = (0, 0);
    }
    let mut meta = Vec::with_capacity(META_LEN);
    put_u64(&mut meta, dmin);
    put_u64(&mut meta, dmax);
    put_u64(&mut meta, dict.len() as u64);
    put_u64(&mut meta, catalog.len() as u64);
    w.section(section::META, &meta)?;

    // Dictionary.
    let mut offs = Vec::new();
    let mut blob = Vec::new();
    let mut freq = Vec::new();
    put_u32(&mut offs, 0);
    for id in 0..dict.len() as u32 {
        let term = dict.term(id).unwrap_or("");
        blob.extend_from_slice(term.as_bytes());
        put_u32(&mut offs, blob.len() as u32);
        put_u32(&mut freq, dict.freq(id));
    }
    w.section(section::DICT_OFFS, &offs)?;
    w.section(section::DICT_BLOB, &blob)?;
    w.section(section::DICT_FREQ, &freq)?;

    // Catalog.
    let (mut ids, mut sts, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    let (mut desc_offs, mut desc) = (Vec::new(), Vec::new());
    put_u32(&mut desc_offs, 0);
    let mut n_desc = 0u32;
    for (i, o) in catalog.iter().enumerate() {
        if i > 0 && catalog[i - 1].id >= o.id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "snapshot catalog ids must be strictly ascending",
            ));
        }
        put_u32(&mut ids, o.id);
        put_u64(&mut sts, o.interval.st);
        put_u64(&mut ends, o.interval.end);
        for &e in &o.desc {
            put_u32(&mut desc, e);
        }
        n_desc += o.desc.len() as u32;
        put_u32(&mut desc_offs, n_desc);
    }
    w.section(section::CAT_IDS, &ids)?;
    w.section(section::CAT_STS, &sts)?;
    w.section(section::CAT_ENDS, &ends)?;
    w.section(section::CAT_DESC_OFFS, &desc_offs)?;
    w.section(section::CAT_DESC, &desc)?;

    w.finish(method, epoch, catalog.len() as u64)
}

/// An opened, fully CRC-verified snapshot: the file's bytes plus the
/// parsed section table and [`SnapshotMeta`].
pub struct SnapshotFile {
    bytes: Vec<u8>,
    sections: Vec<SectionEntry>,
    meta: SnapshotMeta,
}

impl std::fmt::Debug for SnapshotFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotFile")
            .field("meta", &self.meta)
            .field("sections", &self.sections.len())
            .finish()
    }
}

impl SnapshotFile {
    /// Reads and verifies `path`: magic, version, length, header CRC,
    /// and every section CRC. Rejects corrupt, truncated, or
    /// version-skewed files with a path-addressed error.
    pub fn open(path: &Path) -> Result<SnapshotFile, SnapshotError> {
        let bytes = std::fs::read(path)?;
        if (bytes.len() as u64) < PAYLOAD_START {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!("file is {} bytes, smaller than the header", bytes.len()),
            ));
        }
        if bytes[0..8] != MAGIC {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                "bad magic: not a tir snapshot",
            ));
        }
        let version = read_u32(&bytes, 8).unwrap_or(0);
        if version != FORMAT_VERSION {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!("format version {version} unsupported (this build reads {FORMAT_VERSION})"),
            ));
        }
        let tag = read_u32(&bytes, 12).unwrap_or(0);
        let method = method_of_tag(tag).ok_or_else(|| {
            SnapshotError::corrupt("snapshot/header", format!("unknown method tag {tag}"))
        })?;
        let epoch = read_u64(&bytes, 16).unwrap_or(0);
        let live = read_u64(&bytes, 24).unwrap_or(0);
        let n_sections = read_u32(&bytes, 32).unwrap_or(0) as usize;
        let file_len = read_u64(&bytes, 36).unwrap_or(0);
        if file_len != bytes.len() as u64 {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!(
                    "file is {} bytes but header says {file_len} (truncated?)",
                    bytes.len()
                ),
            ));
        }
        if n_sections > MAX_SECTIONS {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                format!("section count {n_sections} exceeds the table capacity {MAX_SECTIONS}"),
            ));
        }
        let stored_crc = read_u32(&bytes, 44).unwrap_or(0);
        let mut hc = Crc32::new();
        hc.update(&bytes[0..44]);
        hc.update(&[0, 0, 0, 0]);
        hc.update(&bytes[48..PAYLOAD_START as usize]);
        if hc.finish() != stored_crc {
            return Err(SnapshotError::corrupt(
                "snapshot/header",
                "header/table CRC mismatch",
            ));
        }

        let mut sections = Vec::with_capacity(n_sections);
        for i in 0..n_sections {
            let base = (HEADER_LEN + i as u64 * ENTRY_LEN) as usize;
            let id = read_u32(&bytes, base).unwrap_or(0);
            let offset = read_u64(&bytes, base + 8).unwrap_or(0);
            let len = read_u64(&bytes, base + 16).unwrap_or(0);
            let crc = read_u32(&bytes, base + 24).unwrap_or(0);
            let at = format!("snapshot/section[{id}]");
            if !offset.is_multiple_of(SECTION_ALIGN) {
                return Err(SnapshotError::corrupt(
                    at,
                    format!("offset {offset} unaligned"),
                ));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| SnapshotError::corrupt(at.clone(), "offset + length overflows"))?;
            if end > bytes.len() as u64 {
                return Err(SnapshotError::corrupt(
                    at,
                    format!("extends to byte {end} past the file end {}", bytes.len()),
                ));
            }
            let payload = &bytes[offset as usize..end as usize];
            if crc32(payload) != crc {
                return Err(SnapshotError::corrupt(at, "section CRC mismatch"));
            }
            sections.push(SectionEntry {
                id,
                offset,
                len,
                crc,
            });
        }

        // META is mandatory.
        let meta_bytes = sections
            .iter()
            .find(|s| s.id == section::META)
            .map(|s| &bytes[s.offset as usize..(s.offset + s.len) as usize])
            .ok_or_else(|| SnapshotError::corrupt("snapshot/meta", "META section missing"))?;
        if meta_bytes.len() != META_LEN {
            return Err(SnapshotError::corrupt(
                "snapshot/meta",
                format!("META is {} bytes, expected {META_LEN}", meta_bytes.len()),
            ));
        }
        let meta = SnapshotMeta {
            method,
            epoch,
            live,
            domain_min: read_u64(meta_bytes, 0).unwrap_or(0),
            domain_max: read_u64(meta_bytes, 8).unwrap_or(0),
            dict_len: read_u64(meta_bytes, 16).unwrap_or(0),
            catalog_len: read_u64(meta_bytes, 24).unwrap_or(0),
        };
        Ok(SnapshotFile {
            bytes,
            sections,
            meta,
        })
    }

    /// Parsed header + META.
    pub fn meta(&self) -> &SnapshotMeta {
        &self.meta
    }

    /// Raw bytes of a section, if present.
    fn section_bytes(&self, id: u32) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .map(|s| &self.bytes[s.offset as usize..(s.offset + s.len) as usize])
            .ok_or_else(|| {
                SnapshotError::corrupt(format!("snapshot/section[{id}]"), "section missing")
            })
    }

    /// A section as a `u32` column.
    fn u32_col(&self, id: u32) -> Result<U32Col<'_>, SnapshotError> {
        U32Col::new(self.section_bytes(id)?).ok_or_else(|| {
            SnapshotError::corrupt(
                format!("snapshot/section[{id}]"),
                "length is not a multiple of 4",
            )
        })
    }

    /// A section as a `u64` column.
    fn u64_col(&self, id: u32) -> Result<U64Col<'_>, SnapshotError> {
        U64Col::new(self.section_bytes(id)?).ok_or_else(|| {
            SnapshotError::corrupt(
                format!("snapshot/section[{id}]"),
                "length is not a multiple of 8",
            )
        })
    }

    /// Decodes the dictionary.
    pub fn dictionary(&self) -> Result<Dictionary, SnapshotError> {
        let offs = self.u32_col(section::DICT_OFFS)?;
        let blob = self.section_bytes(section::DICT_BLOB)?;
        let freq = self.u32_col(section::DICT_FREQ)?;
        if offs.len() != self.meta.dict_len as usize + 1
            || freq.len() != self.meta.dict_len as usize
        {
            return Err(SnapshotError::corrupt(
                "snapshot/dict",
                format!(
                    "META says {} terms but offsets hold {} and freqs {}",
                    self.meta.dict_len,
                    offs.len().saturating_sub(1),
                    freq.len()
                ),
            ));
        }
        let mut terms = Vec::with_capacity(freq.len());
        let mut prev = 0u32;
        for i in 0..freq.len() {
            let end = offs.get(i + 1);
            if end < prev || end as usize > blob.len() {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/dict/offs[{}]", i + 1),
                    format!(
                        "offset {end} not monotone within the {}–byte blob",
                        blob.len()
                    ),
                ));
            }
            let term = std::str::from_utf8(&blob[prev as usize..end as usize]).map_err(|_| {
                SnapshotError::corrupt(format!("snapshot/dict/term[{i}]"), "invalid UTF-8")
            })?;
            terms.push(term.to_string());
            prev = end;
        }
        Dictionary::from_parts(terms, freq.to_vec())
            .map_err(|msg| SnapshotError::corrupt("snapshot/dict", msg))
    }

    /// Decodes the catalog objects, in stored (ascending id) order.
    pub fn catalog_objects(&self) -> Result<Vec<Object>, SnapshotError> {
        let ids = self.u32_col(section::CAT_IDS)?;
        let sts = self.u64_col(section::CAT_STS)?;
        let ends = self.u64_col(section::CAT_ENDS)?;
        let desc_offs = self.u32_col(section::CAT_DESC_OFFS)?;
        let desc = self.u32_col(section::CAT_DESC)?;
        let n = self.meta.catalog_len as usize;
        if ids.len() != n || sts.len() != n || ends.len() != n || desc_offs.len() != n + 1 {
            return Err(SnapshotError::corrupt(
                "snapshot/catalog",
                format!(
                    "META says {n} objects but columns hold {}/{}/{}/{}",
                    ids.len(),
                    sts.len(),
                    ends.len(),
                    desc_offs.len().saturating_sub(1)
                ),
            ));
        }
        let mut out = Vec::with_capacity(n);
        let mut prev_off = 0u32;
        for i in 0..n {
            let end = desc_offs.get(i + 1);
            if end < prev_off || end as usize > desc.len() {
                return Err(SnapshotError::corrupt(
                    format!("snapshot/catalog/desc_offs[{}]", i + 1),
                    format!(
                        "offset {end} not monotone within {} desc entries",
                        desc.len()
                    ),
                ));
            }
            let d: Vec<u32> = (prev_off as usize..end as usize)
                .map(|j| desc.get(j))
                .collect();
            out.push(Object::new(ids.get(i), sts.get(i), ends.get(i), d));
            prev_off = end;
        }
        Ok(out)
    }
}

/// Snapshot support: which registry method an index was built as, and
/// how to build it again from a recovered catalog. Implemented for the
/// index type of every [`Method`].
pub trait Persist: Sized {
    /// The method this index serves; written into the snapshot header.
    fn method(&self) -> Method;

    /// Builds the index for `method` over `coll` (ids strictly
    /// ascending, possibly sparse).
    fn rebuild(method: Method, coll: &Collection) -> Self;
}

/// `Persist` for the index types that serve exactly one method.
macro_rules! persist_one_method {
    ($($ty:ty => $method:ident),+ $(,)?) => {$(
        impl Persist for $ty {
            fn method(&self) -> Method {
                Method::$method
            }

            fn rebuild(_method: Method, coll: &Collection) -> Self {
                <$ty>::build(coll)
            }
        }
    )+};
}

persist_one_method!(
    Tif => Tif,
    TifSlicing => Slicing,
    TifSharding => Sharding,
    TifHintSlicing => Hybrid,
    IrHintPerf => IrHintPerf,
    IrHintSize => IrHintSize,
    CompressedTif => Ctif,
);

impl Persist for TifHint {
    fn method(&self) -> Method {
        match self.strategy() {
            tir_core::IntersectStrategy::BinarySearch => Method::TifHintBs,
            tir_core::IntersectStrategy::MergeSort => Method::TifHintMs,
        }
    }

    fn rebuild(method: Method, coll: &Collection) -> Self {
        let config = match method {
            Method::TifHintMs => TifHintConfig::merge_sort(),
            _ => TifHintConfig::binary_search(),
        };
        TifHint::build(coll, config)
    }
}
