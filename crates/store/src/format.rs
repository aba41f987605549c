//! The on-disk snapshot container format.
//!
//! This module owns the fixed header and the section directory; the full
//! byte-level specification — section layouts, column tags, the canonical
//! value encoding, delta frames, evolution rules — lives in
//! `docs/gentlake-format.md` and must be updated in the same change as any
//! codec edit. The 10,000-foot view (all integers little-endian, no
//! padding between sections):
//!
//! ```text
//! file    := header | dir | body | frame*
//! header  := MAGIC "GENTLAKE" (8) | version u16 | flags u16
//!          | n_tables u32 | total_rows u64 | total_cols u64
//!          | n_index_entries u64 | n_lsh_columns u32 | reserved u32
//!          (48 bytes total — `HEADER_LEN`)
//! dir     := (offset u64 | len u64 | fold64(section) u64) × (3 + n_tables)
//!            | fold64(header‖entries) u64
//!            -- strtab, index, lsh (zeros when absent), then one per
//!            table; absolute file offsets, contiguous, in body order
//! body    := strtab | tables | index | [lsh]   (lsh iff flags bit 0,
//!            retired: never written, never read — see below)
//! strtab  := deduplicated strings shared by all tables
//!            (gent_table::binary::StringTableBuilder)
//! tables  := columnar table payload × n_tables
//!            (gent_table::binary::encode_table_columnar: per-column tag,
//!            packed int/float payloads behind presence bitmaps, u32
//!            string-table ids, tagged cells only for mixed columns)
//! index   := the FrozenIndex arrays, verbatim: buckets u32[], hashes
//!            u64[], value_offsets u32[], blob_len u64 + blob bytes,
//!            posting_offsets u32[], arena (u32[] tables ‖ u16[] columns)
//!            — entries sorted by canonical key bytes, so equal lakes
//!            produce byte-identical snapshots
//! lsh     := opaque bytes (a retired approximate-retrieval index)
//! frame*  := append-only delta frames (see `crate::delta`)
//! ```
//!
//! The `lsh` section is **retired**: older builds wrote it on request, this
//! one never does (flag clear, `n_lsh_columns` and the directory entry
//! zero). A file that still carries one opens normally — the directory
//! bounds- and contiguity-checks the entry, `fsck` verifies its checksum,
//! `load` never reads it — and compaction or `fsck --repair` rewrites the
//! file without it. The header bytes and the directory slot stay so that
//! files without the section are unchanged.
//!
//! The design goal is a **zero-copy, zero-decode open**. The directory
//! ([`SectionDirV3`]) frames every section, so `load` reads the file once
//! into a shared `LakeBuf`, anchors the [`gent_discovery::FrozenIndex`]
//! arrays as views into it, and defers each table's cell payload to a lazy
//! [`gent_table::binary::TableSlot`] — opening a lake decodes table
//! *preambles* (name, schema, row count), nothing else. Each directory
//! entry carries its section's checksum, verified on that section's first
//! decode; the meta checksum over header‖directory is verified at open.
//!
//! Evolvability contract (see `docs/gentlake-format.md` for the details):
//! readers hard-reject every version but the current one and must reject
//! unknown `flags` bits rather than skip bytes; new optional sections
//! claim the next flag bit and append after `index` (gaining a directory
//! entry after the fixed three); `reserved` grows the header only for
//! zero-defaulting fields; and counts or offsets that size allocations or
//! build views are always validated against the bytes actually present.

use crate::error::StoreError;
use gent_table::binary::{fold64, BinReader, BinWriter};

/// Magic prefix of a lake snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"GENTLAKE";

/// The container format version, the only one read or written: v3, the
/// durable live-lake layout — per-section checksums in the directory
/// (verified on first decode of each section instead of one O(file) pass
/// at open) plus append-only delta frames after the body.
pub const SNAPSHOT_FORMAT_VERSION: u16 = 3;

/// Magic prefix of a v3 delta frame.
pub const FRAME_MAGIC: &[u8; 8] = b"GENTFRM1";

/// Commit marker sealing a v3 delta frame. A frame without its marker is
/// a torn tail: recovery drops it (it was never acknowledged).
pub const FRAME_COMMIT: &[u8; 8] = b"GENTCMT1";

/// Header flag: the snapshot carries the retired `lsh` section (never set
/// by this build's writer; see the module docs).
pub const FLAG_HAS_LSH: u16 = 1 << 0;

/// All flag bits this build understands. Unknown bits are rejected at
/// decode time: sections are not length-framed, so a reader that cannot
/// parse a section cannot skip it either (see `docs/gentlake-format.md`).
pub const KNOWN_FLAGS: u16 = FLAG_HAS_LSH;

/// Byte length of the fixed header.
pub const HEADER_LEN: usize = 8 + 2 + 2 + 4 + 8 + 8 + 8 + 4 + 4;

/// The decoded fixed header — also the payload of `lake stat`, which reads
/// only these bytes and the file length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Container format version.
    pub version: u16,
    /// Feature flags ([`FLAG_HAS_LSH`]).
    pub flags: u16,
    /// Number of tables in the lake.
    pub n_tables: u32,
    /// Total rows across all tables.
    pub total_rows: u64,
    /// Total columns across all tables.
    pub total_cols: u64,
    /// Distinct values in the inverted index.
    pub n_index_entries: u64,
    /// Column count of the retired `lsh` section (0 when absent; never
    /// read).
    pub n_lsh_columns: u32,
}

impl SnapshotHeader {
    /// True when the snapshot carries the retired `lsh` section.
    pub fn has_lsh(&self) -> bool {
        self.flags & FLAG_HAS_LSH != 0
    }

    /// Append the header to `w`.
    pub fn encode(&self, w: &mut BinWriter) {
        w.put_raw(SNAPSHOT_MAGIC);
        w.put_u16(self.version);
        w.put_u16(self.flags);
        w.put_u32(self.n_tables);
        w.put_u64(self.total_rows);
        w.put_u64(self.total_cols);
        w.put_u64(self.n_index_entries);
        w.put_u32(self.n_lsh_columns);
        w.put_u32(0); // reserved
    }

    /// Decode and validate a header from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Corrupt(format!(
                "file too short for a snapshot header ({} bytes, need {HEADER_LEN})",
                bytes.len()
            )));
        }
        let mut r = BinReader::new(bytes);
        let magic = r.take(8).expect("length checked");
        if magic != SNAPSHOT_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "bad magic {magic:02x?}: not a gent lake snapshot"
            )));
        }
        let version = r.get_u16().expect("length checked");
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(StoreError::Version { found: version, supported: SNAPSHOT_FORMAT_VERSION });
        }
        let flags = r.get_u16().expect("length checked");
        if flags & !KNOWN_FLAGS != 0 {
            return Err(StoreError::Corrupt(format!(
                "unknown feature flags {:#06x}: snapshot uses sections this build cannot parse",
                flags & !KNOWN_FLAGS
            )));
        }
        let n_tables = r.get_u32().expect("length checked");
        let total_rows = r.get_u64().expect("length checked");
        let total_cols = r.get_u64().expect("length checked");
        let n_index_entries = r.get_u64().expect("length checked");
        let n_lsh_columns = r.get_u32().expect("length checked");
        if flags & FLAG_HAS_LSH == 0 && n_lsh_columns != 0 {
            return Err(StoreError::Corrupt(format!(
                "{n_lsh_columns} lsh columns claimed but the LSH flag is clear"
            )));
        }
        let _reserved = r.get_u32().expect("length checked");
        Ok(SnapshotHeader {
            version,
            flags,
            n_tables,
            total_rows,
            total_cols,
            n_index_entries,
            n_lsh_columns,
        })
    }
}

/// One section's placement: absolute file offset + byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionRange {
    /// Absolute byte offset of the section's first byte.
    pub offset: u64,
    /// Section length in bytes.
    pub len: u64,
}

impl SectionRange {
    /// The section as a `usize` range (valid after
    /// [`SectionDirV3::decode`]'s bounds checks).
    pub fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// One directory entry: where the section lives plus the fold64 of its
/// bytes, verified on the section's *first decode* rather than in one
/// whole-file pass at open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// The section's placement.
    pub range: SectionRange,
    /// fold64 of the section's bytes.
    pub checksum: u64,
}

/// The section directory: where each body section lives, so a reader can
/// address any table without sequentially decoding everything before it.
/// Each entry carries its section's checksum and the whole is sealed by a
/// **meta checksum** (fold64 of header‖directory), so a flipped offset or
/// checksum is caught before any view is built. There is no whole-file trailer and the body
/// need not reach the end of the file — append-only delta frames may
/// follow it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionDirV3 {
    /// The shared string table (checksum verified at open — the strtab is
    /// decoded eagerly anyway).
    pub strtab: SectionEntry,
    /// The frozen inverted index. A strict open verifies the checksum on
    /// the index's first posting lookup (the deferred thaw); a degraded
    /// open verifies it eagerly, because quarantine filtering has to
    /// materialize the posting arena anyway.
    pub index: SectionEntry,
    /// The retired `lsh` section: bounds- and contiguity-checked, its
    /// checksum verified by `fsck`, never decoded. `None` when the flag is
    /// clear (serialized as zeros) — always, for files this build writes.
    pub lsh: Option<SectionEntry>,
    /// One columnar frame per table; each checksum is verified on the
    /// table's first cell decode (`TableSlot::force`).
    pub tables: Vec<SectionEntry>,
}

impl SectionDirV3 {
    /// Encoded directory size for `n_tables` tables, **including** the
    /// trailing meta checksum. `HEADER_LEN + encoded_len(n)` is where the
    /// body starts.
    pub fn encoded_len(n_tables: usize) -> usize {
        24 * (3 + n_tables) + 8
    }

    /// Append the directory to `w` (fixed entries first, then tables),
    /// then seal it with the meta checksum over everything written so far
    /// — `w` must already hold the header and nothing else before it.
    pub fn encode(&self, w: &mut BinWriter) {
        let mut put = |e: &SectionEntry| {
            w.put_u64(e.range.offset);
            w.put_u64(e.range.len);
            w.put_u64(e.checksum);
        };
        let zero = SectionEntry { range: SectionRange { offset: 0, len: 0 }, checksum: 0 };
        put(&self.strtab);
        put(&self.index);
        put(&self.lsh.unwrap_or(zero));
        for t in &self.tables {
            put(t);
        }
        let meta = fold64(w.as_bytes());
        w.put_u64(meta);
    }

    /// Decode and validate the directory from `bytes` (the whole file).
    /// Verifies the meta checksum over header‖directory, then checks every
    /// offset before any view is built: sections must tile the body
    /// **contiguously in body order** (strtab, tables, index, then LSH)
    /// from the byte after the directory, so corrupt offsets surface as a
    /// structured error here, never as a panicking slice downstream. The
    /// body ends wherever the last section does, not at the end of the
    /// file: the returned `usize` is that body end, i.e. where delta
    /// frames begin.
    pub fn decode(
        bytes: &[u8],
        n_tables: usize,
        has_lsh: bool,
    ) -> Result<(Self, usize), StoreError> {
        let meta_end = HEADER_LEN + Self::encoded_len(n_tables);
        if bytes.len() < meta_end {
            return Err(StoreError::Corrupt(format!(
                "file too short for a v3 directory ({} bytes, need {meta_end})",
                bytes.len()
            )));
        }
        let stored_meta =
            u64::from_le_bytes(bytes[meta_end - 8..meta_end].try_into().expect("8 bytes"));
        let computed_meta = fold64(&bytes[..meta_end - 8]);
        if stored_meta != computed_meta {
            return Err(StoreError::Corrupt(format!(
                "directory meta checksum mismatch: stored {stored_meta:#018x}, \
                 computed {computed_meta:#018x}"
            )));
        }
        let body_start = meta_end as u64;
        let body_cap = bytes.len() as u64;
        let mut r = BinReader::new(&bytes[HEADER_LEN..meta_end - 8]);
        let read_entry = |r: &mut BinReader<'_>| -> Result<(u64, u64, u64), StoreError> {
            Ok((r.get_u64()?, r.get_u64()?, r.get_u64()?))
        };
        let check = |(offset, len, checksum): (u64, u64, u64),
                     what: &str|
         -> Result<SectionEntry, StoreError> {
            let end = offset.checked_add(len).ok_or_else(|| {
                StoreError::Corrupt(format!("{what} section {offset}+{len} overflows"))
            })?;
            if offset < body_start || end > body_cap {
                return Err(StoreError::Corrupt(format!(
                    "{what} section {offset}..{end} outside the file body \
                         ({body_start}..{body_cap})"
                )));
            }
            Ok(SectionEntry { range: SectionRange { offset, len }, checksum })
        };
        let strtab = check(read_entry(&mut r)?, "strtab")?;
        let index = check(read_entry(&mut r)?, "index")?;
        let lsh_raw = read_entry(&mut r)?;
        let mut tables = Vec::with_capacity(n_tables);
        for i in 0..n_tables {
            tables.push(check(read_entry(&mut r)?, &format!("table {i}"))?);
        }
        let lsh = if has_lsh {
            Some(check(lsh_raw, "lsh")?)
        } else {
            if lsh_raw != (0, 0, 0) {
                return Err(StoreError::Corrupt(format!(
                    "lsh directory entry {}+{} set but the LSH flag is clear",
                    lsh_raw.0, lsh_raw.1
                )));
            }
            None
        };
        // Contiguity: the sections tile the body exactly, in body order
        // (strtab, tables, index, lsh); frames may follow the last one.
        let mut cursor = body_start;
        let mut advance = |e: &SectionEntry, what: &str| -> Result<(), StoreError> {
            if e.range.offset != cursor {
                return Err(StoreError::Corrupt(format!(
                    "{what} section starts at {} but the previous section ends at {cursor}",
                    e.range.offset
                )));
            }
            cursor += e.range.len;
            Ok(())
        };
        advance(&strtab, "strtab")?;
        for (i, t) in tables.iter().enumerate() {
            advance(t, &format!("table {i}"))?;
        }
        advance(&index, "index")?;
        if let Some(l) = &lsh {
            advance(l, "lsh")?;
        }
        Ok((SectionDirV3 { strtab, index, lsh, tables }, cursor as usize))
    }
}

/// Verify one section's bytes against its directory entry. The error
/// names the section so a quarantine report can carry the reason through.
pub fn verify_section(bytes: &[u8], entry: &SectionEntry, what: &str) -> Result<(), StoreError> {
    let computed = fold64(&bytes[entry.range.range()]);
    if computed != entry.checksum {
        return Err(StoreError::Corrupt(format!(
            "{what} section checksum mismatch: stored {:#018x}, computed {computed:#018x}",
            entry.checksum
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotHeader {
        SnapshotHeader {
            version: SNAPSHOT_FORMAT_VERSION,
            flags: FLAG_HAS_LSH,
            n_tables: 3,
            total_rows: 120,
            total_cols: 9,
            n_index_entries: 450,
            n_lsh_columns: 9,
        }
    }

    #[test]
    fn header_round_trip() {
        let h = sample();
        let mut w = BinWriter::new();
        h.encode(&mut w);
        assert_eq!(w.len(), HEADER_LEN);
        assert_eq!(SnapshotHeader::decode(w.as_bytes()).unwrap(), h);
        assert!(h.has_lsh());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut w = BinWriter::new();
        sample().encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[0] = b'X';
        assert!(matches!(SnapshotHeader::decode(&bytes), Err(StoreError::Corrupt(_))));

        // Retired generations are rejected like unknown future ones.
        for version in [1, 2, 99] {
            let mut w = BinWriter::new();
            let mut h = sample();
            h.version = version;
            h.encode(&mut w);
            assert!(matches!(
                SnapshotHeader::decode(w.as_bytes()),
                Err(StoreError::Version { found, supported: 3 }) if found == version
            ));
        }
    }

    #[test]
    fn short_file_rejected() {
        assert!(matches!(SnapshotHeader::decode(b"GENT"), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn v3_dir_round_trips_and_meta_checksum_guards_it() {
        let h = SnapshotHeader { n_tables: 2, n_lsh_columns: 0, flags: 0, ..sample() };
        let body = HEADER_LEN as u64 + SectionDirV3::encoded_len(2) as u64;
        let dir = SectionDirV3 {
            strtab: SectionEntry { range: SectionRange { offset: body, len: 10 }, checksum: 0xAA },
            tables: vec![
                SectionEntry { range: SectionRange { offset: body + 10, len: 5 }, checksum: 1 },
                SectionEntry { range: SectionRange { offset: body + 15, len: 7 }, checksum: 2 },
            ],
            index: SectionEntry {
                range: SectionRange { offset: body + 22, len: 4 },
                checksum: 0xBB,
            },
            lsh: None,
        };
        let mut w = BinWriter::new();
        h.encode(&mut w);
        dir.encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.resize(body as usize + 26 + 3, 0); // body + trailing frame bytes
        let (decoded, body_end) = SectionDirV3::decode(&bytes, 2, false).unwrap();
        assert_eq!(decoded, dir);
        assert_eq!(body_end, body as usize + 26);

        // Any flip inside header‖dir trips the meta checksum.
        bytes[HEADER_LEN + 3] ^= 0x40;
        let err = SectionDirV3::decode(&bytes, 2, false).unwrap_err();
        assert!(err.to_string().contains("meta checksum"), "{err}");
    }

    /// Sections are not length-framed, so a reader must refuse flags it
    /// does not implement instead of trying to skip their sections.
    #[test]
    fn unknown_flags_rejected() {
        let mut h = sample();
        h.flags |= 1 << 7;
        let mut w = BinWriter::new();
        h.encode(&mut w);
        let err = SnapshotHeader::decode(w.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown feature flags"), "{err}");
    }
}
