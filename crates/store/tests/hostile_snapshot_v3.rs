//! Hostile-snapshot hardening for the open path: per-section checksums,
//! delta frames, degraded (quarantining) opens, and fsck.
//!
//! Corruption is detected by the checksum *scoped to what it hit* — the
//! directory's meta checksum, a section's entry checksum (at open for the
//! strtab, at first force for tables/index/LSH), or a frame's payload
//! checksum — so the bit-flip properties assert three things per injected
//! corruption:
//!
//! * a **normal** open that forces everything returns a structured
//!   [`StoreError`] — never a panic, never an out-of-bounds slice;
//! * a **degraded** open keeps serving: table/frame corruption is
//!   quarantined (stable table numbering, postings filtered), LSH
//!   corruption is dropped, and only strtab/index/directory corruption —
//!   the structures a lake cannot exist without — still hard-fails;
//! * **fsck detects 100%** of injected corruptions, locating the right
//!   structure.
//!
//! The one deliberate exception: flipping the *final commit marker* is
//! byte-for-byte indistinguishable from a crash mid-append, so it is
//! recovered as a torn tail (frame dropped, no error) — asserted
//! separately.
//!
//! Checksums only stop accidents: fold64 is not keyed, so anyone who can
//! write the file can recompute it. Slices of the snapshot buffer outlive
//! decode — the frozen index arrays are served as views and table cells
//! decode lazily — so a forged *offset* is more dangerous than a forged
//! *cell*: unvalidated, it would build a view into the wrong bytes or out
//! of bounds. The `*_never_panics` properties therefore **re-seal every
//! checksum over their forgery**, so that directory / header / payload validation is
//! all that stands between it and the views, and drive the file through
//! every way a snapshot is opened ([`drive`]): a structured [`StoreError`]
//! or a lake that still works — never a panic, never an out-of-bounds
//! slice.

use std::ops::Range;
use std::sync::OnceLock;

use gent_discovery::{DataLake, LshConfig, LshEnsembleIndex};
use gent_store::format::HEADER_LEN;
use gent_store::snapshot::{self, LoadedLake};
use gent_store::{fsck, SectionDirV3, SnapshotHeader, StoreError};
use gent_table::binary::fold64;
use gent_table::view::LakeBuf;
use gent_table::{Table, Value as V};
use proptest::prelude::*;

/// The deterministic victim: a 3-table base with LSH bands plus two
/// committed delta frames, one table each. Every table carries a sentinel
/// value so quarantine filtering is observable through the index.
struct V3Snapshot {
    bytes: Vec<u8>,
    dir: SectionDirV3,
    /// Where the base body ends and the frame log begins.
    body_end: usize,
    /// Byte range of each committed frame.
    frames: Vec<Range<usize>>,
}

fn table_with_sentinel(name: &str, sentinel: &str, seed: i64) -> Table {
    let rows = (0..12)
        .map(|i| {
            vec![
                V::Int(seed + i),
                V::str(if i == 0 { sentinel.into() } else { format!("{name}_{i}") }),
            ]
        })
        .collect();
    Table::build(name, &["id", "val"], &["id"], rows).unwrap()
}

fn victim() -> &'static V3Snapshot {
    static CELL: OnceLock<V3Snapshot> = OnceLock::new();
    CELL.get_or_init(|| {
        // Every test starts here, and every flipped or cut frame they open
        // is logged: capture the lines instead of printing them.
        drop(gent_obs::set_sink());
        let tables: Vec<Table> = (0..3)
            .map(|k| table_with_sentinel(&format!("t{k}"), &format!("only_t{k}"), k * 100))
            .collect();
        let lake = DataLake::from_tables(tables);
        let lsh = LshEnsembleIndex::build(&lake, LshConfig::default());
        let path =
            std::env::temp_dir().join(format!("gent-hostile-v3-{}.gentlake", std::process::id()));
        snapshot::save(&path, &lake, Some(&lsh)).expect("save v3");
        let base_len = std::fs::metadata(&path).unwrap().len() as usize;
        gent_store::append_tables(&path, &[table_with_sentinel("fa", "only_fa", 1000)]).unwrap();
        let len_a = std::fs::metadata(&path).unwrap().len() as usize;
        gent_store::append_tables(&path, &[table_with_sentinel("fb", "only_fb", 2000)]).unwrap();
        let len_b = std::fs::metadata(&path).unwrap().len() as usize;
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        let header = SnapshotHeader::decode(&bytes).unwrap();
        let (dir, body_end) =
            SectionDirV3::decode(&bytes, header.n_tables as usize, header.has_lsh()).unwrap();
        assert_eq!(body_end, base_len, "frames start where the base file ended");
        V3Snapshot { bytes, dir, body_end, frames: vec![base_len..len_a, len_a..len_b] }
    })
}

/// Open normally and force every deferred decode — lazy table cells, LSH
/// bands, the deferred index materialization, every probe through the
/// overlay.
fn force_all(bytes: Vec<u8>) -> Result<LoadedLake, StoreError> {
    let loaded = snapshot::load_buf(LakeBuf::new(bytes))?;
    loaded.lake.decode_all(2).map_err(StoreError::from)?;
    loaded.lsh.force()?;
    loaded.lake.ensure_index().map_err(StoreError::Corrupt)?;
    for (v, _) in loaded.lake.index_entries() {
        let _ = loaded.lake.postings(&v);
    }
    Ok(loaded)
}

/// Degraded open, also forced end to end (quarantined placeholders decode
/// as empty tables, so forcing must succeed whenever the open does).
fn force_degraded(bytes: Vec<u8>) -> Result<LoadedLake, StoreError> {
    let loaded = snapshot::load_buf_degraded(LakeBuf::new(bytes))?;
    loaded.lake.decode_all(2).map_err(StoreError::from)?;
    loaded.lsh.force()?;
    loaded.lake.ensure_index().map_err(StoreError::Corrupt)?;
    for (v, _) in loaded.lake.index_entries() {
        let _ = loaded.lake.postings(&v);
    }
    Ok(loaded)
}

/// Run fsck over mutated bytes (fsck reads a file, so stage one).
fn fsck_bytes(bytes: &[u8]) -> gent_store::FsckReport {
    let path = std::env::temp_dir().join(format!(
        "gent-hostile-v3-fsck-{}-{:?}.gentlake",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    let report = fsck(&path).expect("fsck is I/O-error-free on an existing file");
    let _ = std::fs::remove_file(&path);
    report
}

fn flip(bytes: &mut [u8], pos: usize, bit: u8) {
    bytes[pos] ^= 1 << bit;
}

/// Byte offset of directory entry `entry` (0 = strtab, 1 = index, 2 = lsh,
/// 3.. = tables) — three u64 words: offset, len, checksum.
fn dir_entry_at(entry: usize) -> usize {
    HEADER_LEN + entry * 24
}

fn write_u64(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Recompute directory entry `entry`'s checksum over whatever range it now
/// claims, so a forged offset or length is not given away by the bytes it
/// lands on. A range outside the file cannot be sealed (and the reader
/// rejects it on bounds).
fn reseal_entry(bytes: &mut [u8], entry: usize) {
    let at = dir_entry_at(entry);
    let (offset, len) = (read_u64(bytes, at), read_u64(bytes, at + 8));
    let end = offset.checked_add(len).filter(|&end| end <= bytes.len() as u64);
    if let Some(end) = end {
        let sum = fold64(&bytes[offset as usize..end as usize]);
        write_u64(bytes, at + 16, sum);
    }
}

/// Recompute the meta checksum where a reader will look for it — after the
/// directory the (possibly forged) `n_tables` sizes. When that lies past
/// the end of the file there is nothing to seal: the reader rejects the
/// length first.
fn reseal_meta(bytes: &mut [u8]) {
    let n_tables = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let meta_end = n_tables
        .checked_mul(24)
        .and_then(|n| n.checked_add(HEADER_LEN + SectionDirV3::encoded_len(0)));
    if let Some(meta_end) = meta_end.filter(|&end| end <= bytes.len()) {
        let sum = fold64(&bytes[..meta_end - 8]);
        write_u64(bytes, meta_end - 8, sum);
    }
}

/// Drive a forged file through every way a snapshot is opened: strict open
/// and degraded open (each forcing everything it deferred), `fsck`,
/// `fsck_repair` and `compact`. Returns the strict result; a panic or an
/// out-of-bounds slice in any of the five fails the test at the harness
/// level.
fn drive(bytes: &[u8]) -> Result<LoadedLake, StoreError> {
    let strict = force_all(bytes.to_vec());
    let _ = force_degraded(bytes.to_vec());
    let path = std::env::temp_dir().join(format!(
        "gent-hostile-v3-forged-{}-{:?}.gentlake",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::write(&path, bytes).unwrap();
    fsck(&path).expect("fsck is I/O-error-free on an existing file");
    if gent_store::fsck_repair(&path).is_ok() {
        let report = fsck(&path).unwrap();
        assert!(report.is_clean(), "a repair that succeeds leaves a clean file: {report:?}");
    }
    std::fs::write(&path, bytes).unwrap();
    let _ = gent_store::compact(&path);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("gentlake.tmp"));
    strict
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A flip anywhere in the header or directory (including the stored
    /// per-section checksums) is caught by the meta checksum — or, for the
    /// version/magic words, by header validation — in *both* open modes,
    /// and fsck reports it.
    #[test]
    fn header_or_dir_flip_is_rejected_everywhere(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let v = victim();
        let meta_end = HEADER_LEN + SectionDirV3::encoded_len(3);
        let pos = ((meta_end - 1) as f64 * pos_frac) as usize;
        let mut bytes = v.bytes.clone();
        flip(&mut bytes, pos, bit);
        prop_assert!(force_all(bytes.clone()).is_err(), "flip at {pos} bit {bit} undetected");
        prop_assert!(force_degraded(bytes.clone()).is_err(), "degraded open must also reject");
        prop_assert!(!fsck_bytes(&bytes).is_clean(), "fsck missed flip at {pos} bit {bit}");
    }

    /// A flip inside any body section is detected when that section is
    /// forced (normal open), quarantined or dropped where the format
    /// allows it (degraded open), and reported by fsck.
    #[test]
    fn section_flip_detected_quarantined_and_fscked(
        section in 0usize..5,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let v = victim();
        // 0 = strtab, 1 = index, 2..=4 = tables 0..=2 (the LSH section has
        // its own property below — degraded handling differs).
        let entry = match section {
            0 => &v.dir.strtab,
            1 => &v.dir.index,
            k => &v.dir.tables[k - 2],
        };
        let range = entry.range.range();
        prop_assume!(!range.is_empty());
        let pos = range.start + ((range.len() - 1) as f64 * pos_frac) as usize;
        let mut bytes = v.bytes.clone();
        flip(&mut bytes, pos, bit);

        prop_assert!(force_all(bytes.clone()).is_err(), "flip in section {section} undetected");
        prop_assert!(!fsck_bytes(&bytes).is_clean(), "fsck missed a flip in section {section}");

        let degraded = force_degraded(bytes);
        if section < 2 {
            // strtab / index: nothing to degrade to.
            prop_assert!(degraded.is_err(), "strtab/index corruption must hard-fail");
        } else {
            let table = section - 2;
            let loaded = degraded.expect("table corruption must quarantine, not fail");
            prop_assert_eq!(loaded.lake.len(), 5, "placeholders keep table numbering stable");
            prop_assert_eq!(
                loaded.quarantined.iter().map(|q| q.table).collect::<Vec<_>>(),
                vec![table]
            );
            // The quarantined table is gone from the index; its peers and
            // the frames are not.
            prop_assert!(loaded.lake.postings(&V::str(format!("only_t{table}"))).is_empty());
            for other in (0..3).filter(|&o| o != table) {
                prop_assert!(!loaded.lake.postings(&V::str(format!("only_t{other}"))).is_empty());
            }
            prop_assert!(!loaded.lake.postings(&V::str("only_fa")).is_empty());
            prop_assert!(!loaded.lake.postings(&V::str("only_fb")).is_empty());
        }
    }

    /// A flip in the LSH section errors when the bands are forced, while a
    /// degraded open drops the bands (no quarantine — tables are intact)
    /// and keeps serving exact lookups.
    #[test]
    fn lsh_flip_forces_error_or_degrades_to_no_lsh(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let v = victim();
        let range = v.dir.lsh.as_ref().expect("victim has LSH").range.range();
        let pos = range.start + ((range.len() - 1) as f64 * pos_frac) as usize;
        let mut bytes = v.bytes.clone();
        flip(&mut bytes, pos, bit);

        prop_assert!(force_all(bytes.clone()).is_err(), "flip in LSH section undetected");
        prop_assert!(!fsck_bytes(&bytes).is_clean(), "fsck missed a flip in the LSH section");

        let loaded = force_degraded(bytes).expect("LSH corruption must degrade, not fail");
        prop_assert!(loaded.quarantined.is_empty(), "no table is quarantined for a bad LSH");
        prop_assert!(loaded.lsh.force().unwrap().is_none(), "bands dropped");
        prop_assert!(!loaded.lake.postings(&V::str("only_t1")).is_empty());
    }

    /// A flip anywhere in a committed frame — magic, length, payload,
    /// checksum, or a mid-log commit marker; everything except the *final*
    /// marker — is rejected by the normal open, degrades without data
    /// invention (quarantine or a shorter frame log, never a silently
    /// wrong table), and is reported by fsck.
    #[test]
    fn frame_flip_detected_quarantined_and_fscked(
        frame in 0usize..2,
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let v = victim();
        let full = v.frames[frame].clone();
        // The final 8 bytes of the log are the torn-tail exception.
        let end = if frame == v.frames.len() - 1 { full.end - 8 } else { full.end };
        let pos = full.start + ((end - full.start - 1) as f64 * pos_frac) as usize;
        let mut bytes = v.bytes.clone();
        flip(&mut bytes, pos, bit);

        prop_assert!(force_all(bytes.clone()).is_err(), "flip in frame {frame} undetected");
        prop_assert!(!fsck_bytes(&bytes).is_clean(), "fsck missed a flip in frame {frame}");

        let loaded = force_degraded(bytes).expect("frame corruption must degrade, not fail");
        // Either the frame's tables were quarantined in place, or the
        // corruption made the log unwalkable past it and the tail was
        // dropped — both preserve "no invented data"; what cannot happen
        // is a full-size lake with an empty quarantine list.
        prop_assert!(
            !(loaded.quarantined.is_empty() && loaded.lake.len() == 5),
            "frame {frame} corruption vanished: {} tables, {:?} quarantined",
            loaded.lake.len(),
            loaded.quarantined
        );
        // The base is never collateral damage.
        for k in 0..3 {
            prop_assert!(!loaded.lake.postings(&V::str(format!("only_t{k}"))).is_empty());
        }
    }

    /// Truncation anywhere: inside the base it is rejected (the directory
    /// bounds-check catches it); inside the frame log it recovers exactly
    /// the committed prefix. Never a panic.
    #[test]
    fn truncation_rejected_or_recovered(keep_frac in 0.0f64..1.0) {
        let v = victim();
        let keep = ((v.bytes.len() - 1) as f64 * keep_frac) as usize;
        let result = force_all(v.bytes[..keep].to_vec());
        if keep < v.body_end {
            prop_assert!(result.is_err(), "truncation to {keep} inside the base went undetected");
        } else {
            let loaded = result.expect("truncation inside the frame log must recover");
            let expect = 3
                + usize::from(keep >= v.frames[0].end)
                + usize::from(keep >= v.frames[1].end);
            prop_assert_eq!(loaded.lake.len(), expect, "committed prefix at {keep}");
            prop_assert!(loaded.quarantined.is_empty(), "a torn tail is not corruption");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Overwrite one directory word — a section's offset, length or
    /// checksum — with an arbitrary value, re-seal the entry's checksum
    /// over the range it now claims and then the meta checksum, so only the
    /// directory validation (for a forged checksum word, the section's own
    /// verification) stands between the forgery and an out-of-bounds view.
    /// The contiguous-tiling rule means any change must be rejected by a
    /// strict open.
    #[test]
    fn dir_entry_overwrite_never_panics(
        entry in 0usize..6,    // strtab, index, lsh + 3 tables
        field in 0usize..3,    // offset, len or checksum
        value in proptest::prelude::any::<u64>(),
    ) {
        let mut bytes = victim().bytes.clone();
        let at = dir_entry_at(entry) + field * 8;
        let original = read_u64(&bytes, at);
        prop_assume!(value != original);
        write_u64(&mut bytes, at, value);
        if field < 2 {
            reseal_entry(&mut bytes, entry);
        }
        reseal_meta(&mut bytes);
        prop_assert!(
            drive(&bytes).is_err(),
            "dir entry {entry} word {field} rewritten {original} → {value} went undetected"
        );
    }

    /// Small structured perturbations of directory words — the off-by-a-few
    /// forgeries that keep a section *almost* where it was — re-sealed.
    #[test]
    fn dir_entry_nudge_never_panics(
        entry in 0usize..6,
        field in 0usize..3,
        delta in -32i64..=32,
    ) {
        prop_assume!(delta != 0);
        let mut bytes = victim().bytes.clone();
        let at = dir_entry_at(entry) + field * 8;
        let nudged = read_u64(&bytes, at).wrapping_add(delta as u64);
        write_u64(&mut bytes, at, nudged);
        if field < 2 {
            reseal_entry(&mut bytes, entry);
        }
        reseal_meta(&mut bytes);
        prop_assert!(
            drive(&bytes).is_err(),
            "dir entry {entry} word {field} nudged by {delta} went undetected"
        );
    }

    /// Forge the header words that *size* the directory and the index
    /// (flags, n_tables, the totals, n_index_entries, n_lsh_columns) and
    /// re-seal: a crafted header must not cause huge allocations,
    /// wrong-sized directories, or panics, and a strict open rejects it.
    #[test]
    fn header_count_overwrite_never_panics(
        field in 0usize..6,
        value in proptest::prelude::any::<u32>(),
    ) {
        // (offset, width): flags, n_tables, and the low words of
        // total_rows / total_cols / n_index_entries, then n_lsh_columns.
        let (at, width) = [(10usize, 2usize), (12, 4), (16, 4), (24, 4), (32, 4), (40, 4)][field];
        let mut bytes = victim().bytes.clone();
        let forged = &value.to_le_bytes()[..width];
        prop_assume!(&bytes[at..at + width] != forged);
        bytes[at..at + width].copy_from_slice(forged);
        reseal_meta(&mut bytes);
        prop_assert!(
            drive(&bytes).is_err(),
            "header word at {at} rewritten to {value:#x} went undetected"
        );
    }

    /// Flip a bit *inside* a base section or a frame payload and recompute
    /// the checksum that covers it (the section's directory entry plus the
    /// meta checksum, or the frame's own): lazy cell decode, view
    /// validation, frame parsing or LSH decode must turn it into an error
    /// or a benignly different value — never a panic. (Unlike offsets,
    /// flipped payload bytes can decode to a different valid value, so
    /// `Ok` is acceptable here; the assertion is the absence of panics and
    /// out-of-bounds slices while everything is forced.)
    #[test]
    fn section_byte_flip_with_fixed_checksum_never_panics(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let v = victim();
        let mut bytes = v.bytes.clone();
        let body_start = HEADER_LEN + SectionDirV3::encoded_len(3);
        let pos = body_start + ((bytes.len() - body_start - 1) as f64 * pos_frac) as usize;
        flip(&mut bytes, pos, bit);
        let sections = [&v.dir.strtab, &v.dir.index, v.dir.lsh.as_ref().expect("victim has LSH")]
            .into_iter()
            .chain(&v.dir.tables);
        for (entry, section) in sections.enumerate() {
            if section.range.range().contains(&pos) {
                let sum = fold64(&bytes[section.range.range()]);
                write_u64(&mut bytes, dir_entry_at(entry) + 16, sum);
            }
        }
        reseal_meta(&mut bytes);
        for frame in &v.frames {
            // magic (8) | payload_len (8) | payload | checksum (8) | commit (8)
            let payload = frame.start + 16..frame.end - 16;
            if payload.contains(&pos) {
                let sum = fold64(&bytes[payload.clone()]);
                write_u64(&mut bytes, payload.end, sum);
            }
        }
        let _ = drive(&bytes);
    }
}

/// The documented exception: a flipped final commit marker is
/// indistinguishable from a crash between the body fsync and the marker
/// write, so recovery treats the last frame as torn — dropped without
/// error in both open modes, flagged (but clean) under fsck.
#[test]
fn tail_marker_flip_is_recovered_as_torn_tail() {
    let v = victim();
    let mut bytes = v.bytes.clone();
    let last = bytes.len() - 1;
    flip(&mut bytes, last, 3);

    let loaded = force_all(bytes.clone()).expect("torn tail must load");
    assert_eq!(loaded.lake.len(), 4, "frame A survives, frame B is the torn tail");
    assert_eq!(loaded.n_frames, 1);
    assert!(loaded.quarantined.is_empty());
    assert!(!loaded.lake.postings(&V::str("only_fa")).is_empty());
    assert!(loaded.lake.postings(&V::str("only_fb")).is_empty());

    let report = fsck_bytes(&bytes);
    assert!(report.is_clean(), "a torn tail is recoverable, not corrupt: {:?}", report.problems);
    assert!(report.torn_tail);
    assert_eq!(report.n_frames, 1);
}

/// fsck on the pristine victim: clean, correct inventory.
#[test]
fn fsck_reports_clean_on_pristine_v3() {
    let v = victim();
    let report = fsck_bytes(&v.bytes);
    assert!(report.is_clean(), "{:?}", report.problems);
    assert_eq!(report.version, 3);
    assert_eq!(report.n_tables, 3);
    assert_eq!(report.n_frames, 2);
    assert!(!report.torn_tail);
}

/// fsck --repair end to end: corrupt one base table and one frame, repair,
/// and the rewritten file is clean, still five tables, with exactly the
/// corrupted table quarantined-empty and the intact frame folded in.
#[test]
fn fsck_repair_rewrites_a_clean_base() {
    let v = victim();
    let mut bytes = v.bytes.clone();
    let t1 = v.dir.tables[1].range.range();
    flip(&mut bytes, t1.start + t1.len() / 2, 0);
    let f0 = v.frames[0].clone();
    flip(&mut bytes, f0.start + (f0.end - f0.start) / 2, 0);

    let path = std::env::temp_dir()
        .join(format!("gent-hostile-v3-repair-{}.gentlake", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    assert!(!fsck(&path).unwrap().is_clean());

    let quarantined = gent_store::fsck_repair(&path).expect("repair");
    assert!(quarantined.iter().any(|q| q.table == 1), "{quarantined:?}");

    let report = fsck(&path).unwrap();
    assert!(report.is_clean(), "repaired file must be clean: {:?}", report.problems);
    assert_eq!(report.n_frames, 0, "repair compacts the log");
    let loaded = snapshot::load(&path).unwrap();
    assert!(loaded.quarantined.is_empty());
    assert!(loaded.lake.postings(&V::str("only_t1")).is_empty(), "lost rows stay lost");
    assert!(!loaded.lake.postings(&V::str("only_t0")).is_empty());
    assert!(!loaded.lake.postings(&V::str("only_fb")).is_empty(), "intact frame folded in");
    let _ = std::fs::remove_file(&path);
}
