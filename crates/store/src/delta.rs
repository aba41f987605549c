//! Append-only delta frames: how a snapshot grows without a rewrite.
//!
//! A frame is a self-delimiting record appended after the base body:
//!
//! ```text
//! frame    := FRAME_MAGIC "GENTFRM1" (8)
//!           | payload_len u64
//!           | payload
//!           | checksum u64 = fold64(payload)
//!           | FRAME_COMMIT "GENTCMT1" (8)
//! payload  := first_table u32 | n_tables u32
//!           | strtab                       -- frame-local string table
//!           | (table_len u64 | table) × n_tables
//!           | n_entries u32 | entry × n_entries
//! entry    := canonical value (self-delimiting)
//!           | n_postings u32 | (table u32 | column u16) × n_postings
//! ```
//!
//! The commit marker is the durability pivot of the append protocol
//! (write frame sans marker → `sync_all` → write marker → `sync_all` →
//! parent-dir fsync): a frame is **acknowledged** exactly when its marker
//! is durable, so recovery can classify any tail state —
//!
//! * bytes past the last intact frame that do not finish with a commit
//!   marker at end-of-file are a **torn tail**: a crash mid-append.
//!   Nothing acknowledged lives there; the tail is dropped (logically at
//!   open, physically at the next append or `fsck --repair`).
//! * a damaged frame *followed by more committed data* (or one whose
//!   marker survives at end-of-file while its checksum does not) was
//!   acknowledged and then corrupted: a structured [`StoreError`] on a
//!   normal open, a per-table quarantine on a degraded one.
//!
//! Frames carry their own string table, so they decode independently of
//! the base strtab; their index entries hold only the *new* postings
//! (tables at `first_table..`), merged over the frozen base when
//! [`gent_discovery::DataLake::from_slots_deferred`]'s index thaws. Appended tables
//! are covered by the exact inverted index immediately; the LSH bands
//! cover them after the next compaction (documented degradation —
//! approximate retrieval simply does not see frame tables yet).

use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use gent_discovery::lake::Posting;
use gent_table::binary::{
    decode_string_table, decode_value, encode_table_columnar, encode_value_canonical, fold64,
    BinReader, BinWriter, StringTableBuilder,
};
use gent_table::{FxHashMap, FxHashSet, Table, Value};

use crate::error::StoreError;
use crate::format::{SectionDirV3, SnapshotHeader, FRAME_COMMIT, FRAME_MAGIC};

/// Byte overhead of a frame around its payload: magic + length prefix +
/// checksum + commit marker.
pub const FRAME_OVERHEAD: usize = 8 + 8 + 8 + 8;

/// One committed frame as the scanner saw it.
#[derive(Debug, Clone)]
pub(crate) struct ScannedFrame {
    /// Absolute lake index of the frame's first table.
    pub first_table: u32,
    /// Number of tables the frame appends.
    pub n_tables: u32,
    /// Absolute byte range of each table's columnar payload.
    pub tables: Vec<Range<usize>>,
    /// The frame-local string table (empty for a corrupt frame).
    pub strings: Arc<[Arc<str>]>,
    /// The frame's index delta: value → *new* postings. Empty for a
    /// corrupt frame — quarantined tables must not be discoverable.
    pub entries: Vec<(Value, Vec<Posting>)>,
    /// `Some(reason)` when the frame was committed but failed its
    /// checksum (degraded scans only; a normal scan errors instead).
    pub corrupt: Option<String>,
}

/// What a walk over the frame region found.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrameScan {
    pub frames: Vec<ScannedFrame>,
    /// Byte offset of a torn (uncommitted) tail, when one exists.
    pub torn_tail: Option<usize>,
    /// End of the last committed frame — where the next append writes.
    pub committed_len: usize,
    /// Degraded scans only: reason the remaining bytes after a
    /// structurally unparseable frame were dropped.
    pub dropped: Option<String>,
}

/// Walk the frame region of `bytes` starting at `body_end`. In normal
/// mode any committed-but-damaged frame is a hard [`StoreError`]; in
/// degraded mode it becomes a [`ScannedFrame`] with `corrupt` set (when
/// its structure still parses) or stops the walk with `dropped`.
pub(crate) fn scan_frames(
    bytes: &[u8],
    body_end: usize,
    base_tables: u32,
    degraded: bool,
) -> Result<FrameScan, StoreError> {
    let mut scan = FrameScan { committed_len: body_end, ..FrameScan::default() };
    let mut next_table = base_tables;
    // Does the file end with a commit marker? If so, everything up to
    // that marker was acknowledged — parse failures before it are
    // corruption, not a torn tail.
    let tail_committed = bytes.len() >= body_end + FRAME_OVERHEAD
        && &bytes[bytes.len() - 8..] == FRAME_COMMIT.as_slice();
    let mut p = body_end;
    while p < bytes.len() {
        let fail = |msg: String| -> StoreError {
            StoreError::Corrupt(format!("delta frame at byte {p}: {msg}"))
        };
        let torn = |scan: &mut FrameScan| {
            scan.torn_tail = Some(p);
        };
        let rest = &bytes[p..];
        if rest.len() < 16 || &rest[..8] != FRAME_MAGIC.as_slice() {
            if tail_committed {
                let msg = "bytes are not a frame but the file ends with a commit marker".into();
                if degraded {
                    scan.dropped = Some(msg);
                    return Ok(scan);
                }
                return Err(fail(msg));
            }
            torn(&mut scan);
            return Ok(scan);
        }
        let payload_len = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes")) as usize;
        let frame_len = payload_len
            .checked_add(FRAME_OVERHEAD)
            .filter(|l| p.checked_add(*l).is_some_and(|end| end <= bytes.len()));
        let Some(frame_len) = frame_len else {
            if tail_committed {
                let msg = format!("frame of {payload_len} payload bytes overruns the file");
                if degraded {
                    scan.dropped = Some(msg);
                    return Ok(scan);
                }
                return Err(fail(msg));
            }
            torn(&mut scan);
            return Ok(scan);
        };
        let frame_end = p + frame_len;
        if &bytes[frame_end - 8..frame_end] != FRAME_COMMIT.as_slice() {
            if frame_end == bytes.len() {
                // The expected crash shape: a fully-written frame whose
                // marker never landed. Never acknowledged — drop it.
                torn(&mut scan);
                return Ok(scan);
            }
            let msg = "commit marker corrupted mid-log".to_string();
            if degraded {
                scan.dropped = Some(msg);
                return Ok(scan);
            }
            return Err(fail(msg));
        }
        let payload = &bytes[p + 16..p + 16 + payload_len];
        let stored =
            u64::from_le_bytes(bytes[frame_end - 16..frame_end - 8].try_into().expect("8 bytes"));
        let computed = fold64(payload);
        let corrupt = if stored == computed {
            None
        } else {
            Some(format!(
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ))
        };
        if let Some(reason) = &corrupt {
            if !degraded {
                return Err(fail(reason.clone()));
            }
        }
        match parse_payload(payload, p + 16, next_table, corrupt) {
            Ok(frame) => {
                next_table += frame.n_tables;
                scan.frames.push(frame);
                scan.committed_len = frame_end;
                p = frame_end;
            }
            Err(e) => {
                if degraded {
                    scan.dropped = Some(e.to_string());
                    return Ok(scan);
                }
                return Err(fail(e.to_string()));
            }
        }
    }
    Ok(scan)
}

/// Parse one frame payload. When `corrupt` is set (degraded scan of an
/// acknowledged-but-damaged frame) the table *ranges* are still recovered
/// so the loader can quarantine them by name, but the index entries are
/// discarded — a quarantined table must not be discoverable.
fn parse_payload(
    payload: &[u8],
    payload_base: usize,
    expected_first: u32,
    corrupt: Option<String>,
) -> Result<ScannedFrame, StoreError> {
    let mut r = BinReader::new(payload);
    let first_table = r.get_u32()?;
    let n_tables = r.get_u32()?;
    if first_table != expected_first {
        return Err(StoreError::Corrupt(format!(
            "frame numbers its tables from {first_table}, expected {expected_first}"
        )));
    }
    if n_tables as usize > r.remaining() {
        return Err(StoreError::Corrupt(format!(
            "frame claims {n_tables} tables with {} bytes left",
            r.remaining()
        )));
    }
    let strings: Arc<[Arc<str>]> = decode_string_table(&mut r)?.into();
    let mut tables = Vec::with_capacity(n_tables as usize);
    for i in 0..n_tables {
        let len = r.get_u64()? as usize;
        let start = payload_base + r.position();
        r.take(len).map_err(|_| {
            StoreError::Corrupt(format!("frame table {i} of {len} bytes overruns the frame"))
        })?;
        tables.push(start..start + len);
    }
    let mut entries = Vec::new();
    let n_entries = r.get_u32()? as usize;
    if n_entries > r.remaining() {
        return Err(StoreError::Corrupt(format!(
            "frame claims {n_entries} index entries with {} bytes left",
            r.remaining()
        )));
    }
    for _ in 0..n_entries {
        let value = decode_value(&mut r)?;
        let n_postings = r.get_u32()? as usize;
        if n_postings.saturating_mul(6) > r.remaining() {
            return Err(StoreError::Corrupt(format!(
                "frame entry claims {n_postings} postings with {} bytes left",
                r.remaining()
            )));
        }
        let mut postings = Vec::with_capacity(n_postings);
        for _ in 0..n_postings {
            let table = r.get_u32()?;
            let column = r.get_u16()?;
            if table < first_table || table >= first_table + n_tables {
                return Err(StoreError::Corrupt(format!(
                    "frame posting references table {table}, outside the frame's \
                     {first_table}..{}",
                    first_table + n_tables
                )));
            }
            postings.push(Posting { table, column });
        }
        entries.push((value, postings));
    }
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the frame payload",
            r.remaining()
        )));
    }
    if corrupt.is_some() {
        entries.clear();
    }
    Ok(ScannedFrame { first_table, n_tables, tables, strings, entries, corrupt })
}

/// Encode one frame (magic through commit marker) appending `tables`
/// starting at absolute lake index `first_table`. Deterministic: index
/// entries are sorted by canonical key bytes, like the frozen index.
pub(crate) fn encode_frame(first_table: u32, tables: &[Table]) -> Vec<u8> {
    let mut strings = StringTableBuilder::new();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(tables.len());
    for t in tables {
        let mut w = BinWriter::new();
        encode_table_columnar(t, &mut w, &mut strings);
        encoded.push(w.into_bytes());
    }
    let mut payload = BinWriter::new();
    payload.put_u32(first_table);
    payload.put_u32(tables.len() as u32);
    strings.encode(&mut payload);
    for t in &encoded {
        payload.put_u64(t.len() as u64);
        payload.put_raw(t);
    }

    // The index delta: exactly what `DataLake::push_table` would have
    // inserted — per-column distinct non-null values.
    let mut delta: FxHashMap<Value, Vec<Posting>> = FxHashMap::default();
    for (ti, t) in tables.iter().enumerate() {
        let table = first_table + ti as u32;
        for (ci, _) in t.schema().columns().enumerate() {
            let mut seen: FxHashSet<&Value> = FxHashSet::default();
            for v in t.column(ci) {
                if !v.is_null_like() && seen.insert(v) {
                    delta.entry(v.clone()).or_default().push(Posting { table, column: ci as u16 });
                }
            }
        }
    }
    let mut entries: Vec<(Vec<u8>, Vec<Posting>)> = delta
        .into_iter()
        .map(|(v, p)| {
            let mut w = BinWriter::new();
            encode_value_canonical(&v, &mut w);
            (w.into_bytes(), p)
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    payload.put_u32(entries.len() as u32);
    for (key, postings) in &entries {
        payload.put_raw(key);
        payload.put_u32(postings.len() as u32);
        for p in postings {
            payload.put_u32(p.table);
            payload.put_u16(p.column);
        }
    }

    let payload = payload.into_bytes();
    let mut frame = BinWriter::new();
    frame.put_raw(FRAME_MAGIC);
    frame.put_u64(payload.len() as u64);
    let checksum = fold64(&payload);
    frame.put_raw(&payload);
    frame.put_u64(checksum);
    frame.put_raw(FRAME_COMMIT);
    frame.into_bytes()
}

/// What [`append_tables`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// Absolute lake index assigned to the first appended table.
    pub first_table: u32,
    /// Committed frames in the file after this append.
    pub frames_after: usize,
    /// A torn tail from an earlier crash was physically truncated first.
    pub truncated_torn_tail: bool,
}

/// Append `tables` to the snapshot at `path` as one delta frame, under
/// the crash-safe protocol: any torn tail is truncated, the frame is
/// written **without** its commit marker and fsynced, then the marker is
/// written and fsynced, then the parent directory is fsynced. The append
/// is acknowledged (returns `Ok`) only once the marker is durable; a
/// crash at any earlier point leaves a torn tail the next open drops.
///
/// Fault sites (`gent-faults`): `store.append.write`, `store.append.sync`,
/// `store.append.commit`.
pub fn append_tables(path: &Path, tables: &[Table]) -> Result<AppendOutcome, StoreError> {
    if tables.is_empty() {
        return Err(StoreError::Corrupt("refusing to append an empty delta frame".into()));
    }
    let bytes = fs::read(path).map_err(|e| StoreError::io(path, e))?;
    let header = SnapshotHeader::decode(&bytes)?;
    let (_, body_end) = SectionDirV3::decode(&bytes, header.n_tables as usize, header.has_lsh())?;
    let scan = scan_frames(&bytes, body_end, header.n_tables, false)?;
    let first_table = header.n_tables + scan.frames.iter().map(|f| f.n_tables).sum::<u32>();
    let frame = encode_frame(first_table, tables);

    let truncating = scan.committed_len < bytes.len();
    if truncating {
        crate::telemetry::instruments().torn_tails.inc();
        gent_obs::log(
            gent_obs::Level::Warn,
            "gent_store::delta",
            "torn tail frame dropped before append",
            &[
                ("path", gent_obs::Value::from(path.display().to_string())),
                ("committed_len", gent_obs::Value::from(scan.committed_len as u64)),
                ("file_len", gent_obs::Value::from(bytes.len() as u64)),
            ],
        );
    }

    if let Some(e) = gent_faults::fail_io!("store.append.write") {
        return Err(StoreError::io(path, e));
    }
    let mut file = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| StoreError::io(path, e))?;
    file.set_len(scan.committed_len as u64).map_err(|e| StoreError::io(path, e))?;
    file.seek(SeekFrom::Start(scan.committed_len as u64)).map_err(|e| StoreError::io(path, e))?;
    let (body, marker) = frame.split_at(frame.len() - 8);
    file.write_all(body).map_err(|e| StoreError::io(path, e))?;
    if let Some(e) = gent_faults::fail_io!("store.append.sync") {
        return Err(StoreError::io(path, e));
    }
    file.sync_all().map_err(|e| StoreError::io(path, e))?;
    if let Some(e) = gent_faults::fail_io!("store.append.commit") {
        return Err(StoreError::io(path, e));
    }
    file.write_all(marker).map_err(|e| StoreError::io(path, e))?;
    file.sync_all().map_err(|e| StoreError::io(path, e))?;
    drop(file);
    crate::snapshot::sync_parent_dir(path)?;
    crate::telemetry::instruments().delta_appends.inc();
    Ok(AppendOutcome {
        first_table,
        frames_after: scan.frames.len() + 1,
        truncated_torn_tail: truncating,
    })
}

/// How many committed frames the snapshot at `path` currently carries
/// (and whether a torn tail trails them) — the serve tier's compaction
/// trigger reads this without building a lake.
pub fn frame_count(path: &Path) -> Result<(usize, bool), StoreError> {
    let bytes = fs::read(path).map_err(|e| StoreError::io(path, e))?;
    let header = SnapshotHeader::decode(&bytes)?;
    let (_, body_end) = SectionDirV3::decode(&bytes, header.n_tables as usize, header.has_lsh())?;
    let scan = scan_frames(&bytes, body_end, header.n_tables, false)?;
    Ok((scan.frames.len(), scan.torn_tail.is_some()))
}

/// Fold every delta frame back into a clean base file: load the lake
/// (frames and all), re-freeze the merged index, and atomically rewrite
/// `path` via the `write_atomic` protocol. Returns the number of frames
/// folded. The rewrite also re-derives nothing from quarantined state —
/// compaction of a corrupt file is `fsck --repair`'s job, and this
/// function loads in normal (strict) mode.
///
/// Fault site: `store.compact.save` (via the shared `store.save.*` sites
/// inside `write_atomic`).
pub fn compact(path: &Path) -> Result<usize, StoreError> {
    let loaded = crate::snapshot::load(path)?;
    if loaded.n_frames == 0 {
        return Ok(0);
    }
    if let Some(e) = gent_faults::fail_io!("store.compact.save") {
        return Err(StoreError::io(path, e));
    }
    let lsh = loaded.lsh.force()?.cloned();
    crate::snapshot::save(path, &loaded.lake, lsh.as_ref())?;
    crate::telemetry::instruments().compactions.inc();
    Ok(loaded.n_frames)
}
