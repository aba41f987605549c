//! Saving and loading lake snapshots.
//!
//! A snapshot persists a [`DataLake`] *together with its derived
//! structure*, the inverted value index. The open path is **zero-copy and
//! lazy**: [`load`] reads the file once into a shared [`LakeBuf`], verifies
//! the directory's meta checksum, and then builds *views* instead of
//! copies — the [`FrozenIndex`] arrays are anchored directly in the buffer
//! on the first posting lookup, and each table becomes a lazy
//! [`TableSlot`] whose cells decode on first touch; every deferred section
//! verifies its own checksum when it is first decoded. Opening a lake
//! therefore costs one sequential read + per-table preamble decode,
//! independent of how many cells the lake holds; a reclaim touching three
//! tables decodes three. [`DataLake::decode_all`] restores the old eager
//! behavior. Reopened lakes answer every retrieval query identically to
//! the lake they were written from (see `tests/snapshot_roundtrip.rs` and
//! `tests/lazy_open.rs` at the workspace root).

use std::fs;
use std::io::Read;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use gent_discovery::lake::{IndexThaw, Posting};
use gent_discovery::{DataLake, FrozenIndex};
use gent_table::binary::{
    decode_string_table, encode_table_columnar, fold64, BinReader, BinWriter, StringTableBuilder,
    TableSlot,
};
use gent_table::view::{ByteView, LakeBuf, LeWord, WordView};
use gent_table::{FxHashMap, FxHashSet, Table, Value};

use crate::error::StoreError;
use crate::format::{
    verify_section, SectionDirV3, SectionEntry, SectionRange, SnapshotHeader, HEADER_LEN,
    SNAPSHOT_FORMAT_VERSION,
};

/// A table the degraded open replaced with an empty placeholder because
/// its bytes failed verification. The slot keeps its name (and schema,
/// when the preamble survived) so the serve tier can answer lookups for
/// it with a structured `410 quarantined` instead of a decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedTable {
    /// Index of the quarantined slot in the lake.
    pub table: usize,
    /// The slot's name (recovered from the preamble, or synthesized).
    pub name: String,
    /// Why it was quarantined.
    pub reason: String,
}

/// A lake loaded from a snapshot: the tables + inverted index, and what
/// the open had to quarantine.
#[derive(Debug, Clone)]
pub struct LoadedLake {
    /// The lake, ready for discovery (index served from the snapshot
    /// buffer; tables decode lazily).
    pub lake: DataLake,
    /// Tables the degraded open quarantined (always empty for a normal
    /// open, which errors instead).
    pub quarantined: Vec<QuarantinedTable>,
    /// Committed delta frames folded into this lake's overlay.
    pub n_frames: usize,
}

impl From<DataLake> for LoadedLake {
    /// A lake built in memory, as a load that quarantined nothing and
    /// folded no frames.
    fn from(lake: DataLake) -> Self {
        LoadedLake { lake, quarantined: Vec::new(), n_frames: 0 }
    }
}

/// Refuse a table the format cannot hold — more columns than a `u16`
/// counts — before any byte of it is written.
pub(crate) fn check_width(table: &str, columns: usize) -> Result<(), StoreError> {
    if columns > u16::MAX as usize {
        return Err(StoreError::TooWide { table: table.to_string(), columns });
    }
    Ok(())
}

/// Summary of a snapshot file, read from the fixed header only — `lake stat`
/// on a multi-gigabyte snapshot touches a few dozen bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotStat {
    /// The decoded header.
    pub header: SnapshotHeader,
    /// Total file size in bytes.
    pub file_bytes: u64,
}

/// Serialize `lake` to `path` in the current (v3) format: per-section
/// checksums in the directory, no whole-file trailer, no delta frames (a
/// freshly written base is compact by construction). The write is atomic:
/// bytes are assembled in memory, written to a temporary sibling file, and
/// renamed over `path`, so a crash mid-write can neither leave a
/// half-written snapshot nor destroy the previous one.
///
/// A table wider than 65 535 columns is refused with
/// [`StoreError::TooWide`] before anything is written.
///
/// The header's LSH flag and column count and the directory's `lsh` entry
/// are always written as zeros: that section is retired (see
/// `docs/gentlake-format.md`), so rewriting a file that still carries one
/// drops it.
///
/// # Examples
///
/// ```no_run
/// use gent_discovery::DataLake;
/// use gent_store::snapshot;
/// # fn main() -> Result<(), gent_store::StoreError> {
/// # let tables = vec![];
/// let lake = DataLake::from_tables(tables);
/// snapshot::write("lake.gentlake".as_ref(), &lake)?;
/// let reopened = snapshot::load("lake.gentlake".as_ref())?;
/// assert_eq!(reopened.lake.len(), lake.len());
/// # Ok(()) }
/// ```
pub fn write(path: &Path, lake: &DataLake) -> Result<(), StoreError> {
    for s in lake.slots() {
        check_width(s.name(), s.n_cols())?;
    }
    // A lazily-opened lake materializes every remaining slot up front so
    // any (checksum-defeating) cell corruption surfaces as an error here
    // rather than a panic mid-encode; a deferred index likewise, so the
    // header's distinct-value count is exact and the re-freeze below
    // cannot trip on unverified bytes.
    lake.decode_all(1)?;
    lake.ensure_index().map_err(StoreError::Corrupt)?;
    let header = SnapshotHeader {
        version: SNAPSHOT_FORMAT_VERSION,
        flags: 0,
        n_tables: lake.len() as u32,
        total_rows: lake.slots().iter().map(|s| s.n_rows() as u64).sum(),
        total_cols: lake.slots().iter().map(|s| s.n_cols() as u64).sum(),
        n_index_entries: lake.index_len() as u64,
        n_lsh_columns: 0,
    };

    // Tables are encoded before the string table they fill is serialized
    // (decode needs the strings before the first cell).
    let mut strings = StringTableBuilder::new();
    let mut tables = Vec::with_capacity(lake.len());
    for t in lake.tables_iter() {
        let mut w = BinWriter::new();
        encode_table_columnar(t, &mut w, &mut strings);
        tables.push(w.into_bytes());
    }
    let mut strtab = BinWriter::new();
    strings.encode(&mut strtab);
    let strtab = strtab.into_bytes();

    // The index is persisted in its serving layout (FrozenIndex arrays);
    // freezing sorts entries canonically, so identical lakes → identical
    // bytes regardless of hash-map iteration order. An already-frozen lake
    // (one loaded from a snapshot) serializes its buffer-backed arrays with
    // bulk copies — no re-encode.
    let frozen_built;
    let frozen = match lake.frozen_index() {
        Some(f) => f,
        None => {
            frozen_built = lake.freeze_index();
            &frozen_built
        }
    };
    let mut index = BinWriter::new();
    frozen.encode(&mut index);
    let index = index.into_bytes();

    let mut w = BinWriter::new();
    header.encode(&mut w);
    // Section directory: absolute offsets, contiguous, in body order,
    // each entry carrying the fold64 of its section.
    let mut offset = (HEADER_LEN + SectionDirV3::encoded_len(tables.len())) as u64;
    let mut claim = |section: &[u8]| {
        let e = SectionEntry {
            range: SectionRange { offset, len: section.len() as u64 },
            checksum: fold64(section),
        };
        offset += section.len() as u64;
        e
    };
    let dir = SectionDirV3 {
        strtab: claim(&strtab),
        tables: tables.iter().map(|t| claim(t)).collect(),
        index: claim(&index),
        lsh: None,
    };
    dir.encode(&mut w); // seals header‖dir with the meta checksum
    w.put_raw(&strtab);
    for t in &tables {
        w.put_raw(t);
    }
    w.put_raw(&index);
    write_atomic(path, w.as_bytes())
}

/// [`write()`] under its old name and signature, for the bench board's two
/// calls (`crates/bench/src/bin/board/{run,traced}.rs`), which only a
/// benchmark-only change may edit: that change moves them to [`write()`] and
/// deletes this forward. The third argument once carried LSH bands;
/// `Option<Infallible>` admits only `None`.
pub fn save(
    path: &Path,
    lake: &DataLake,
    _: Option<std::convert::Infallible>,
) -> Result<(), StoreError> {
    write(path, lake)
}

/// Write-then-rename keeps the previous snapshot intact until the new one
/// is fully on disk: the bytes are fsynced before the rename (so a crash
/// can only ever leave a torn *tmp* file, never a torn snapshot), the
/// parent directory is fsynced after it (so the rename itself survives a
/// power cut), and a stale tmp from an earlier crash is cleared on entry
/// instead of failing the save.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("gentlake.tmp");
    if tmp.exists() {
        fs::remove_file(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
    }
    let result = write_atomic_inner(path, &tmp, bytes);
    if result.is_err() {
        // Whether the write or the rename failed, never leave the tmp
        // behind — the old snapshot stays the only *.gentlake file.
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn write_atomic_inner(path: &Path, tmp: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write;
    if let Some(e) = gent_faults::fail_io!("store.save.write") {
        return Err(StoreError::io(tmp, e));
    }
    let mut file = fs::File::create(tmp).map_err(|e| StoreError::io(tmp, e))?;
    file.write_all(bytes).map_err(|e| StoreError::io(tmp, e))?;
    if let Some(e) = gent_faults::fail_io!("store.save.sync") {
        return Err(StoreError::io(tmp, e));
    }
    file.sync_all().map_err(|e| StoreError::io(tmp, e))?;
    drop(file);
    if let Some(e) = gent_faults::fail_io!("store.save.rename") {
        return Err(StoreError::io(path, e));
    }
    fs::rename(tmp, path).map_err(|e| StoreError::io(path, e))?;
    sync_parent_dir(path)
}

/// Fsync the directory holding `path` so the rename that just landed there
/// is durable. Directory handles can only be fsynced on unix; elsewhere the
/// rename's atomicity is the best available guarantee.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        let dir = fs::File::open(parent).map_err(|e| StoreError::io(parent, e))?;
        dir.sync_all().map_err(|e| StoreError::io(parent, e))?;
    }
    Ok(())
}

/// Load a snapshot written by [`write()`]: verify the directory's meta
/// checksum and the strtab section (decoded here anyway), and defer table
/// and index verification to each section's first decode. A retired `lsh`
/// section, if an older build wrote one, is bounds-checked with the
/// directory and never read. A file of any other format version answers
/// [`StoreError::Version`].
pub fn load(path: &Path) -> Result<LoadedLake, StoreError> {
    load_with(path, false)
}

/// [`load`] in **degraded** mode: table sections (base or frame) that
/// fail verification become empty quarantined placeholders instead of
/// errors — the lake keeps serving everything else, and the
/// [`LoadedLake::quarantined`] report says what was lost. Damage to the
/// load-bearing sections (header, directory, strtab, index) still fails:
/// there is no lake to degrade to without them.
pub fn load_degraded(path: &Path) -> Result<LoadedLake, StoreError> {
    load_with(path, true)
}

fn load_with(path: &Path, degraded: bool) -> Result<LoadedLake, StoreError> {
    if let Some(e) = gent_faults::fail_io!("store.load.read") {
        return Err(StoreError::io(path, e));
    }
    let bytes = fs::read(path).map_err(|e| StoreError::io(path, e))?;
    load_buf_with(LakeBuf::new(bytes), degraded)
}

/// Open a snapshot already in memory — what [`load`] does after its one
/// `read`. Exposed so tests and benches can exercise the open path (and
/// hostile inputs) without round-tripping the filesystem.
pub fn load_buf(buf: LakeBuf) -> Result<LoadedLake, StoreError> {
    load_buf_with(buf, false)
}

/// [`load_buf`] in degraded (quarantining) mode — see [`load_degraded`].
pub fn load_buf_degraded(buf: LakeBuf) -> Result<LoadedLake, StoreError> {
    load_buf_with(buf, true)
}

fn load_buf_with(buf: LakeBuf, degraded: bool) -> Result<LoadedLake, StoreError> {
    let ins = crate::telemetry::instruments();
    let _span = gent_obs::span_timed("snapshot_open", ins.open_duration.clone());
    ins.opens.inc();
    ins.open_bytes.add(buf.len() as u64);
    // The header decode rejects short files and every version but the
    // current one.
    let header = SnapshotHeader::decode(buf.as_slice())?;
    load_v3(buf, &header, degraded)
}

/// The open: build views into `buf`, decode only preambles, defer
/// everything else — no O(file) checksum pass. The directory's meta
/// checksum and the strtab section are verified here (the strtab is
/// decoded eagerly anyway); each table and the index are verified on their
/// first decode. Delta frames after the body are
/// scanned, checksum-verified (they are small), and folded into the lake
/// as an index overlay; a torn tail frame is dropped with a structured
/// warning.
fn load_v3(
    buf: LakeBuf,
    header: &SnapshotHeader,
    degraded: bool,
) -> Result<LoadedLake, StoreError> {
    let n_tables = header.n_tables as usize;
    let (dir, body_end) = SectionDirV3::decode(buf.as_slice(), n_tables, header.has_lsh())?;

    // String table: load-bearing for every slot, so verified and decoded
    // now, even degraded — without it there is no lake to degrade to.
    verify_section(buf.as_slice(), &dir.strtab, "strtab")?;
    let mut r = BinReader::new(buf.slice(dir.strtab.range.range()));
    let strings: Arc<[Arc<str>]> = decode_string_table(&mut r)?.into();
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the string table",
            r.remaining()
        )));
    }

    // Base tables: lazy slots whose section checksum is verified on first
    // force (normal), or verified *now* with failures quarantined
    // (degraded).
    let mut slots = Vec::with_capacity(n_tables);
    let mut quarantined: Vec<QuarantinedTable> = Vec::new();
    for (i, t) in dir.tables.iter().enumerate() {
        if !degraded {
            slots.push(TableSlot::lazy_checked(
                buf.clone(),
                t.range.range(),
                strings.clone(),
                t.checksum,
            )?);
            continue;
        }
        let verified = verify_section(buf.as_slice(), t, &format!("table {i}"))
            .map_err(|e| e.to_string())
            .and_then(|()| {
                TableSlot::lazy(buf.clone(), t.range.range(), strings.clone())
                    .map_err(|e| e.to_string())
            });
        match verified {
            Ok(slot) => slots.push(slot),
            Err(reason) => {
                let (name, slot) = placeholder_slot(&buf, t.range.range(), i);
                quarantined.push(QuarantinedTable { table: i, name, reason });
                slots.push(slot);
            }
        }
    }
    if quarantined.is_empty() {
        let (rows, cols) = slots
            .iter()
            .fold((0u64, 0u64), |(r, c), s| (r + s.n_rows() as u64, c + s.n_cols() as u64));
        if rows != header.total_rows || cols != header.total_cols {
            return Err(StoreError::Corrupt(format!(
                "table preambles sum to {rows} rows / {cols} columns, header promised {} / {}",
                header.total_rows, header.total_cols
            )));
        }
    }

    // Frames: scanned and checksum-verified eagerly (they are the small,
    // recently-appended minority of the file); their tables become lazy
    // slots over the already-verified bytes, their index entries an
    // overlay over the frozen base.
    let scan = crate::delta::scan_frames(buf.as_slice(), body_end, header.n_tables, degraded)?;
    let mut delta: FxHashMap<Value, Vec<Posting>> = FxHashMap::default();
    for (k, frame) in scan.frames.iter().enumerate() {
        if let Some(reason) = &frame.corrupt {
            for (j, range) in frame.tables.iter().enumerate() {
                let idx = frame.first_table as usize + j;
                let (name, slot) = placeholder_slot(&buf, range.clone(), idx);
                quarantined.push(QuarantinedTable {
                    table: idx,
                    name,
                    reason: format!("frame {k}: {reason}"),
                });
                slots.push(slot);
            }
            continue;
        }
        for (j, range) in frame.tables.iter().enumerate() {
            let idx = frame.first_table as usize + j;
            match TableSlot::lazy(buf.clone(), range.clone(), frame.strings.clone()) {
                Ok(slot) => slots.push(slot),
                Err(e) if degraded => {
                    let (name, slot) = placeholder_slot(&buf, range.clone(), idx);
                    quarantined.push(QuarantinedTable {
                        table: idx,
                        name,
                        reason: format!("frame {k}: {e}"),
                    });
                    slots.push(slot);
                }
                Err(e) => return Err(StoreError::Corrupt(format!("frame {k} table {j}: {e}"))),
            }
        }
        for (v, postings) in &frame.entries {
            for p in postings {
                let n_cols = slots.get(p.table as usize).map(|s| s.n_cols() as u16).unwrap_or(0);
                if p.column >= n_cols {
                    return Err(StoreError::Corrupt(format!(
                        "frame {k} posting references column {} of table {} \
                         ({n_cols} columns)",
                        p.column, p.table
                    )));
                }
            }
            delta.entry(v.clone()).or_default().extend(postings.iter().copied());
        }
    }
    if let Some(at) = scan.torn_tail {
        crate::telemetry::instruments().torn_tails.inc();
        gent_obs::log(
            gent_obs::Level::Warn,
            "gent_store::snapshot",
            "torn tail frame dropped at open",
            &[
                ("offset", gent_obs::Value::from(at as u64)),
                ("file_len", gent_obs::Value::from(buf.len() as u64)),
            ],
        );
    }
    if let Some(reason) = &scan.dropped {
        gent_obs::log(
            gent_obs::Level::Warn,
            "gent_store::snapshot",
            "unscannable frame region dropped in degraded open",
            &[("reason", gent_obs::Value::from(reason.as_str()))],
        );
    }

    // Quarantined frame tables contributed no delta entries (the scanner
    // clears them), so the overlay needs no filtering here.
    let n_frames = scan.frames.len();

    // Index: nothing is verified or materialized by a strict open. The
    // directory entry carries the section's own fold64, so the first
    // posting lookup (or an explicit [`DataLake::ensure_index`]) verifies
    // the bytes, anchors the views zero-copy and zips the posting arena
    // *then* — open cost does not scale with index bytes. A degraded open
    // runs the same thaw now: the repair path wants index damage surfaced
    // immediately (there is no lake to degrade to without an index).
    debug_assert!(degraded || quarantined.is_empty(), "strict opens never quarantine");
    let n_cols: Vec<u16> = slots.iter().map(|s| s.n_cols() as u16).collect();
    let bad: FxHashSet<u32> = quarantined.iter().map(|q| q.table as u32).collect();
    let entry = dir.index;
    let n_entries = header.n_index_entries;
    let thaw_buf = buf.clone();
    let thaw: IndexThaw = Arc::new(move || {
        thaw_index(&thaw_buf, &entry, n_entries, &n_cols, &bad).map_err(|e| match e {
            StoreError::Corrupt(reason) => reason,
            e => e.to_string(),
        })
    });
    let lake = DataLake::from_slots_deferred(slots, thaw, n_entries as usize, delta);
    if degraded {
        lake.ensure_index().map_err(StoreError::Corrupt)?;
    }
    Ok(LoadedLake { lake, quarantined, n_frames })
}

/// Verify the index section and materialize its [`FrozenIndex`] — what the
/// lake's thaw closure runs on the first posting lookup. `n_cols` is the
/// column count of every slot (base and frame); postings of the tables in
/// `bad` (quarantined by a degraded open) are dropped so those tables are
/// not discoverable.
fn thaw_index(
    buf: &LakeBuf,
    entry: &SectionEntry,
    n_entries: u64,
    n_cols: &[u16],
    bad: &FxHashSet<u32>,
) -> Result<FrozenIndex, StoreError> {
    verify_section(buf.as_slice(), entry, "index")?;
    let IndexViews {
        buckets,
        hashes,
        value_offsets,
        blob,
        posting_offsets,
        arena_tables,
        arena_cols,
    } = decode_index_views(buf, entry, n_entries)?;
    if bad.is_empty() {
        let arena = build_arena(&arena_tables, &arena_cols, n_cols)?;
        return FrozenIndex::from_views(
            buckets,
            hashes,
            value_offsets,
            blob,
            posting_offsets,
            arena,
        )
        .map_err(StoreError::Corrupt);
    }
    // Rebuild the offsets around the dropped postings (owned — this trades
    // the zero-copy arena for a consistent index).
    let n = hashes.len();
    if posting_offsets.len() != n + 1
        || posting_offsets.get(n) as usize != arena_tables.len()
        || arena_tables.len() != arena_cols.len()
    {
        return Err(StoreError::Corrupt("posting offsets do not span the arena".into()));
    }
    let mut new_offsets = Vec::with_capacity(n + 1);
    let mut arena = Vec::with_capacity(arena_tables.len());
    new_offsets.push(0u32);
    for i in 0..n {
        let (start, end) = (posting_offsets.get(i) as usize, posting_offsets.get(i + 1) as usize);
        if start > end || end > arena_tables.len() {
            return Err(StoreError::Corrupt("posting offsets not monotone".into()));
        }
        for j in start..end {
            let (table, column) = (arena_tables[j], arena_cols[j]);
            if bad.contains(&table) {
                continue;
            }
            match n_cols.get(table as usize) {
                Some(&nc) if column < nc => arena.push(Posting { table, column }),
                _ => {
                    return Err(StoreError::Corrupt(format!(
                        "posting references column {column} of table {table}"
                    )))
                }
            }
        }
        new_offsets.push(arena.len() as u32);
    }
    FrozenIndex::from_raw_parts(
        buckets.to_vec(),
        hashes.to_vec(),
        value_offsets.to_vec(),
        blob.to_vec(),
        new_offsets,
        arena,
    )
    .map_err(StoreError::Corrupt)
}

/// The index section's raw parts: zero-copy views anchored in the
/// snapshot buffer plus the copied struct-of-arrays posting encoding.
struct IndexViews {
    buckets: WordView<u32>,
    hashes: WordView<u64>,
    value_offsets: WordView<u32>,
    blob: ByteView,
    posting_offsets: WordView<u32>,
    arena_tables: Vec<u32>,
    arena_cols: Vec<u16>,
}

fn decode_index_views(
    buf: &LakeBuf,
    entry: &SectionEntry,
    n_index_entries: u64,
) -> Result<IndexViews, StoreError> {
    let base = entry.range.offset as usize;
    let mut r = BinReader::new(buf.slice(entry.range.range()));
    let buckets = read_view::<u32>(&mut r, buf, base)?;
    let hashes = read_view::<u64>(&mut r, buf, base)?;
    if hashes.len() as u64 != n_index_entries {
        return Err(StoreError::Corrupt(format!(
            "index has {} entries, header promised {n_index_entries}",
            hashes.len(),
        )));
    }
    let value_offsets = read_view::<u32>(&mut r, buf, base)?;
    let blob_len = r.get_u64()? as usize;
    let blob_start = base + r.position();
    r.take(blob_len)?;
    let blob = ByteView::view(buf.clone(), blob_start..blob_start + blob_len)
        .map_err(StoreError::Corrupt)?;
    let posting_offsets = read_view::<u32>(&mut r, buf, base)?;
    let arena_tables = r.get_u32_array()?;
    let arena_cols = r.get_u16_array()?;
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "{} trailing bytes after the index section",
            r.remaining()
        )));
    }
    Ok(IndexViews {
        buckets,
        hashes,
        value_offsets,
        blob,
        posting_offsets,
        arena_tables,
        arena_cols,
    })
}

/// An empty stand-in for a quarantined table: keeps the name and schema
/// when the preamble survives (so name-routed requests can answer `410
/// quarantined` and postings keep validating), synthesizes them when it
/// does not.
fn placeholder_slot(buf: &LakeBuf, range: Range<usize>, index: usize) -> (String, TableSlot) {
    let preamble = (range.start <= range.end && range.end <= buf.len())
        .then(|| {
            let mut r = BinReader::new(buf.slice(range));
            gent_table::binary::decode_table_preamble(&mut r).ok()
        })
        .flatten();
    if let Some(p) = preamble {
        if let Ok(t) = Table::from_rows(p.name.clone(), p.schema, vec![]) {
            return (p.name, TableSlot::eager(t));
        }
    }
    let name = format!("__quarantined_{index}");
    let table = Table::build(&name, &["_quarantined"], &[], vec![])
        .expect("one-column empty table is always buildable");
    (name.clone(), TableSlot::eager(table))
}

/// Zip the struct-of-arrays posting encoding back into `Posting`s,
/// validating every reference against the lake's (metadata-only) schema.
fn build_arena(
    arena_tables: &[u32],
    arena_cols: &[u16],
    n_cols: &[u16],
) -> Result<Vec<Posting>, StoreError> {
    if arena_tables.len() != arena_cols.len() {
        return Err(StoreError::Corrupt(format!(
            "posting arrays disagree: {} tables vs {} columns",
            arena_tables.len(),
            arena_cols.len()
        )));
    }
    let mut arena = Vec::with_capacity(arena_tables.len());
    for (&table, &column) in arena_tables.iter().zip(arena_cols) {
        match n_cols.get(table as usize) {
            Some(&nc) if column < nc => arena.push(Posting { table, column }),
            Some(_) => {
                return Err(StoreError::Corrupt(format!(
                    "posting references column {column} of table {table} (too few columns)"
                )))
            }
            None => {
                return Err(StoreError::Corrupt(format!(
                    "posting references table {table}, beyond the lake's table count"
                )))
            }
        }
    }
    Ok(arena)
}

/// Read a length-prefixed word array (`put_u32_array`/`put_u64_array`
/// wire format) as a zero-copy view anchored at `base + position` of
/// `buf`, advancing the reader past it.
fn read_view<T: LeWord>(
    r: &mut BinReader<'_>,
    buf: &LakeBuf,
    base: usize,
) -> Result<WordView<T>, StoreError> {
    let n = r.get_u64()? as usize;
    let start = base + r.position();
    let bytes = n.checked_mul(T::BYTES).ok_or_else(|| {
        StoreError::Corrupt(format!("{}-byte word array of {n} elements overflows", T::BYTES))
    })?;
    r.take(bytes)?;
    WordView::view(buf.clone(), start, n).map_err(StoreError::Corrupt)
}

/// Read a snapshot's summary from its fixed header without loading (or
/// checksumming) the body.
pub fn stat(path: &Path) -> Result<SnapshotStat, StoreError> {
    let mut f = fs::File::open(path).map_err(|e| StoreError::io(path, e))?;
    let file_bytes = f.metadata().map_err(|e| StoreError::io(path, e))?.len();
    let mut head = vec![0u8; HEADER_LEN];
    f.read_exact(&mut head).map_err(|_| {
        StoreError::Corrupt(format!("file is {file_bytes} bytes — too short for a snapshot"))
    })?;
    Ok(SnapshotStat { header: SnapshotHeader::decode(&head)?, file_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gent_table::{Table, Value as V};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gent-store-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn lake() -> DataLake {
        let a = Table::build(
            "customers",
            &["id", "name"],
            &[],
            (0..40).map(|i| vec![V::Int(i), V::str(format!("c{i}"))]).collect(),
        )
        .unwrap();
        let b = Table::build(
            "orders",
            &["oid", "cust"],
            &[],
            (0..25).map(|i| vec![V::Int(1000 + i), V::Int(i % 7)]).collect(),
        )
        .unwrap();
        DataLake::from_tables(vec![a, b])
    }

    #[test]
    fn save_load_round_trip() {
        let l = lake();
        let path = scratch("roundtrip.gentlake");
        write(&path, &l).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.lake.len(), l.len());
        assert_eq!(loaded.lake.index_len(), l.index_len());
        for probe in [V::Int(3), V::Int(1005), V::str("c7"), V::str("nope")] {
            assert_eq!(loaded.lake.postings(&probe), l.postings(&probe), "postings({probe})");
        }
        assert_eq!(
            loaded.lake.get_by_name("orders").unwrap().rows(),
            l.get_by_name("orders").unwrap().rows()
        );
    }

    /// The acceptance property of the zero-copy open: loading decodes *no*
    /// table cells; metadata and posting lookups work on the undecoded
    /// lake; touching one table decodes exactly that table.
    #[test]
    fn lazy_open_decodes_nothing_until_touched() {
        let l = lake();
        let path = scratch("lazy.gentlake");
        write(&path, &l).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.lake.tables_decoded(), 0, "open must not decode tables");

        // Metadata + index lookups leave everything undecoded.
        assert_eq!(loaded.lake.len(), 2);
        assert_eq!(loaded.lake.name_of(0), Some("customers"));
        assert_eq!(loaded.lake.slots()[1].n_rows(), 25);
        assert_eq!(loaded.lake.postings(&V::Int(3)), l.postings(&V::Int(3)));
        assert_eq!(loaded.lake.tables_decoded(), 0);

        // Touching one table decodes exactly one.
        let orders = loaded.lake.get_by_name("orders").unwrap();
        assert_eq!(orders.rows(), l.get_by_name("orders").unwrap().rows());
        assert_eq!(loaded.lake.tables_decoded(), 1);

        // decode_all restores the eager world.
        loaded.lake.decode_all(2).unwrap();
        assert_eq!(loaded.lake.tables_decoded(), 2);
    }

    /// Resaving a lazily-opened lake reproduces the file byte-for-byte:
    /// lazy decode is lossless and the buffer-backed index re-encodes via
    /// the bulk-copy path.
    #[test]
    fn resave_of_lazy_lake_is_byte_identical() {
        let p1 = scratch("resave-1.gentlake");
        let p2 = scratch("resave-2.gentlake");
        write(&p1, &lake()).unwrap();
        let loaded = load(&p1).unwrap();
        write(&p2, &loaded.lake).unwrap();
        assert_eq!(fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
    }

    #[test]
    fn stat_reads_header_only() {
        let l = lake();
        let path = scratch("stat.gentlake");
        write(&path, &l).unwrap();
        let s = stat(&path).unwrap();
        assert_eq!(s.header.version, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(s.header.n_tables, 2);
        assert_eq!(s.header.total_rows, 65);
        assert_eq!(s.header.total_cols, 4);
        assert!(!s.header.has_lsh());
        assert_eq!(s.header.n_index_entries as usize, l.index_len());
        assert!(s.file_bytes > HEADER_LEN as u64);
    }

    #[test]
    fn identical_lakes_produce_identical_bytes() {
        let p1 = scratch("stable-1.gentlake");
        let p2 = scratch("stable-2.gentlake");
        write(&p1, &lake()).unwrap();
        write(&p2, &lake()).unwrap();
        assert_eq!(fs::read(&p1).unwrap(), fs::read(&p2).unwrap());
    }

    /// The bytes [`write()`] produces, pinned across commits: length and
    /// fold64 of `write(lake())`. A change here is a format change — bump
    /// [`SNAPSHOT_FORMAT_VERSION`] and re-pin, never re-pin alone.
    #[test]
    fn written_bytes_are_pinned() {
        let path = scratch("golden.gentlake");
        write(&path, &lake()).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 5758);
        assert_eq!(fold64(&bytes), 0x70f8_b1ad_1cda_4e25);
    }

    #[test]
    fn corruption_detected_on_first_touch() {
        let path = scratch("corrupt.gentlake");
        write(&path, &lake()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        // v3 verifies per section, on first decode: the open itself may
        // succeed, but forcing everything it deferred must surface the
        // flip as a structured error — corrupt bytes are never served.
        let surfaced = match load(&path) {
            Err(e) => matches!(e, StoreError::Corrupt(_)),
            Ok(loaded) => loaded.lake.decode_all(1).is_err() || loaded.lake.ensure_index().is_err(),
        };
        assert!(surfaced, "a flipped byte must fail a fully forced open");
    }

    #[test]
    fn non_snapshot_file_rejected() {
        let path = scratch("not-a-snapshot.txt");
        fs::write(&path, b"hello,world\n1,2\n").unwrap();
        assert!(matches!(load(&path), Err(StoreError::Corrupt(_))));
        assert!(matches!(stat(&path), Err(StoreError::Corrupt(_))));
    }
}
