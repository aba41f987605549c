//! Offline integrity checking and repair for GENTLAKE snapshots.
//!
//! [`fsck`] walks a snapshot the way a paranoid open would — header,
//! directory meta checksum, every section checksum, every delta frame —
//! and reports *all* problems instead of stopping at the first. It never
//! decodes cells, so it runs in O(file) fold64 time regardless of how
//! corrupt the file is, and it never panics on hostile input.
//!
//! [`fsck_repair`] is the recovery half: open the file in degraded mode
//! (quarantining whatever fails its checksum), then rewrite a clean v3
//! base atomically. Quarantined tables persist as empty placeholders so
//! table indices — and therefore the inverted index's postings — stay
//! stable; their data is gone, which is exactly what the checksums said.

use std::fs;
use std::path::Path;

use gent_table::binary::{decode_table_preamble, BinReader};

use crate::error::StoreError;
use crate::format::{verify_section, SectionDirV3, SnapshotHeader};
use crate::snapshot::QuarantinedTable;

/// One thing wrong with the file, located as precisely as the walk can.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckProblem {
    /// Which structure failed: `"header"`, `"directory"`, `"strtab"`,
    /// `"table 3 (movies)"`, `"index"`, `"lsh"`, `"frame 2"`, …
    pub what: String,
    /// What failed about it (checksum mismatch, bad magic, …).
    pub detail: String,
}

/// Everything [`fsck`] learned about one snapshot file.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Format version from the header (0 when the header itself is
    /// unreadable — which includes every version this build does not
    /// read).
    pub version: u16,
    /// Base tables promised by the header.
    pub n_tables: usize,
    /// Committed delta frames after the body.
    pub n_frames: usize,
    /// Whether an uncommitted (torn) tail frame follows the committed
    /// log. Not a problem — it is the expected shape of a crash mid-append
    /// and recovery drops it — but worth surfacing.
    pub torn_tail: bool,
    /// Every detected corruption. Empty means the file is clean.
    pub problems: Vec<FsckProblem>,
}

impl FsckReport {
    /// True when no corruption was detected (a torn tail alone is clean).
    pub fn is_clean(&self) -> bool {
        self.problems.is_empty()
    }
}

fn problem(problems: &mut Vec<FsckProblem>, what: impl Into<String>, detail: impl ToString) {
    problems.push(FsckProblem { what: what.into(), detail: detail.to_string() });
}

/// Check every checksum in `path` and report all failures.
///
/// Only I/O errors (file missing, unreadable) surface as `Err`; corruption
/// of any severity — including an unreadable header — comes back as
/// problems in the report.
pub fn fsck(path: &Path) -> Result<FsckReport, StoreError> {
    let bytes = fs::read(path).map_err(|e| StoreError::io(path, e))?;
    let mut report =
        FsckReport { version: 0, n_tables: 0, n_frames: 0, torn_tail: false, problems: Vec::new() };
    let header = match SnapshotHeader::decode(&bytes) {
        Ok(h) => h,
        Err(e) => {
            problem(&mut report.problems, "header", e);
            return Ok(report);
        }
    };
    report.version = header.version;
    report.n_tables = header.n_tables as usize;
    let (dir, body_end) = match SectionDirV3::decode(&bytes, report.n_tables, header.has_lsh()) {
        Ok(d) => d,
        Err(e) => {
            // Without a trustworthy directory every offset downstream
            // is a guess; stop here.
            problem(&mut report.problems, "directory", e);
            return Ok(report);
        }
    };

    if let Err(e) = verify_section(&bytes, &dir.strtab, "strtab") {
        problem(&mut report.problems, "strtab", e);
    }
    for (i, entry) in dir.tables.iter().enumerate() {
        if let Err(e) = verify_section(&bytes, entry, "table") {
            let mut r = BinReader::new(&bytes[entry.range.range()]);
            let what = match decode_table_preamble(&mut r) {
                Ok(p) => format!("table {i} ({})", p.name),
                Err(_) => format!("table {i}"),
            };
            problem(&mut report.problems, what, e);
        }
    }
    if let Err(e) = verify_section(&bytes, &dir.index, "index") {
        problem(&mut report.problems, "index", e);
    }
    if let Some(entry) = &dir.lsh {
        if let Err(e) = verify_section(&bytes, entry, "lsh") {
            problem(&mut report.problems, "lsh", e);
        }
    }

    // Frames: the degraded scan records per-frame corruption instead of
    // failing, which is exactly the walk fsck wants.
    match crate::delta::scan_frames(&bytes, body_end, header.n_tables, true) {
        Ok(scan) => {
            report.n_frames = scan.frames.len();
            report.torn_tail = scan.torn_tail.is_some();
            for (k, frame) in scan.frames.iter().enumerate() {
                if let Some(reason) = &frame.corrupt {
                    problem(&mut report.problems, format!("frame {k}"), reason);
                }
            }
            if let Some(reason) = &scan.dropped {
                problem(&mut report.problems, "frame log", reason);
            }
        }
        Err(e) => problem(&mut report.problems, "frame log", e),
    }
    Ok(report)
}

/// Repair `path` in place: degraded open (corrupt tables → empty
/// placeholders, corrupt frames dropped from the index, torn tail
/// discarded), then an atomic rewrite of a clean v3 base with no frames.
///
/// Returns the tables that were quarantined — their slots survive as empty
/// stand-ins so table numbering stays stable, but their rows are
/// unrecoverable. A clean file round-trips unchanged (modulo compaction of
/// any frames into the base).
pub fn fsck_repair(path: &Path) -> Result<Vec<QuarantinedTable>, StoreError> {
    let loaded = crate::snapshot::load_degraded(path)?;
    let lsh = loaded.lsh.force()?.cloned();
    crate::snapshot::save(path, &loaded.lake, lsh.as_ref())?;
    Ok(loaded.quarantined)
}
