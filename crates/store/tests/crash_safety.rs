//! Crash-safety suite for snapshot persistence: power-cut simulation and
//! fault-injected saves.
//!
//! The invariant under test is the one `write_atomic` exists for: **no
//! crash, torn write, or injected IO failure may ever make a
//! previously-valid snapshot unloadable.** A crash mid-save can only leave
//! a torn `*.gentlake.tmp` next to the intact old file; a stale tmp must
//! never fail (or corrupt) the next save; and a torn file that somehow
//! *does* land at the snapshot path must surface as a structured
//! `StoreError`, never a panic.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use gent_discovery::DataLake;
use gent_store::format::HEADER_LEN;
use gent_store::{snapshot, SectionDirV3, SnapshotHeader};
use gent_table::{Table, Value as V};

/// Fault state is process-global; every test in this file serializes on
/// this lock so an armed site can never leak into a neighbour's save.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    // The torn-frame warnings these tests provoke by the hundred go to a
    // capture buffer, not to `cargo test`'s stderr.
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| drop(gent_obs::set_sink()));
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gent-crash-safety-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A lake with `n_tables` tables — distinguishable after reload by count.
fn lake_with(n_tables: usize, tag: &str) -> DataLake {
    let tables = (0..n_tables)
        .map(|t| {
            let rows = (0..8)
                .map(|i| vec![V::Int(i), V::str(format!("{tag}_{t}_{i}"))])
                .collect::<Vec<_>>();
            Table::build(&format!("t{t}"), &["id", "val"], &["id"], rows).unwrap()
        })
        .collect();
    DataLake::from_tables(tables)
}

fn tmp_path(path: &Path) -> PathBuf {
    path.with_extension("gentlake.tmp")
}

/// Every byte length at which a power cut mid-write is interesting: each
/// section boundary of the v3 layout, the byte just before it, and the
/// midpoint of every section — plus the empty file and the truncated
/// directory.
fn truncation_points(bytes: &[u8]) -> Vec<usize> {
    let header = SnapshotHeader::decode(bytes).unwrap();
    let (dir, body_end) =
        SectionDirV3::decode(bytes, header.n_tables as usize, header.has_lsh()).unwrap();
    let mut bounds =
        vec![0, HEADER_LEN, HEADER_LEN + SectionDirV3::encoded_len(header.n_tables as usize)];
    let mut push_section = |s: &gent_store::SectionEntry| {
        bounds.push(s.range.offset as usize);
        bounds.push((s.range.offset + s.range.len) as usize);
    };
    push_section(&dir.strtab);
    for t in &dir.tables {
        push_section(t);
    }
    push_section(&dir.index);
    if let Some(l) = &dir.lsh {
        push_section(l);
    }
    bounds.push(body_end);
    bounds.sort_unstable();
    bounds.dedup();
    // Add near-boundary and mid-section cuts so torn *partial* sections are
    // covered, not just clean section edges.
    let mut cuts = Vec::new();
    for pair in bounds.windows(2) {
        cuts.push(pair[0]);
        if pair[0] > 0 {
            cuts.push(pair[0] - 1);
        }
        if pair[1] - pair[0] > 1 {
            cuts.push(pair[0] + (pair[1] - pair[0]) / 2);
        }
    }
    cuts.extend_from_slice(&bounds);
    cuts.retain(|&c| c < bytes.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Power-cut simulation: a torn tmp file at *any* section boundary leaves
/// the old snapshot loading cleanly, and the very next save succeeds and
/// clears the debris.
#[test]
fn power_cut_at_every_section_boundary_keeps_old_snapshot_loadable() {
    let _g = locked();
    let s = Scratch::new("powercut");
    let path = s.0.join("lake.gentlake");

    let old = lake_with(2, "old");
    let new = lake_with(3, "new");
    snapshot::save(&path, &old, None).unwrap();
    let old_bytes = fs::read(&path).unwrap();

    let staging = s.0.join("staging.gentlake");
    snapshot::save(&staging, &new, None).unwrap();
    let new_bytes = fs::read(&staging).unwrap();

    let cuts = truncation_points(&new_bytes);
    assert!(cuts.len() >= 8, "expected many truncation points, got {cuts:?}");

    for &cut in &cuts {
        // Crash mid-write: the new snapshot's first `cut` bytes made it to
        // the tmp file, the rename never happened.
        fs::write(tmp_path(&path), &new_bytes[..cut]).unwrap();
        let loaded = snapshot::load(&path)
            .unwrap_or_else(|e| panic!("old snapshot unloadable after {cut}-byte torn tmp: {e}"));
        assert_eq!(loaded.lake.len(), 2, "old lake must survive a {cut}-byte torn tmp");

        // The next save must shrug off the stale tmp, land the new
        // snapshot, and leave no debris.
        snapshot::save(&path, &new, None)
            .unwrap_or_else(|e| panic!("save after {cut}-byte torn tmp failed: {e}"));
        assert!(!tmp_path(&path).exists(), "stale tmp must be gone after a save (cut {cut})");
        assert_eq!(snapshot::load(&path).unwrap().lake.len(), 3);

        // A torn file at the *snapshot* path itself (a filesystem that
        // broke rename atomicity) must fail structurally, never panic.
        let torn = s.0.join("torn.gentlake");
        fs::write(&torn, &new_bytes[..cut]).unwrap();
        let err = snapshot::load(&torn).expect_err("torn snapshot must not load");
        assert!(!err.to_string().is_empty());

        // Reset for the next cut point.
        fs::write(&path, &old_bytes).unwrap();
    }
}

/// Satellite regression: a stale tmp from a previous crash must not fail
/// the next save (entry-time cleanup), and a failed save must not leave a
/// fresh tmp behind either.
#[test]
fn stale_tmp_from_previous_crash_does_not_fail_save() {
    let _g = locked();
    let s = Scratch::new("staletmp");
    let path = s.0.join("lake.gentlake");
    fs::write(tmp_path(&path), b"debris from a crashed writer").unwrap();

    snapshot::save(&path, &lake_with(2, "fresh"), None).expect("save over stale tmp");
    assert!(!tmp_path(&path).exists(), "save must clear the stale tmp");
    assert_eq!(snapshot::load(&path).unwrap().lake.len(), 2);
}

/// Fault-injected saves: whichever stage dies (write, fsync, rename), the
/// error is structured and tagged, the old snapshot still loads, and no
/// tmp file survives.
#[test]
fn injected_save_faults_leave_old_snapshot_intact() {
    let _g = locked();
    let s = Scratch::new("savefaults");
    let path = s.0.join("lake.gentlake");
    let old = lake_with(2, "old");
    let new = lake_with(3, "new");
    snapshot::save(&path, &old, None).unwrap();

    for site in ["store.save.write", "store.save.sync", "store.save.rename"] {
        gent_faults::reset();
        gent_faults::arm(site, gent_faults::Trigger::NthHit(1));
        gent_faults::set_enabled(true);

        let err = snapshot::save(&path, &new, None).expect_err(site);
        assert!(
            err.to_string().contains("injected fault"),
            "{site}: error must carry the injection tag, got: {err}"
        );
        assert_eq!(gent_faults::fired(site), 1, "{site} must have fired");
        gent_faults::reset();

        assert!(!tmp_path(&path).exists(), "{site}: failed save must leave no tmp");
        assert_eq!(snapshot::load(&path).unwrap().lake.len(), 2, "{site}: old lake intact");
    }

    // And with the layer disabled, the same armed site is a no-op.
    gent_faults::reset();
    gent_faults::arm("store.save.write", gent_faults::Trigger::Always);
    snapshot::save(&path, &new, None).expect("disabled fault layer must not fire");
    assert_eq!(snapshot::load(&path).unwrap().lake.len(), 3);
    gent_faults::reset();
}

/// One delta-frame table, distinguishable by name.
fn frame_table(name: &str) -> Table {
    let rows = (0..4).map(|i| vec![V::Int(100 + i), V::str(format!("{name}_{i}"))]).collect();
    Table::build(name, &["id", "val"], &["id"], rows).unwrap()
}

/// Power-cut suite for the delta-frame log: truncate the file at **every
/// byte** of the frame region (a superset of header / body / checksum /
/// commit-marker boundaries ± nudges) and require that
///
/// * the file always loads — acknowledged (committed) frames recover in
///   full, an uncommitted tail is silently dropped, and nothing panics;
/// * the next append on the truncated file repairs the torn tail and
///   lands cleanly.
#[test]
fn power_cut_at_every_delta_frame_byte_recovers_acknowledged_frames() {
    let _g = locked();
    gent_faults::reset();
    let s = Scratch::new("framecut");
    let path = s.0.join("lake.gentlake");

    snapshot::save(&path, &lake_with(2, "base"), None).unwrap();
    let base_len = fs::metadata(&path).unwrap().len() as usize;
    gent_store::append_tables(&path, &[frame_table("frame_a")]).unwrap();
    let len_a = fs::metadata(&path).unwrap().len() as usize;
    gent_store::append_tables(&path, &[frame_table("frame_b")]).unwrap();
    let len_b = fs::metadata(&path).unwrap().len() as usize;
    let bytes = fs::read(&path).unwrap();
    assert_eq!(bytes.len(), len_b);
    assert!(base_len < len_a && len_a < len_b);

    let victim = s.0.join("cut.gentlake");
    for cut in base_len..=len_b {
        fs::write(&victim, &bytes[..cut]).unwrap();

        // Committed prefix at this cut: a frame counts only once its
        // commit marker is fully on disk.
        let committed = if cut >= len_b {
            len_b
        } else if cut >= len_a {
            len_a
        } else {
            base_len
        };
        let expect_tables = 2 + usize::from(committed >= len_a) + usize::from(committed >= len_b);

        let loaded = snapshot::load(&victim)
            .unwrap_or_else(|e| panic!("load after cut at byte {cut} failed: {e}"));
        assert_eq!(loaded.lake.len(), expect_tables, "cut {cut}: acknowledged frames recover");
        assert!(loaded.quarantined.is_empty(), "cut {cut}: a torn tail is not corruption");

        // Recovery-and-append: the next writer truncates the torn tail
        // (if any) and its frame lands.
        let outcome = gent_store::append_tables(&victim, &[frame_table("frame_c")])
            .unwrap_or_else(|e| panic!("append after cut at byte {cut} failed: {e}"));
        assert_eq!(
            outcome.truncated_torn_tail,
            cut > committed,
            "cut {cut}: torn-tail truncation flag"
        );
        let reloaded = snapshot::load(&victim).unwrap();
        assert_eq!(reloaded.lake.len(), expect_tables + 1, "cut {cut}: append after recovery");
        assert!(reloaded.quarantined.is_empty());
    }
}

/// Fault-injected appends: whichever stage dies (pre-open write check,
/// body fsync, commit-marker write), the acknowledged prefix still loads
/// in full and the next (healthy) append repairs any torn tail.
#[test]
fn injected_append_faults_never_lose_acknowledged_frames() {
    let _g = locked();
    let s = Scratch::new("appendfaults");
    let path = s.0.join("lake.gentlake");
    snapshot::save(&path, &lake_with(2, "base"), None).unwrap();
    gent_store::append_tables(&path, &[frame_table("acked")]).unwrap();

    for (i, site) in
        ["store.append.write", "store.append.sync", "store.append.commit"].into_iter().enumerate()
    {
        gent_faults::reset();
        gent_faults::arm(site, gent_faults::Trigger::NthHit(1));
        gent_faults::set_enabled(true);

        let err = gent_store::append_tables(&path, &[frame_table("doomed")]).expect_err(site);
        assert!(
            err.to_string().contains("injected fault"),
            "{site}: error must carry the injection tag, got: {err}"
        );
        assert_eq!(gent_faults::fired(site), 1, "{site} must have fired");
        gent_faults::reset();

        // The acknowledged prefix (base + "acked" + one healthy frame per
        // previous iteration) must load in full, unquarantined.
        let loaded = snapshot::load(&path).unwrap_or_else(|e| panic!("{site}: load failed: {e}"));
        assert_eq!(loaded.lake.len(), 3 + i, "{site}: acknowledged frames intact");
        assert!(loaded.quarantined.is_empty(), "{site}: no quarantine from a failed append");

        // A healthy append repairs the torn tail the fault left behind
        // (the pre-open site leaves the file untouched, so nothing to
        // repair there).
        let outcome = gent_store::append_tables(&path, &[frame_table(&format!("healthy_{i}"))])
            .unwrap_or_else(|e| panic!("{site}: append after fault failed: {e}"));
        assert_eq!(
            outcome.truncated_torn_tail,
            site != "store.append.write",
            "{site}: torn-tail repair flag"
        );
        assert_eq!(snapshot::load(&path).unwrap().lake.len(), 4 + i);
    }
    gent_faults::reset();
}

/// Compaction folds the frame log into a clean base — and a fault during
/// the compaction save leaves the framed file fully loadable.
#[test]
fn compaction_failure_leaves_framed_snapshot_intact() {
    let _g = locked();
    let s = Scratch::new("compactfault");
    let path = s.0.join("lake.gentlake");
    snapshot::save(&path, &lake_with(2, "base"), None).unwrap();
    gent_store::append_tables(&path, &[frame_table("fa")]).unwrap();
    gent_store::append_tables(&path, &[frame_table("fb")]).unwrap();
    assert_eq!(gent_store::frame_count(&path).unwrap(), (2, false));

    gent_faults::reset();
    gent_faults::arm("store.compact.save", gent_faults::Trigger::NthHit(1));
    gent_faults::set_enabled(true);
    let err = gent_store::compact(&path).expect_err("armed compact must fail");
    assert!(err.to_string().contains("injected fault"), "{err}");
    gent_faults::reset();

    // The framed file is untouched (write_atomic never renamed).
    assert_eq!(gent_store::frame_count(&path).unwrap(), (2, false));
    let before = snapshot::load(&path).unwrap();
    assert_eq!(before.lake.len(), 4);
    assert_eq!(before.n_frames, 2);

    // Healthy compaction: same tables, zero frames, index intact. (Force
    // the framed lake's deferred index first — unforced, `index_len` is
    // the base header's count, which predates the frames' novel values.)
    before.lake.ensure_index().unwrap();
    assert_eq!(gent_store::compact(&path).unwrap(), 2);
    assert_eq!(gent_store::frame_count(&path).unwrap(), (0, false));
    let after = snapshot::load(&path).unwrap();
    assert_eq!(after.lake.len(), 4);
    assert_eq!(after.n_frames, 0);
    assert_eq!(after.lake.index_len(), before.lake.index_len());
}

/// The read-side failpoint makes `load` fail without touching the file —
/// and recovers the moment the site is disarmed.
#[test]
fn injected_read_fault_is_transient() {
    let _g = locked();
    let s = Scratch::new("readfault");
    let path = s.0.join("lake.gentlake");
    snapshot::save(&path, &lake_with(2, "x"), None).unwrap();

    gent_faults::reset();
    gent_faults::arm("store.load.read", gent_faults::Trigger::NthHit(1));
    gent_faults::set_enabled(true);
    let err = snapshot::load(&path).expect_err("armed read site must fail the load");
    assert!(err.to_string().contains("store.load.read"), "{err}");
    // The nth-hit trigger has fired; the very next load succeeds.
    assert_eq!(snapshot::load(&path).unwrap().lake.len(), 2);
    gent_faults::reset();
}
