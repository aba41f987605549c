//! End-to-end tests of the `gent` CLI against real CSV files on disk.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gent_cli::{run, CliError};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gent-cli-test-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn file(&self, name: &str, contents: &str) -> PathBuf {
        let p = self.0.join(name);
        if let Some(parent) = p.parent() {
            fs::create_dir_all(parent).unwrap();
        }
        fs::write(&p, contents).unwrap();
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn run_ok(args: &[&str]) -> String {
    let mut out = Vec::new();
    run(&sv(args), &mut out).unwrap_or_else(|e| panic!("command {args:?} failed: {e}"));
    String::from_utf8(out).unwrap()
}

fn run_err(args: &[&str]) -> CliError {
    let mut out = Vec::new();
    run(&sv(args), &mut out).expect_err("command should fail")
}

/// Lay down a small lake of fragments that jointly rebuild the source.
fn make_lake(s: &Scratch) -> PathBuf {
    let lake = s.path().join("lake");
    fs::create_dir_all(&lake).unwrap();
    fs::write(lake.join("ids.csv"), "id,name\n0,Smith\n1,Brown\n2,Wang\n").unwrap();
    fs::write(lake.join("ages.csv"), "name,age\nSmith,27\nBrown,24\nWang,32\n").unwrap();
    fs::write(lake.join("noise.csv"), "q\nzzz\nyyy\n").unwrap();
    lake
}

const SOURCE_CSV: &str = "id,name,age\n0,Smith,27\n1,Brown,24\n2,Wang,32\n";

#[test]
fn stats_reports_lake_shape() {
    let s = Scratch::new("stats");
    let lake = make_lake(&s);
    let text = run_ok(&["stats", lake.to_str().unwrap()]);
    assert!(text.contains("tables:    3"), "{text}");
    assert!(text.contains("columns:   5"), "{text}");
}

#[test]
fn stats_on_missing_dir_fails() {
    let e = run_err(&["stats", "/definitely/not/a/dir"]);
    assert!(matches!(e, CliError::Usage(_)));
}

#[test]
fn reclaim_end_to_end_with_explicit_key() {
    let s = Scratch::new("reclaim");
    let lake = make_lake(&s);
    let src = s.file("source.csv", SOURCE_CSV);
    let out_csv = s.path().join("reclaimed.csv");
    let text = run_ok(&[
        "reclaim",
        src.to_str().unwrap(),
        lake.to_str().unwrap(),
        "--key",
        "id",
        "--out",
        out_csv.to_str().unwrap(),
    ]);
    assert!(text.contains("perfect:    true"), "{text}");
    assert!(text.contains("originating tables"), "{text}");
    let written = fs::read_to_string(&out_csv).unwrap();
    assert!(written.contains("Smith"), "{written}");
}

#[test]
fn reclaim_mines_key_when_not_given() {
    let s = Scratch::new("minekey");
    let lake = make_lake(&s);
    let src = s.file("source.csv", SOURCE_CSV);
    let text = run_ok(&["reclaim", src.to_str().unwrap(), lake.to_str().unwrap()]);
    assert!(text.contains("EIS:        1.000"), "{text}");
}

#[test]
fn reclaim_explain_prints_tuple_report() {
    let s = Scratch::new("explain");
    let lake = make_lake(&s);
    // A source with one tuple the lake cannot know about.
    let src = s.file("source.csv", "id,name,age\n0,Smith,27\n9,Ghost,99\n");
    let text = run_ok(&[
        "reclaim",
        src.to_str().unwrap(),
        lake.to_str().unwrap(),
        "--key",
        "id",
        "--explain",
    ]);
    assert!(text.contains("NOT derivable"), "{text}");
}

#[test]
fn reclaim_keyless_flag_works() {
    let s = Scratch::new("keyless");
    let lake = make_lake(&s);
    let src = s.file("source.csv", SOURCE_CSV);
    let text = run_ok(&["reclaim", src.to_str().unwrap(), lake.to_str().unwrap(), "--keyless"]);
    assert!(text.contains("key strategy"), "{text}");
    assert!(text.contains("keyless similarity"), "{text}");
}

#[test]
fn verify_verdicts() {
    let s = Scratch::new("verify");
    let lake = make_lake(&s);

    // Fully supported claim.
    let good = s.file("good.csv", SOURCE_CSV);
    let text = run_ok(&["verify", good.to_str().unwrap(), lake.to_str().unwrap(), "--key", "id"]);
    assert!(text.starts_with("VERIFIED"), "{text}");

    // Claim the lake contradicts (Brown's age).
    let bad = s.file("bad.csv", "id,name,age\n0,Smith,27\n1,Brown,99\n");
    let text = run_ok(&["verify", bad.to_str().unwrap(), lake.to_str().unwrap(), "--key", "id"]);
    assert!(text.starts_with("CONTRADICTED"), "{text}");

    // Claim with tuples the lake has never heard of.
    let ghost = s.file("ghost.csv", "id,name,age\n0,Smith,27\n7,Ghost,1\n");
    let text = run_ok(&["verify", ghost.to_str().unwrap(), lake.to_str().unwrap(), "--key", "id"]);
    assert!(text.starts_with("PARTIALLY VERIFIED"), "{text}");
}

#[test]
fn verify_threshold_is_validated() {
    let s = Scratch::new("thresh");
    let lake = make_lake(&s);
    let src = s.file("source.csv", SOURCE_CSV);
    let e = run_err(&[
        "verify",
        src.to_str().unwrap(),
        lake.to_str().unwrap(),
        "--key",
        "id",
        "--threshold",
        "2.0",
    ]);
    assert!(matches!(e, CliError::Usage(_)));
}

#[test]
fn generate_writes_benchmark_csvs() {
    let s = Scratch::new("generate");
    let out_dir = s.path().join("bench");
    let text =
        run_ok(&["generate", out_dir.to_str().unwrap(), "--benchmark", "t2d-gold", "--seed", "3"]);
    assert!(text.contains("generated"), "{text}");
    let lake_files = fs::read_dir(out_dir.join("lake")).unwrap().count();
    let src_files = fs::read_dir(out_dir.join("sources")).unwrap().count();
    assert!(lake_files > 5, "lake files: {lake_files}");
    assert!(src_files > 0, "source files: {src_files}");
}

#[test]
fn generate_rejects_unknown_benchmark() {
    let s = Scratch::new("genbad");
    let e = run_err(&["generate", s.path().to_str().unwrap(), "--benchmark", "nope"]);
    assert!(matches!(e, CliError::Usage(_)));
}

#[test]
fn generated_benchmark_round_trips_through_reclaim() {
    // generate → pick a source → reclaim it from the generated lake.
    let s = Scratch::new("roundtrip");
    let out_dir = s.path().join("bench");
    run_ok(&["generate", out_dir.to_str().unwrap(), "--benchmark", "t2d-gold"]);
    let src = fs::read_dir(out_dir.join("sources")).unwrap().next().unwrap().unwrap().path();
    let text = run_ok(&["reclaim", src.to_str().unwrap(), out_dir.join("lake").to_str().unwrap()]);
    assert!(text.contains("EIS:"), "{text}");
}

#[test]
fn query_command_runs_spju_plans() {
    let s = Scratch::new("query");
    let lake = make_lake(&s);
    let out_csv = s.path().join("q.csv");
    let text = run_ok(&[
        "query",
        r#"project(name; select(age >= 25; join(ids, ages)))"#,
        lake.to_str().unwrap(),
        "--out",
        out_csv.to_str().unwrap(),
    ]);
    assert!(text.contains("query: "), "{text}");
    assert!(text.contains("Smith") && text.contains("Wang"), "{text}");
    assert!(!text.contains("Brown"), "{text}");
    let written = fs::read_to_string(&out_csv).unwrap();
    assert!(written.starts_with("name"), "{written}");
}

#[test]
fn query_command_rewrite_flag_shows_theorem8_form() {
    let s = Scratch::new("queryrw");
    let lake = make_lake(&s);
    let text = run_ok(&["query", "join(ids, ages)", lake.to_str().unwrap(), "--rewrite"]);
    assert!(text.contains("Theorem 8 form"), "{text}");
    assert!(text.contains('⊎'), "{text}");
}

#[test]
fn query_command_rejects_bad_syntax_and_unknown_tables() {
    let s = Scratch::new("querybad");
    let lake = make_lake(&s);
    let e = run_err(&["query", "project(; ids)", lake.to_str().unwrap()]);
    assert!(matches!(e, CliError::Usage(_)));
    let e = run_err(&["query", "ghost_table", lake.to_str().unwrap()]);
    assert!(matches!(e, CliError::Pipeline(_)));
}

#[test]
fn lake_build_stat_and_reclaim_from_snapshot() {
    let s = Scratch::new("lake-snap");
    let lake = make_lake(&s);
    let snap = s.path().join("lake.gentlake");

    let text = run_ok(&["lake", "build", lake.to_str().unwrap(), "--out", snap.to_str().unwrap()]);
    assert!(text.contains("tables:        3"), "{text}");
    assert!(snap.is_file(), "snapshot written");

    let text = run_ok(&["lake", "stat", snap.to_str().unwrap()]);
    assert!(text.contains("format version: 3"), "{text}");
    assert!(text.contains("tables:         3"), "{text}");
    assert!(text.contains("columns"), "{text}");

    // A freshly built snapshot fscks clean; a corrupted one is dirty and
    // --repair rewrites a clean base.
    let text = run_ok(&["lake", "fsck", snap.to_str().unwrap()]);
    assert!(text.contains("clean"), "{text}");
    let mut bytes = std::fs::read(&snap).unwrap();
    // Flip a byte in the middle of the first table's section: detectable
    // by fsck, recoverable by --repair (the table is quarantined).
    let header = gent_store::snapshot::stat(&snap).unwrap().header;
    let (dir, _) =
        gent_store::SectionDirV3::decode(&bytes, header.n_tables as usize, header.has_lsh())
            .unwrap();
    let t0 = &dir.tables[0].range;
    bytes[(t0.offset + t0.len / 2) as usize] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();
    let e = run_err(&["lake", "fsck", snap.to_str().unwrap()]);
    assert!(matches!(e, CliError::Pipeline(m) if m.contains("dirty")));
    let text = run_ok(&["lake", "fsck", snap.to_str().unwrap(), "--repair"]);
    assert!(text.contains("post-repair fsck: clean"), "{text}");
    // Rebuild the pristine snapshot for the reclaim comparison below.
    run_ok(&["lake", "build", lake.to_str().unwrap(), "--out", snap.to_str().unwrap()]);

    // Reclaiming against the snapshot matches reclaiming against the dir.
    let src = s.file("source.csv", SOURCE_CSV);
    let from_dir =
        run_ok(&["reclaim", src.to_str().unwrap(), lake.to_str().unwrap(), "--key", "id"]);
    let from_snap = run_ok(&[
        "reclaim",
        src.to_str().unwrap(),
        "--lake",
        snap.to_str().unwrap(),
        "--key",
        "id",
    ]);
    assert!(from_snap.contains("perfect:    true"), "{from_snap}");
    let metrics = |t: &str| {
        t.lines()
            .filter(|l| {
                ["EIS:", "recall:", "precision:", "originating"].iter().any(|k| l.contains(k))
            })
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(metrics(&from_dir), metrics(&from_snap), "snapshot diverges from dir");
}

#[test]
fn lake_build_from_suite_round_trips() {
    let s = Scratch::new("lake-suite");
    let snap = s.path().join("suite.gentlake");
    let text = run_ok(&[
        "lake",
        "build",
        "--suite",
        "tp-tr-small",
        "--seed",
        "3",
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(text.contains("suite `tp-tr-small`"), "{text}");
    let text = run_ok(&["lake", "stat", snap.to_str().unwrap()]);
    assert!(text.contains("tables:         32"), "{text}");
}

/// `lake fsck --repair` is the migration for a file an older build wrote
/// with the retired section: the file reclaims like a fresh build, fsck
/// calls it clean and names the section, and the repair rewrites exactly
/// the file `lake build` writes today.
#[test]
fn fsck_repair_drops_the_retired_section() {
    use gent_store::format::{FLAG_HAS_LSH, HEADER_LEN};
    use gent_table::binary::fold64;

    let s = Scratch::new("lake-retired");
    let lake = make_lake(&s);
    let built = s.path().join("built.gentlake");
    run_ok(&["lake", "build", lake.to_str().unwrap(), "--out", built.to_str().unwrap()]);

    // Forge the section as older builds laid it out: the flag, a column
    // count, opaque bytes after the index claimed by the third directory
    // entry, the meta checksum re-sealed.
    let mut bytes = fs::read(&built).unwrap();
    let n_tables = gent_store::snapshot::stat(&built).unwrap().header.n_tables as usize;
    let opaque = [0xA5u8; 40];
    bytes[10..12].copy_from_slice(&FLAG_HAS_LSH.to_le_bytes());
    bytes[40..44].copy_from_slice(&3u32.to_le_bytes());
    let entry = HEADER_LEN + 2 * 24;
    let words = [bytes.len() as u64, opaque.len() as u64, fold64(&opaque)];
    for (i, word) in words.into_iter().enumerate() {
        bytes[entry + 8 * i..entry + 8 * (i + 1)].copy_from_slice(&word.to_le_bytes());
    }
    let meta_end = HEADER_LEN + gent_store::SectionDirV3::encoded_len(n_tables);
    let meta = fold64(&bytes[..meta_end - 8]);
    bytes[meta_end - 8..meta_end].copy_from_slice(&meta.to_le_bytes());
    bytes.extend_from_slice(&opaque);
    let old = s.path().join("old.gentlake");
    fs::write(&old, &bytes).unwrap();

    let src = s.file("source.csv", SOURCE_CSV);
    let reclaim = |snap: &Path| {
        run_ok(&["reclaim", src.to_str().unwrap(), "--lake", snap.to_str().unwrap(), "--key", "id"])
    };
    assert_eq!(reclaim(&old), reclaim(&built));
    let text = run_ok(&["lake", "fsck", old.to_str().unwrap()]);
    assert!(text.contains("retired section: yes") && text.contains("clean"), "{text}");
    let text = run_ok(&["lake", "fsck", old.to_str().unwrap(), "--repair"]);
    assert!(text.contains("post-repair fsck: clean"), "{text}");
    assert!(fs::read(&old).unwrap() == fs::read(&built).unwrap(), "repair must equal a build");
}

/// `lake build` writes exactly the file the one in-memory builder writes:
/// the same CSVs, read in file-name order, through
/// `DataLake::from_tables` and `snapshot::write`.
#[test]
fn lake_build_writes_what_from_tables_writes() {
    let s = Scratch::new("lake-one-builder");
    let lake = make_lake(&s);
    fs::write(lake.join("gaps.csv"), "name,age\nSmith,\n,24\nSmith,27\n").unwrap();
    let built = s.path().join("cli.gentlake");
    run_ok(&["lake", "build", lake.to_str().unwrap(), "--out", built.to_str().unwrap()]);

    let tables = ["ages", "gaps", "ids", "noise"]
        .iter()
        .map(|n| gent_table::csv::read_csv_file(&lake.join(format!("{n}.csv"))).unwrap())
        .collect();
    let direct = s.path().join("direct.gentlake");
    gent_store::snapshot::write(&direct, &gent_discovery::DataLake::from_tables(tables)).unwrap();
    assert!(fs::read(&built).unwrap() == fs::read(&direct).unwrap(), "CLI build diverges");
}

#[test]
fn lake_usage_errors() {
    let e = run_err(&["lake"]);
    assert!(matches!(e, CliError::Usage(_)));
    let e = run_err(&["lake", "frobnicate"]);
    assert!(matches!(e, CliError::Usage(_)));
    let e = run_err(&["lake", "build", "somewhere"]);
    assert!(matches!(e, CliError::Usage(_)), "missing --out must be a usage error");
    let e = run_err(&["lake", "build", "somewhere", "--suite", "tp-tr-small", "--out", "x"]);
    assert!(matches!(e, CliError::Usage(_)), "dir + --suite must be rejected, not ignored");
    let e = run_err(&["lake", "build", "somewhere", "--out", "x", "--threads", "2"]);
    assert!(
        matches!(e, CliError::Usage(m) if m.contains("--threads")),
        "lake build has no --threads"
    );
    let e = run_err(&["lake", "stat", "/definitely/not/a/snapshot"]);
    assert!(matches!(e, CliError::Store(_)));

    // reclaim refuses both a lake dir and a snapshot.
    let s = Scratch::new("lake-both");
    let lake = make_lake(&s);
    let src = s.file("source.csv", SOURCE_CSV);
    let e = run_err(&[
        "reclaim",
        src.to_str().unwrap(),
        lake.to_str().unwrap(),
        "--lake",
        "whatever.gentlake",
    ]);
    assert!(matches!(e, CliError::Usage(_)));
}
