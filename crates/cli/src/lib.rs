//! # gent-cli — the `gent` command-line tool
//!
//! A thin, dependency-free CLI over the Gen-T workspace so a data scientist
//! can run table reclamation on directories of CSV files:
//!
//! ```text
//! gent stats   <lake-dir>
//! gent reclaim <source.csv> <lake-dir> [--key a,b] [--out out.csv]
//!              [--explain] [--keyless] [--normalize]
//! gent verify  <claimed.csv> <lake-dir> [--key a,b] [--threshold 1.0]
//! gent generate <out-dir> [--benchmark tp-tr-small] [--seed 7]
//! ```
//!
//! * `stats` — Table-I-style statistics for a lake directory,
//! * `reclaim` — run the full pipeline; print metrics (EIS, recall,
//!   precision, instance divergence), the originating tables, and — with
//!   `--explain` — the per-tuple explanation from `gent-explain`,
//! * `verify` — the §VII generative-AI verification use case: a verdict of
//!   `VERIFIED` / `PARTIALLY VERIFIED` / `CONTRADICTED` with cell counts,
//! * `generate` — materialise one of the paper's benchmark lakes as CSVs
//!   (lake tables plus a `sources/` directory of reclamation targets),
//! * `lake build` / `lake stat` — persist a lake with its indexes as a
//!   `*.gentlake` snapshot, and summarise one,
//! * `serve` — open a snapshot warm and run the `gent-serve` HTTP daemon,
//!   answering reclamation requests against the shared lake until killed.
//!
//! All command logic lives in [`run`] (writing to any `io::Write`) so the
//! binary is testable without spawning processes.

#![warn(missing_docs)]

pub mod args;
pub mod error;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use gent_core::{GenT, GenTConfig};
use gent_discovery::DataLake;
use gent_explain::{explain, verify_table, VerificationVerdict, VerifyConfig};
use gent_table::key::ensure_key;
use gent_table::stats::lake_stats;
use gent_table::{csv, NormalizeConfig, Table};

use args::ParsedArgs;
pub use error::CliError;

/// Top-level usage text.
pub const USAGE: &str = "\
gent — table reclamation in data lakes (Gen-T, ICDE 2024)

USAGE:
  gent stats    <lake-dir>
  gent reclaim  <source.csv> <lake-dir | --lake snap.gentlake> [--key a,b] [--out out.csv]
                [--explain] [--keyless] [--normalize]
  gent verify   <claimed.csv> <lake-dir> [--key a,b] [--threshold 1.0]
  gent query    '<expr>' <lake-dir> [--out out.csv] [--rewrite]
  gent generate <out-dir> [--benchmark tp-tr-small|tp-tr-med|t2d-gold] [--seed 7]
  gent lake     build <lake-dir> --out snap.gentlake
                build --suite tp-tr-small --out snap.gentlake [--seed 7]
                stat  <snap.gentlake>
                fsck  <snap.gentlake> [--repair]
  gent serve    --lake [name=]snap.gentlake [--lake ...] [--addr 127.0.0.1:7744]
                [--threads N] [--queue-depth N] [--eager] [--degraded]
                [--log-json] [--log-level error|warn|info|debug|trace|off]
  gent admin    reload <snap.gentlake> [--addr 127.0.0.1:7744] [--lake name]
  gent bench    soak [--duration 60s] [--seed 8] [--clients 4] [--hostile 2]
                [--keep-alive 2] [--reload-interval 250ms] [--threads 4]
                [--no-faults] [--no-ingest] [--addr host:port]
  gent help

LOGGING:
  serve and reclaim emit structured JSON log lines on stderr. --log-json
  turns them on at info level; --log-level picks the threshold explicitly
  (the GENT_LOG environment variable is the fallback, default warn).

A lake snapshot (`lake build`) persists the tables together with the
inverted value index; `reclaim --lake` and
`lake stat` reopen it without rebuilding anything, and `serve` keeps it
open: a daemon answering POST /reclaim, GET /lakes, GET /lake/stat and
GET /healthz against the warm lakes (JSON in, JSON out; see gent-serve
and docs/serving.md; many sources are many concurrent POST /reclaims).
`--lake` repeats to host many
snapshots behind one address — requests route with a `lake` field, the
first lake is the default — and `gent admin reload` swaps a lake's
snapshot atomically without dropping in-flight requests (retrying with
jittered backoff on 503/429 per docs/robustness.md). POST /admin/ingest
appends tables to a served snapshot as crash-safe delta frames and makes
them live without a restart; `gent lake fsck` verifies every section and
delta frame of a snapshot (--repair rewrites a clean base, quarantining
unrecoverable tables), and `serve --degraded` boots a damaged snapshot
anyway — corrupt tables answer 410, the rest keep serving. `gent bench
soak` boots an in-process daemon (or, with --addr, storms one you
already run) with a seeded client mix — retrying clients, keep-alive
pools, hostile frames, concurrent reloads, ingest churn (--no-ingest
disables) — under injected faults (on by default; --no-faults disables;
external daemons get neither faults nor reloads), failing on any
robustness-contract violation. Snapshots open
zero-copy and lazy — table cells decode on first touch; `serve --eager`
pre-decodes every lake at boot. The accept queue is bounded
(`--queue-depth`, default 128); overload sheds with 429 + Retry-After.

QUERY SYNTAX (SPJU):
  project(cols; q)  select(pred; q)  join(q, q)  leftjoin  fulljoin  cross
  union(q, q)  outerunion(q, q)  subsume(q)  complement(q)  <table-name>
  predicates: c = 1, c != \"x\", c <= 3, c in (1,2), c is null, and/or/not(...)
";

/// Run the CLI with `args` (excluding the program name), writing human
/// output to `out`. Returns `Ok(())` on success.
pub fn run<W: Write>(args: &[String], out: &mut W) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        write!(out, "{USAGE}")?;
        return Err(CliError::Usage("no command given".into()));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "stats" => cmd_stats(rest, out),
        "reclaim" => cmd_reclaim(rest, out),
        "verify" => cmd_verify(rest, out),
        "query" => cmd_query(rest, out),
        "generate" => cmd_generate(rest, out),
        "lake" => cmd_lake(rest, out),
        "serve" => cmd_serve(rest, out),
        "admin" => cmd_admin(rest, out),
        "bench" => cmd_bench(rest, out),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    }
}

/// Apply `--log-json` / `--log-level <name>` to the process-wide logger.
///
/// `--log-level` wins and accepts the same names as `GENT_LOG` (plus `off`);
/// `--log-json` alone enables info-level JSON lines — without either flag
/// the `GENT_LOG` default (warn) stands.
fn apply_log_flags(p: &ParsedArgs) -> Result<(), CliError> {
    match p.option("log-level") {
        Some(name) => {
            let level = gent_obs::Level::parse(name).ok_or_else(|| {
                CliError::Usage(format!(
                    "unknown --log-level `{name}` (try error, warn, info, debug, trace, off)"
                ))
            })?;
            gent_obs::set_level(level);
        }
        None if p.flag("log-json") => gent_obs::set_level(Some(gent_obs::Level::Info)),
        None => {}
    }
    Ok(())
}

/// Load every `.csv` in `dir` (sorted by filename for determinism).
fn load_lake_dir(dir: &Path) -> Result<Vec<Table>, CliError> {
    if !dir.is_dir() {
        return Err(CliError::Usage(format!("`{}` is not a directory", dir.display())));
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().map(|x| x == "csv").unwrap_or(false))
        .collect();
    paths.sort();
    let mut tables = Vec::with_capacity(paths.len());
    for p in paths {
        tables.push(csv::read_csv_file(&p)?);
    }
    Ok(tables)
}

/// Load a source CSV and install its key: `--key a,b` wins, else mine one.
fn load_source(path: &Path, key: Option<&str>) -> Result<Table, CliError> {
    let mut t = csv::read_csv_file(path)?;
    match key {
        Some(spec) => {
            let cols: Vec<&str> =
                spec.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
            if cols.is_empty() {
                return Err(CliError::Usage("--key lists no columns".into()));
            }
            t.schema_mut().set_key(cols.iter().copied()).map_err(CliError::Table)?;
        }
        None => {
            if !ensure_key(&mut t) {
                return Err(CliError::Pipeline(format!(
                    "no key column found in `{}`; pass one with --key",
                    path.display()
                )));
            }
        }
    }
    Ok(t)
}

fn cmd_stats(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, &[], &[])?;
    let dir = Path::new(p.required(0, "lake-dir")?);
    let tables = load_lake_dir(dir)?;
    let s = lake_stats(&tables);
    writeln!(out, "lake: {}", dir.display())?;
    writeln!(out, "  tables:    {}", s.tables)?;
    writeln!(out, "  columns:   {}", s.total_cols)?;
    writeln!(out, "  avg rows:  {:.1}", s.avg_rows)?;
    writeln!(out, "  size (MB): {:.2}", s.size_mb)?;
    Ok(())
}

fn cmd_reclaim(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let p = ParsedArgs::parse(
        args,
        &["key", "out", "lake", "log-level"],
        &["explain", "keyless", "normalize", "log-json"],
    )?;
    apply_log_flags(&p)?;
    let source_path = Path::new(p.required(0, "source.csv")?);

    let lake = match p.option("lake") {
        Some(snapshot) => {
            if p.positional(1).is_some() {
                return Err(CliError::Usage(
                    "pass either a <lake-dir> or --lake <snapshot>, not both".into(),
                ));
            }
            gent_store::snapshot::load(Path::new(snapshot))?.lake
        }
        None => DataLake::from_tables(load_lake_dir(Path::new(p.required(1, "lake-dir")?))?),
    };
    let gen_t = GenT::new(GenTConfig::default());

    let (source, result, strategy_note) = if p.flag("keyless") {
        let source = csv::read_csv_file(source_path)?;
        let outcome =
            gen_t.reclaim_keyless(&source, &lake).map_err(|e| CliError::Pipeline(e.to_string()))?;
        let note = format!(
            "key strategy: {:?}; keyless similarity: {:.3}",
            outcome.strategy, outcome.keyless_similarity
        );
        // Re-load with the same strategy for explanation alignment.
        let mut prepared = source.clone();
        let _ = ensure_key(&mut prepared);
        (prepared, outcome.result, Some(note))
    } else {
        let source = load_source(source_path, p.option("key"))?;
        let result = if p.flag("normalize") {
            gen_t.reclaim_normalized(&source, &lake, &NormalizeConfig::default())
        } else {
            gen_t.reclaim(&source, &lake)
        }
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
        (source, result, None)
    };

    writeln!(out, "reclaimed `{}` from {} lake tables", source.name(), lake.len())?;
    if let Some(note) = strategy_note {
        writeln!(out, "  {note}")?;
    }
    writeln!(out, "  EIS:        {:.3}", result.eis)?;
    writeln!(out, "  recall:     {:.3}", result.report.recall)?;
    writeln!(out, "  precision:  {:.3}", result.report.precision)?;
    writeln!(out, "  inst-div:   {:.3}", result.report.inst_div)?;
    writeln!(out, "  perfect:    {}", result.report.perfect)?;
    writeln!(out, "  originating tables ({}):", result.originating.len())?;
    for t in &result.originating {
        writeln!(out, "    - {} ({} rows)", t.name(), t.n_rows())?;
    }
    if p.flag("explain") && !p.flag("normalize") {
        let e = explain(&source, &result.reclaimed, &result.originating);
        write!(out, "{}", e.render())?;
    }
    if let Some(path) = p.option("out") {
        csv::write_csv_file(&result.reclaimed, Path::new(path))?;
        writeln!(out, "  wrote reclaimed table to {path}")?;
    }
    Ok(())
}

fn cmd_verify(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, &["key", "threshold"], &[])?;
    let claimed_path = Path::new(p.required(0, "claimed.csv")?);
    let lake_dir = Path::new(p.required(1, "lake-dir")?);
    let threshold: f64 = p.option_parse("threshold")?.unwrap_or(1.0);
    if !(0.0..=1.0).contains(&threshold) {
        return Err(CliError::Usage("--threshold must be in [0,1]".into()));
    }

    let claimed = load_source(claimed_path, p.option("key"))?;
    let lake = DataLake::from_tables(load_lake_dir(lake_dir)?);
    let result =
        GenT::default().reclaim(&claimed, &lake).map_err(|e| CliError::Pipeline(e.to_string()))?;
    let cfg = VerifyConfig { verified_threshold: threshold, contradiction_tolerance: 0.0 };
    let (verdict, explanation) =
        verify_table(&claimed, &result.reclaimed, &result.originating, &cfg);
    match &verdict {
        VerificationVerdict::Verified { coverage } => {
            writeln!(out, "VERIFIED — {:.1}% of cells confirmed by the lake", coverage * 100.0)?;
        }
        VerificationVerdict::PartiallyVerified { coverage, unconfirmed_cells, missing_tuples } => {
            writeln!(
                out,
                "PARTIALLY VERIFIED — {:.1}% confirmed; {} cell(s) unconfirmed, {} tuple(s) not derivable",
                coverage * 100.0, unconfirmed_cells, missing_tuples
            )?;
        }
        VerificationVerdict::Contradicted { coverage, contradicted_cells } => {
            writeln!(
                out,
                "CONTRADICTED — the lake disagrees on {} cell(s) ({:.1}% confirmed)",
                contradicted_cells,
                coverage * 100.0
            )?;
        }
    }
    write!(out, "{}", explanation.render())?;
    Ok(())
}

fn cmd_query(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use gent_query::{parse_query, rewrite, Catalog};
    let p = ParsedArgs::parse(args, &["out"], &["rewrite"])?;
    let expr = p.required(0, "expr")?;
    let lake_dir = Path::new(p.required(1, "lake-dir")?);

    let q = parse_query(expr).map_err(|e| CliError::Usage(e.to_string()))?;
    let catalog = Catalog::from_tables(load_lake_dir(lake_dir)?);
    writeln!(out, "query: {q}")?;
    if p.flag("rewrite") {
        let rep = rewrite(&q, &catalog).map_err(|e| CliError::Pipeline(e.to_string()))?;
        writeln!(out, "Theorem 8 form: {rep}")?;
    }
    let result = q.eval(&catalog).map_err(|e| CliError::Pipeline(e.to_string()))?;
    writeln!(out, "{result}")?;
    if let Some(path) = p.option("out") {
        csv::write_csv_file(&result, Path::new(path))?;
        writeln!(out, "wrote {} rows to {path}", result.n_rows())?;
    }
    Ok(())
}

/// Map a benchmark name to its [`gent_datagen::suite::BenchmarkId`].
fn parse_benchmark_id(name: &str) -> Result<gent_datagen::suite::BenchmarkId, CliError> {
    use gent_datagen::suite::BenchmarkId;
    match name {
        "tp-tr-small" => Ok(BenchmarkId::TpTrSmall),
        "tp-tr-med" => Ok(BenchmarkId::TpTrMed),
        "tp-tr-large" => Ok(BenchmarkId::TpTrLarge),
        "santos-large" => Ok(BenchmarkId::SantosLargeTpTrMed),
        "t2d-gold" => Ok(BenchmarkId::T2dGold),
        "wdc-t2d" => Ok(BenchmarkId::WdcT2dGold),
        other => Err(CliError::Usage(format!(
            "unknown benchmark `{other}` (try tp-tr-small, tp-tr-med, tp-tr-large, santos-large, t2d-gold, wdc-t2d)"
        ))),
    }
}

fn cmd_generate(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use gent_datagen::suite::{build, SuiteConfig};
    let p = ParsedArgs::parse(args, &["benchmark", "seed"], &[])?;
    let out_dir = PathBuf::from(p.required(0, "out-dir")?);
    let bench = parse_benchmark_id(p.option("benchmark").unwrap_or("tp-tr-small"))?;
    let mut cfg = SuiteConfig::default();
    if let Some(seed) = p.option_parse::<u64>("seed")? {
        cfg.seed = seed;
    }
    let b = build(bench, &cfg);

    let lake_dir = out_dir.join("lake");
    let src_dir = out_dir.join("sources");
    fs::create_dir_all(&lake_dir)?;
    fs::create_dir_all(&src_dir)?;
    for t in &b.lake_tables {
        csv::write_csv_file(t, &lake_dir.join(format!("{}.csv", sanitise(t.name()))))?;
    }
    for c in &b.cases {
        csv::write_csv_file(&c.source, &src_dir.join(format!("S{}.csv", c.id)))?;
    }
    writeln!(
        out,
        "generated `{}`: {} lake tables → {}, {} sources → {}",
        b.id.label(),
        b.lake_tables.len(),
        lake_dir.display(),
        b.cases.len(),
        src_dir.display()
    )?;
    Ok(())
}

fn cmd_lake(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let Some(sub) = args.first() else {
        return Err(CliError::Usage("lake needs a subcommand: build | stat".into()));
    };
    let rest = &args[1..];
    match sub.as_str() {
        "build" => cmd_lake_build(rest, out),
        "stat" => cmd_lake_stat(rest, out),
        "fsck" => cmd_lake_fsck(rest, out),
        other => Err(CliError::Usage(format!(
            "unknown lake subcommand `{other}` (try build, stat, fsck)"
        ))),
    }
}

/// `lake build`: build a CSV directory (or a generated benchmark suite)
/// into a lake once, with [`DataLake::from_tables`], and persist the lake
/// plus its indexes.
fn cmd_lake_build(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use gent_store::snapshot;
    use std::time::Instant;

    let p = ParsedArgs::parse(args, &["out", "suite", "seed"], &[])?;
    let out_path = PathBuf::from(
        p.option("out")
            .ok_or_else(|| CliError::Usage("lake build requires --out <snapshot>".into()))?,
    );

    let t0 = Instant::now();
    let (tables, origin) = match p.option("suite") {
        Some(suite) => {
            use gent_datagen::suite::{build, SuiteConfig};
            if p.positional(0).is_some() {
                return Err(CliError::Usage(
                    "pass either a <lake-dir> or --suite <benchmark>, not both".into(),
                ));
            }
            let bench = parse_benchmark_id(suite)?;
            let mut cfg = SuiteConfig::default();
            if let Some(seed) = p.option_parse::<u64>("seed")? {
                cfg.seed = seed;
            }
            (build(bench, &cfg).lake_tables, format!("suite `{suite}`"))
        }
        None => {
            let dir = Path::new(p.required(0, "lake-dir")?);
            (load_lake_dir(dir)?, format!("`{}`", dir.display()))
        }
    };
    let load_time = t0.elapsed();

    let t1 = Instant::now();
    let lake = DataLake::from_tables(tables);
    let ingest_time = t1.elapsed();
    snapshot::write(&out_path, &lake)?;

    let s = snapshot::stat(&out_path)?;
    writeln!(out, "built lake from {origin}")?;
    writeln!(out, "  tables:        {}", s.header.n_tables)?;
    writeln!(out, "  rows:          {}", s.header.total_rows)?;
    writeln!(out, "  index values:  {}", s.header.n_index_entries)?;
    writeln!(out, "  snapshot:      {} ({} bytes)", out_path.display(), s.file_bytes)?;
    writeln!(
        out,
        "  timing:        load {:.3}s, ingest+index {:.3}s",
        load_time.as_secs_f64(),
        ingest_time.as_secs_f64()
    )?;
    Ok(())
}

/// `lake stat`: summarise a snapshot from its header (no body read).
fn cmd_lake_stat(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use gent_store::snapshot;
    let p = ParsedArgs::parse(args, &[], &[])?;
    let path = Path::new(p.required(0, "snapshot")?);
    let s = snapshot::stat(path)?;
    writeln!(out, "snapshot: {}", path.display())?;
    writeln!(out, "  format version: {}", s.header.version)?;
    writeln!(out, "  tables:         {}", s.header.n_tables)?;
    writeln!(out, "  rows:           {}", s.header.total_rows)?;
    writeln!(out, "  columns:        {}", s.header.total_cols)?;
    writeln!(out, "  index values:   {}", s.header.n_index_entries)?;
    writeln!(out, "  size (bytes):   {}", s.file_bytes)?;
    Ok(())
}

/// `lake fsck`: verify a snapshot offline — header, directory, every
/// per-section checksum, and every delta frame. Prints one line per
/// problem and exits nonzero on a dirty file; `--repair` rewrites a clean
/// compacted base, quarantining tables whose sections cannot be recovered
/// (their names are printed so the operator knows what to restore from a
/// replica). A clean file carrying the retired section an older build
/// wrote is rewritten by `--repair` too, without it.
fn cmd_lake_fsck(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let p = ParsedArgs::parse(args, &[], &["repair"])?;
    let path = Path::new(p.required(0, "snapshot")?);
    let report = gent_store::fsck(path)?;
    writeln!(out, "fsck: {}", path.display())?;
    writeln!(out, "  format version: {}", report.version)?;
    writeln!(out, "  tables:         {}", report.n_tables)?;
    writeln!(out, "  delta frames:   {}", report.n_frames)?;
    if report.torn_tail {
        writeln!(out, "  torn tail:      yes (an interrupted append; dropped on open)")?;
    }
    if report.carries_retired_section {
        writeln!(out, "  retired section: yes (never read; --repair drops it)")?;
    }
    for problem in &report.problems {
        writeln!(out, "  PROBLEM {}: {}", problem.what, problem.detail)?;
    }
    if report.is_clean() {
        writeln!(out, "  clean")?;
        if !(p.flag("repair") && report.carries_retired_section) {
            return Ok(());
        }
    } else if !p.flag("repair") {
        return Err(CliError::Pipeline(format!(
            "snapshot is dirty: {} problem(s); re-run with --repair to rewrite a clean base",
            report.problems.len()
        )));
    }
    let quarantined = gent_store::fsck_repair(path)?;
    if quarantined.is_empty() {
        writeln!(out, "  repaired: clean base rewritten, no data lost")?;
    } else {
        writeln!(
            out,
            "  repaired: clean base rewritten; {} table(s) quarantined (unrecoverable):",
            quarantined.len()
        )?;
        for q in &quarantined {
            writeln!(out, "    - {} ({})", q.name, q.reason)?;
        }
    }
    let after = gent_store::fsck(path)?;
    if !after.is_clean() {
        return Err(CliError::Pipeline("repair left the snapshot dirty".into()));
    }
    writeln!(out, "  post-repair fsck: clean")?;
    Ok(())
}

/// `gent serve`: open one or more snapshots warm and answer reclamation
/// requests against them until killed. Each lake (tables + FrozenIndex)
/// is opened exactly once and shared by every worker thread.
/// Opens are *lazy* — no table cells decode until a reclaim touches them;
/// `--eager` pre-decodes everything (in parallel across `--threads`) so
/// the first requests pay no decode either.
///
/// `--lake` is repeatable and takes either `name=path` or a bare path
/// (the routing name then derives from the file stem). The first lake
/// registered is the default route for requests that name none.
fn cmd_serve(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use gent_serve::{Router, ServeConfig, Server};
    use std::time::Instant;

    let p = ParsedArgs::parse(
        args,
        &["lake", "addr", "threads", "queue-depth", "log-level"],
        &["eager", "degraded", "log-json"],
    )?;
    apply_log_flags(&p)?;
    let lake_specs = p.options_all("lake");
    if lake_specs.is_empty() {
        return Err(CliError::Usage("serve requires at least one --lake <snapshot>".into()));
    }
    let threads = p.option_parse::<usize>("threads")?.unwrap_or(0);
    let decode_threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    };
    let degraded = p.flag("degraded");

    let mut builder = Router::builder(GenTConfig::default());
    builder.set_degraded(degraded);
    for spec in &lake_specs {
        let (name, snap) = match spec.split_once('=') {
            Some((name, path)) => (name.to_string(), PathBuf::from(path)),
            None => (gent_store::default_lake_name(Path::new(spec)), PathBuf::from(spec)),
        };
        let t0 = Instant::now();
        let loaded = if degraded {
            gent_store::load_degraded(&snap)?
        } else {
            gent_store::snapshot::load(&snap)?
        };
        let open_time = t0.elapsed();

        let mut warmup_note = String::new();
        if p.flag("eager") {
            let t1 = Instant::now();
            loaded.lake.decode_all(decode_threads).map_err(gent_store::StoreError::from)?;
            warmup_note = format!(", pre-decoded in {:.3}s", t1.elapsed().as_secs_f64());
        }
        if !loaded.quarantined.is_empty() {
            warmup_note.push_str(&format!(", {} table(s) QUARANTINED", loaded.quarantined.len()));
            for q in &loaded.quarantined {
                writeln!(out, "  quarantined {}: {}", q.name, q.reason)?;
            }
        }
        writeln!(
            out,
            "lake {name}: {} ({} tables, opened in {:.3}s{})",
            snap.display(),
            loaded.lake.len(),
            open_time.as_secs_f64(),
            warmup_note,
        )?;
        builder.add_loaded_snapshot(&name, loaded, &snap).map_err(CliError::Usage)?;
    }

    let cfg = ServeConfig {
        addr: p.option("addr").unwrap_or("127.0.0.1:7744").to_string(),
        threads,
        queue_depth: p.option_parse::<usize>("queue-depth")?.unwrap_or(0),
        ..ServeConfig::default()
    };
    let router = builder.build().map_err(CliError::Usage)?;
    let names = router.lake_names().join(", ");
    let server = Server::bind_router(&cfg, router).map_err(CliError::Io)?;
    writeln!(
        out,
        "serving {} lake(s) [{}] on http://{}",
        lake_specs.len(),
        names,
        server.local_addr()?
    )?;
    out.flush()?;
    server.run().map_err(CliError::Io)
}

/// `gent admin <subcommand>`: operator actions against a running daemon.
fn cmd_admin(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("reload") => cmd_admin_reload(&args[1..], out),
        Some(other) => Err(CliError::Usage(format!("unknown admin subcommand `{other}`"))),
        None => Err(CliError::Usage("admin requires a subcommand (reload)".into())),
    }
}

/// `gent admin reload <snapshot>`: ask a running daemon to atomically swap
/// one lake's snapshot via `POST /admin/reload`. The daemon reads the file
/// itself, so the path is resolved to an absolute one before sending. The
/// request rides [`gent_serve::RetryClient`]: transient refusals (a
/// draining daemon's 503, an overloaded daemon's 429, a broken socket)
/// are retried with jittered backoff instead of failing the operator.
fn cmd_admin_reload(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    use gent_serve::{Json, RetryClient};
    use std::net::ToSocketAddrs;

    let p = ParsedArgs::parse(args, &["addr", "lake"], &[])?;
    let snap = PathBuf::from(p.required(0, "snapshot")?);
    let snap = std::fs::canonicalize(&snap).unwrap_or(snap);
    let addr_spec = p.option("addr").unwrap_or("127.0.0.1:7744");
    let addr = addr_spec
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| CliError::Usage(format!("`{addr_spec}` resolves to no address")))?;

    let mut fields = Vec::new();
    if let Some(lake) = p.option("lake") {
        fields.push(("lake".to_string(), Json::str(lake)));
    }
    fields.push(("path".to_string(), Json::str(snap.display().to_string())));
    let body = Json::Object(fields).render();

    let mut client = RetryClient::new(addr);
    let response = client.post("/admin/reload", &body)?;
    writeln!(out, "{}", response.body)?;
    if response.attempts > 1 {
        writeln!(out, "(succeeded on attempt {})", response.attempts)?;
    }
    if let Some(generation) = response.generation {
        writeln!(out, "(lake generation is now {generation})")?;
    }
    out.flush()?;
    if response.status != 200 {
        return Err(CliError::Pipeline(format!("reload failed with HTTP {}", response.status)));
    }
    Ok(())
}

/// `gent bench <subcommand>`: long-running robustness harnesses.
fn cmd_bench(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("soak") => cmd_bench_soak(&args[1..], out),
        Some(other) => Err(CliError::Usage(format!("unknown bench subcommand `{other}`"))),
        None => Err(CliError::Usage("bench requires a subcommand (soak)".into())),
    }
}

/// Parse `90`, `90s`, `1500ms` or `2m` into a [`std::time::Duration`].
fn parse_duration(spec: &str) -> Result<std::time::Duration, CliError> {
    use std::time::Duration;
    let bad = || CliError::Usage(format!("bad duration `{spec}` (try 60s, 1500ms, 2m)"));
    let (digits, unit) = match spec.find(|c: char| !c.is_ascii_digit()) {
        Some(at) => spec.split_at(at),
        None => (spec, "s"),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    match unit {
        "ms" => Ok(Duration::from_millis(n)),
        "s" => Ok(Duration::from_secs(n)),
        "m" => Ok(Duration::from_secs(n * 60)),
        _ => Err(bad()),
    }
}

/// `gent bench soak`: boot an in-process daemon and storm it with the
/// seeded client mix of `gent_bench::soak` — fault injection on by
/// default — then print the report and fail on any contract violation.
fn cmd_bench_soak(args: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let p = ParsedArgs::parse(
        args,
        &[
            "duration",
            "seed",
            "clients",
            "hostile",
            "keep-alive",
            "reload-interval",
            "threads",
            "addr",
        ],
        &["no-faults", "no-ingest"],
    )?;
    let mut cfg = gent_bench::SoakConfig::default();
    if let Some(spec) = p.option("duration") {
        cfg.duration = parse_duration(spec)?;
    }
    if let Some(spec) = p.option("reload-interval") {
        cfg.reload_interval = parse_duration(spec)?;
    }
    if let Some(seed) = p.option_parse::<u64>("seed")? {
        cfg.seed = seed;
    }
    if let Some(n) = p.option_parse::<usize>("clients")? {
        cfg.clients = n;
    }
    if let Some(n) = p.option_parse::<usize>("hostile")? {
        cfg.hostile = n;
    }
    if let Some(n) = p.option_parse::<usize>("keep-alive")? {
        cfg.keep_alive = n;
    }
    if let Some(n) = p.option_parse::<usize>("threads")? {
        cfg.threads = n;
    }
    cfg.faults = !p.flag("no-faults");
    cfg.ingest = !p.flag("no-ingest");
    cfg.addr = p.option("addr").map(str::to_string);

    let target = match &cfg.addr {
        Some(addr) => format!("the daemon at {addr}"),
        None => "an in-process daemon".to_string(),
    };
    writeln!(
        out,
        "soaking {target} for {:.0?} (seed {}, {} clients, {} hostile, {} keep-alive, faults {}, ingest {})",
        cfg.duration,
        cfg.seed,
        cfg.clients,
        cfg.hostile,
        cfg.keep_alive,
        if cfg.faults && cfg.addr.is_none() { "on" } else { "off" },
        if cfg.ingest { "on" } else { "off" },
    )?;
    out.flush()?;
    match gent_bench::soak::run(&cfg) {
        Ok(report) => {
            write!(out, "{}", report.render())?;
            writeln!(out, "soak PASSED")?;
            Ok(())
        }
        Err(report) => {
            write!(out, "{}", report.render())?;
            Err(CliError::Pipeline(format!(
                "soak FAILED with {} violation(s)",
                report.violations.len()
            )))
        }
    }
}

/// Make a table name filesystem-safe.
fn sanitise(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitise_replaces_separators() {
        assert_eq!(sanitise("a/b c#2"), "a_b_c_2");
        assert_eq!(sanitise("plain-name_1"), "plain-name_1");
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let mut out = Vec::new();
        let e = run(&["frobnicate".to_string()], &mut out).unwrap_err();
        assert!(matches!(e, CliError::Usage(_)));
    }

    #[test]
    fn help_prints_usage() {
        let mut out = Vec::new();
        run(&["help".to_string()], &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("gent reclaim"));
    }

    #[test]
    fn log_flags_set_level_and_reject_unknown_names() {
        let p = ParsedArgs::parse(
            &["--log-level".to_string(), "bogus".to_string()],
            &["log-level"],
            &["log-json"],
        )
        .unwrap();
        let e = apply_log_flags(&p).unwrap_err();
        assert!(matches!(e, CliError::Usage(m) if m.contains("bogus")));

        let p =
            ParsedArgs::parse(&["--log-json".to_string()], &["log-level"], &["log-json"]).unwrap();
        apply_log_flags(&p).unwrap();
        assert!(gent_obs::log_enabled(gent_obs::Level::Info));

        let p = ParsedArgs::parse(
            &["--log-level".to_string(), "off".to_string()],
            &["log-level"],
            &["log-json"],
        )
        .unwrap();
        apply_log_flags(&p).unwrap();
        assert!(!gent_obs::log_enabled(gent_obs::Level::Error));
        gent_obs::set_level(Some(gent_obs::Level::Warn));
    }

    #[test]
    fn durations_parse_with_and_without_units() {
        use std::time::Duration;
        assert_eq!(parse_duration("60s").unwrap(), Duration::from_secs(60));
        assert_eq!(parse_duration("90").unwrap(), Duration::from_secs(90));
        assert_eq!(parse_duration("1500ms").unwrap(), Duration::from_millis(1500));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert!(parse_duration("2h").is_err());
        assert!(parse_duration("").is_err());
        assert!(parse_duration("ms").is_err());
    }

    #[test]
    fn bench_requires_a_known_subcommand() {
        let mut out = Vec::new();
        let e = run(&["bench".to_string()], &mut out).unwrap_err();
        assert!(matches!(e, CliError::Usage(m) if m.contains("soak")));
        let e = run(&["bench".to_string(), "sprint".to_string()], &mut out).unwrap_err();
        assert!(matches!(e, CliError::Usage(m) if m.contains("sprint")));
    }

    #[test]
    fn no_command_prints_usage_and_errors() {
        let mut out = Vec::new();
        assert!(run(&[], &mut out).is_err());
        assert!(String::from_utf8(out).unwrap().contains("USAGE"));
    }
}
