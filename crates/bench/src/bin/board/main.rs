//! The board: one command, four socket-level workloads, every number.
//!
//! ```text
//! cargo run --release -p gent-bench --bin board -- --seed 7            # all four, end to end
//! cargo run --release -p gent-bench --bin board -- --seed 7 --trace    # … plus the per-layer run
//! cargo run --release -p gent-bench --bin board -- --aa 10             # A/A: spreads vs bounds
//! board --workload wdc_web --seed 3 --seconds 10 --trace 0             # one run, as the driver asks
//! ```
//!
//! See `README.md` in this directory for the workloads, the metrics and how
//! to read the output.

mod check;
mod client;
mod daemon;
mod metrics;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use gent_serve::Json;

use crate::metrics::{Better, PER_LAYER};
use crate::run::{Options, Outcome};
use crate::workload::{Spec, SPECS};

/// Closed-loop clients of the timed phase. Pinned, like the daemon's
/// workers, to the core count of the box the bounds were taken on.
pub const CLIENTS: usize = 2;

/// Nominal seconds of timed phase one unit of run length buys.
const SECONDS_PER_UNIT: u64 = 10;

const USAGE: &str = "usage: board [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--out PATH] [--aa N]
  --workload NAME  run one of tptr_med, santos_med, wdc_web, ingest_mix (default: all four)
  --seed N         workload seed (default 7): noise lake, web corpus, ingested tables
  --seconds S      nominal timed-phase length; buys whole units of 10 s (default 10)
  --trace 0|1      0: end-to-end run, tracing off (default); 1: the traced per-layer run;
                   bare --trace: both, one after the other
  --smoke          tiny lakes, one pass: seconds instead of minutes (what the tests run)
  --out PATH       results JSON (default target/board/results.json); the trace goes beside it
  --aa N           run everything N times (seeds N apart) and print median, quartiles and
                   spread of every end-to-end metric against its bound";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    EndToEnd,
    Traced,
    Both,
}

#[derive(Debug)]
struct Cli {
    workloads: Vec<&'static Spec>,
    /// Exactly one workload was named: print the driver's result line.
    single: bool,
    seed: u64,
    units: usize,
    mode: Mode,
    smoke: bool,
    out: PathBuf,
    aa: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: SPECS.iter().collect(),
        single: false,
        seed: workload::DEFAULT_SEED,
        units: 1,
        mode: Mode::EndToEnd,
        smoke: false,
        out: PathBuf::from("target/board/results.json"),
        aa: 0,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                let spec =
                    workload::spec(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
                cli.workloads = vec![spec];
                cli.single = true;
            }
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v.parse().map_err(|_| format!("--seed: `{v}` is not a number"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: u64 = v.parse().map_err(|_| format!("--seconds: `{v}` is not a number"))?;
                cli.units =
                    usize::try_from((s / SECONDS_PER_UNIT).max(1)).map_err(|e| e.to_string())?;
            }
            "--aa" => {
                let v = value("--aa")?;
                cli.aa = v.parse().map_err(|_| format!("--aa: `{v}` is not a number"))?;
                if cli.aa < 2 {
                    return Err("--aa needs at least 2 runs".into());
                }
            }
            "--out" => cli.out = PathBuf::from(value("--out")?),
            "--smoke" => cli.smoke = true,
            "--trace" => {
                cli.mode = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Mode::EndToEnd,
                    Some("1") => Mode::Traced,
                    _ => Mode::Both,
                };
                if cli.mode != Mode::Both {
                    it.next();
                }
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn header(cli: &Cli) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "board: seed {}, {} unit(s) of {SECONDS_PER_UNIT} s{}; nproc {nproc}, {CLIENTS} closed-loop clients, {} daemon workers",
        cli.seed,
        cli.units,
        if cli.smoke { ", smoke scale" } else { "" },
        daemon::WORKERS,
    );
    if CLIENTS + daemon::WORKERS > 2 * nproc {
        println!(
            "warning: {} client and worker threads on {nproc} core(s): they will queue for CPU and every latency below includes that wait",
            CLIENTS + daemon::WORKERS
        );
    }
}

/// Unit, direction and — for an end-to-end metric its bound, for a layer
/// metric what it is predicted to move — of a figure, from the catalogue.
fn describe(name: &str) -> (&'static str, Better, String) {
    if let Some(m) = metrics::end_to_end(name) {
        return (m.unit, m.better, format!("{:.0}%", m.bound * 100.0));
    }
    let m = PER_LAYER.iter().find(|m| m.name == name).expect("figure is in the catalogue");
    (m.unit, m.better, format!("moves {}", m.moves))
}

fn print_outcome(spec: &Spec, kind: &str, outcome: &Outcome) {
    println!("\n== {} · {kind} ==", spec.name);
    println!("   {}", spec.why);
    println!(
        "  {:<28} {:>16} {:<6} {:<7} {:>8}  bound / predicted to move",
        "metric", "value", "unit", "better", "samples"
    );
    for f in &outcome.figures {
        let (unit, better, note) = describe(f.name);
        println!(
            "  {:<28} {:>16.4} {:<6} {:<7} {:>8}  {note}",
            f.name,
            f.value,
            unit,
            better.as_str(),
            f.samples
        );
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    if !outcome.correct() {
        println!(
            "  INCORRECT: {} of {} operations failed; the figures above are not valid",
            outcome.failed, outcome.attempted
        );
        for e in &outcome.errors {
            println!("    {e}");
        }
    }
}

/// The one line the benchmark driver reads: exactly these four keys, and
/// per metric exactly `value` and `unit`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .figures
        .iter()
        .map(|f| {
            let fields = vec![
                ("value".to_string(), Json::Float(f.value)),
                ("unit".to_string(), Json::str(describe(f.name).0)),
            ];
            (f.name.to_string(), Json::Object(fields))
        })
        .collect();
    Json::Object(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Int(outcome.attempted as i64)),
        ("failed".into(), Json::Int(outcome.failed as i64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .render()
}

/// One run of one workload, in this process.
fn run_here(cli: &Cli, spec: &'static Spec, traced: bool) -> Result<Outcome, String> {
    let dir = cli.out.parent().unwrap_or(std::path::Path::new("."));
    let scratch = dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let opts =
        Options { seed: cli.seed, smoke: cli.smoke, units: cli.units, scratch: scratch.clone() };
    let outcome = if traced {
        traced::run(spec, &opts, &cli.out.with_file_name(format!("trace-{}.json", spec.name)))
    } else {
        run::run(spec, &opts)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    print_outcome(
        spec,
        if traced { "traced, per layer" } else { "end to end, tracing off" },
        &outcome,
    );
    Ok(outcome)
}

/// One run in a child process (`board --workload … --trace 0|1`), which is
/// how the benchmark driver runs it: a fresh heap every time, so one
/// workload's retained memory is not under the next one's peak. The
/// child's report is passed through; its result line is returned parsed.
fn run_child(cli: &Cli, spec: &Spec, seed: u64, traced: bool) -> Result<Json, String> {
    let kind = if traced { "per_layer" } else { "end_to_end" };
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &(cli.units as u64 * SECONDS_PER_UNIT).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(cli.out.with_file_name(format!("results-{}-{kind}.json", spec.name)))
        .stdout(Stdio::piped());
    if cli.smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().map_err(|e| format!("spawn board: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut result = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        if line.starts_with("{\"correct\"") {
            result = Some(line);
        } else if !line.starts_with("board: ") && !line.starts_with("results: ") && !line.is_empty()
        {
            println!("{line}");
        }
    }
    let status = child.wait().map_err(|e| format!("wait for board: {e}"))?;
    let line = result.ok_or_else(|| format!("{} {kind}: no result line ({status})", spec.name))?;
    let mut doc =
        Json::parse(&line).map_err(|e| format!("{} {kind}: bad result line: {e}", spec.name))?;
    if !status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{} {kind}: run at seed {seed} was not correct ({status})", spec.name));
    }
    if let Json::Object(fields) = &mut doc {
        fields.insert(0, ("kind".into(), Json::str(kind)));
        fields.insert(0, ("seed".into(), Json::Int(seed as i64)));
        fields.insert(0, ("workload".into(), Json::str(spec.name)));
    }
    Ok(doc)
}

/// Run every selected workload (and kind) once at `seed`, each in its own
/// process.
fn run_board(cli: &Cli, seed: u64) -> Result<Vec<Json>, String> {
    let mut runs = Vec::new();
    for &spec in &cli.workloads {
        if cli.mode != Mode::Traced {
            runs.push(run_child(cli, spec, seed, false)?);
        }
        if cli.mode != Mode::EndToEnd {
            runs.push(run_child(cli, spec, seed, true)?);
        }
    }
    Ok(runs)
}

fn write_results(cli: &Cli, runs: Vec<Json>) -> Result<(), String> {
    if let Some(dir) = cli.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let doc = Json::Object(vec![
        ("units".into(), Json::Int(cli.units as i64)),
        ("smoke".into(), Json::Bool(cli.smoke)),
        ("runs".into(), Json::Array(runs)),
    ]);
    std::fs::write(&cli.out, doc.render())
        .map_err(|e| format!("write {}: {e}", cli.out.display()))?;
    println!("\nresults: {}", cli.out.display());
    Ok(())
}

/// A/A: the same build, `n` times, a different seed each time (as the
/// benchmark driver does). A metric passes when its quartile spread is
/// within its bound (`setup_s` excepted, as in the driver) and the second
/// half's median is not worse than the first half's by more than the bound.
fn aa_summary(cli: &Cli, runs: &[Json]) -> bool {
    // (workload, metric) → one value per run, in run order.
    let mut series: Vec<((String, &'static str), Vec<f64>)> = Vec::new();
    for run in runs.iter().filter(|r| r.get("kind").and_then(Json::as_str) == Some("end_to_end")) {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or_default();
        for def in &metrics::END_TO_END {
            let value = run
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            let Some(value) = value else { continue };
            let key = (workload.to_string(), def.name);
            match series.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => v.push(value),
                None => series.push((key, vec![value])),
            }
        }
    }
    println!("\n#### A/A summary over {} runs (spread = (q3 - q1) / median)", cli.aa);
    println!(
        "  {:<11} {:<24} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "drift", "bound"
    );
    let mut ok = true;
    for ((workload, metric), values) in &series {
        let def = metrics::end_to_end(metric).expect("end-to-end figure");
        let (q1, q2, q3) = stats::quartiles(values);
        let spread = stats::spread(values);
        // Worsening of the second half's median relative to the first's.
        let (first, second) = values.split_at(values.len() / 2);
        let (a, b) = (stats::median(first), stats::median(second));
        let drift = match def.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        let gated = *metric != "setup_s";
        let pass = (!gated || spread <= def.bound) && drift <= def.bound;
        ok &= pass;
        println!(
            "  {:<11} {:<24} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>6.0}%  {}",
            workload,
            metric,
            q1,
            q2,
            q3,
            spread * 100.0,
            drift * 100.0,
            def.bound * 100.0,
            if !pass {
                "EXCEEDS BOUND"
            } else if gated && spread > def.bound / 3.0 {
                "ok (above a third of the bound)"
            } else {
                "ok"
            }
        );
    }
    ok
}

fn board(cli: &Cli) -> Result<bool, String> {
    if cli.single && cli.mode != Mode::Both && cli.aa == 0 {
        let outcome = run_here(cli, cli.workloads[0], cli.mode == Mode::Traced)?;
        println!("\nresults: {}", cli.out.display());
        let line = result_line(&outcome);
        std::fs::write(&cli.out, &line).map_err(|e| format!("write {}: {e}", cli.out.display()))?;
        // Last line of standard output, for the benchmark driver.
        println!("{line}");
        return Ok(outcome.correct());
    }
    let mut runs = Vec::new();
    for i in 0..cli.aa.max(1) {
        let seed = cli.seed + i as u64;
        if cli.aa > 0 {
            println!("\n#### A/A run {} of {}, seed {seed}", i + 1, cli.aa);
        }
        runs.extend(run_board(cli, seed)?);
    }
    let ok = cli.aa == 0 || aa_summary(cli, &runs);
    write_results(cli, runs)?;
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    header(&cli);
    match board(&cli) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("board: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{render_get, Client};
    use std::io::Write;
    use std::net::TcpListener;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gent-board-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn smoke_options(tag: &str) -> Options {
        Options { seed: 11, smoke: true, units: 1, scratch: scratch(tag) }
    }

    /// The whole end-to-end path at smoke scale, on the two workloads that
    /// between them take every branch: reads then writes with first-stage
    /// retrieval (`wdc_web`), and reads under concurrent writes
    /// (`ingest_mix`). Every catalogue metric must come back, positive.
    #[test]
    fn smoke_end_to_end_reports_every_metric() {
        let opts = smoke_options("e2e");
        for name in ["wdc_web", "ingest_mix"] {
            let spec = workload::spec(name).unwrap();
            let outcome = run::run(spec, &opts).unwrap();
            assert!(outcome.correct(), "{name}: {:?}", outcome.errors);
            let names: Vec<&str> = outcome.figures.iter().map(|f| f.name).collect();
            let expected: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{name}");
            for f in &outcome.figures {
                assert!(f.value.is_finite() && f.value > 0.0, "{name}: {} = {}", f.name, f.value);
                assert!(f.samples > 0, "{name}: {}", f.name);
            }
            let line = Json::parse(&result_line(&outcome)).unwrap();
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").and_then(Json::as_i64), Some(0));
            assert!(line.get("attempted").and_then(Json::as_i64).unwrap() >= 1);
            let reported = line.get("metrics").unwrap();
            for m in &metrics::END_TO_END {
                let entry = reported.get(m.name).unwrap_or_else(|| panic!("{}", m.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(entry.get("value").and_then(Json::as_f64).is_some());
            }
        }
        let _ = std::fs::remove_dir_all(&opts.scratch);
    }

    /// The traced run at smoke scale: the replay reproduces the served
    /// answers, every per-layer metric is reported, the trace file parses
    /// and its spans nest.
    #[test]
    fn smoke_traced_run_reports_every_layer() {
        let opts = smoke_options("traced");
        for name in ["wdc_web", "ingest_mix"] {
            let spec = workload::spec(name).unwrap();
            let trace_out = opts.scratch.join(format!("trace-{name}.json"));
            let outcome = traced::run(spec, &opts, &trace_out).unwrap();
            assert!(outcome.correct(), "{name}: {:?}", outcome.errors);
            let names: Vec<&str> = outcome.figures.iter().map(|f| f.name).collect();
            let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{name}");
            let value = |metric: &str| {
                outcome.figures.iter().find(|f| f.name == metric).map(|f| f.value).unwrap()
            };
            assert!(outcome.figures.iter().all(|f| f.value.is_finite()), "{name}");
            assert!(value("discovery.set_similarity_ms") > 0.0);
            assert!(value("store.append_ms") > 0.0 && value("store.compactions") >= 1.0);
            assert!(value("trace.coverage") > 0.5 && value("trace.coverage") < 1.5, "{name}");
            // First-stage retrieval runs only above 200 tables.
            assert_eq!(value("discovery.first_stage_ms") > 0.0, name == "wdc_web");
            let trace = Json::parse(&std::fs::read_to_string(&trace_out).unwrap()).unwrap();
            let spans = trace.as_array().unwrap();
            assert!(spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some("core.traversal")));
            assert!(spans.iter().any(|s| s.get("parent") != Some(&Json::Null)));
        }
        let _ = std::fs::remove_dir_all(&opts.scratch);
    }

    /// The daemon answers the 64th request on a connection with
    /// `Connection: close`; the client must notice and reconnect without
    /// losing a request.
    #[test]
    fn client_reconnects_after_the_daemons_request_limit() {
        let dir = scratch("reconnect");
        let path = dir.join("tiny.gentlake");
        let inputs = workload::generate(workload::spec("wdc_web").unwrap(), 7, true, 1);
        run::build_and_save(inputs.lake_tables, &path).unwrap();
        let daemon = daemon::Daemon::boot_snapshot(&path).unwrap();
        let mut client = Client::new(daemon.addr);
        let limit = gent_serve::server::MAX_REQUESTS_PER_CONNECTION;
        for i in 0..2 * limit + 2 {
            let x = client.exchange(&render_get("/healthz")).unwrap_or_else(|e| panic!("{i}: {e}"));
            assert_eq!(x.status, 200, "request {i}");
        }
        assert_eq!(client.connects, 3, "{limit} requests per connection");
        drop(client);
        daemon.stop().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kept-alive socket the server dropped while idle: the request is
    /// sent again on a fresh connection instead of being counted failed.
    #[test]
    fn client_retries_once_on_a_connection_closed_while_idle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Two connections, one request each; the first is closed right
            // after a response that promised keep-alive.
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                reader
                    .get_mut()
                    .write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}",
                    )
                    .unwrap();
            }
        });
        let mut client = Client::new(addr);
        assert_eq!(client.exchange(&render_get("/a")).unwrap().body, b"{}");
        assert_eq!(client.exchange(&render_get("/b")).unwrap().body, b"{}");
        assert_eq!(client.connects, 2);
        server.join().unwrap();
    }

    #[test]
    fn cli_parses_the_drivers_invocation_and_bare_trace() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cli = parse_cli(&args("--workload wdc_web --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (cli.workloads[0].name, cli.seed, cli.units, cli.mode),
            ("wdc_web", 3, 1, Mode::Traced)
        );
        assert!(cli.single);
        let cli = parse_cli(&args("--seed 7 --trace --smoke")).unwrap();
        assert_eq!((cli.workloads.len(), cli.mode, cli.smoke), (4, Mode::Both, true));
        assert_eq!(parse_cli(&args("--seconds 35")).unwrap().units, 3);
        assert_eq!(parse_cli(&args("--seconds 1")).unwrap().units, 1);
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--aa 1")).is_err());
    }
}
