//! `experiments` — regenerate every table and figure of the Gen-T
//! evaluation (§VI + Appendix F).
//!
//! ```text
//! experiments <command> [--scale tiny|default|paper] [--seed N]
//!             [--threads N] [--budget SECS]
//!
//! commands:
//!   table1    Table I   — data-lake statistics per benchmark
//!   table2    Table II  — effectiveness on the larger TP-TR benchmarks
//!   table3    Table III — all methods on TP-TR Small
//!   table4    Table IV  — T2D Gold immersed in the WDC sample
//!   fig6      Figure 6  — recall/precision per query complexity class
//!   fig7      Figure 7  — precision vs % erroneous / % nullified values
//!   fig8      Figure 8  — runtimes and output-size ratios per benchmark
//!   fig9      Figure 9  — per-source Rec/Pre/F1, Gen-T vs ALITE-PS
//!   llm       App. F    — the (simulated) LLM baseline on TP-TR Small
//!   t2d       §VI-D     — T2D Gold generalizability counts
//!   ablation  DESIGN.md — Gen-T ablations (matrix kind, traversal, gates)
//!   ext       beyond the paper — EXT-2, reclamation + imputation cleaning
//!   all       everything above, in paper order
//! ```
//!
//! Scales: `tiny` (seconds, CI), `default` (minutes — the documented
//! scaled-down reproduction), `paper` (hours; paper-sized row counts).

use gent_baselines::{Alite, AlitePs, AutoPipeline, GenTMethod, NaiveLlm, Reclaimer, Ver};
use gent_bench::format::f3;
use gent_bench::{
    aggregate, markdown_table, run_benchmark, AggregateRow, CaseOutcome, HarnessConfig, MethodSpec,
};
use gent_core::GenTConfig;
use gent_datagen::suite::{build, BenchmarkId, SuiteConfig};
use gent_datagen::variants::VariantConfig;
use gent_datagen::webgen::WebCorpusConfig;
use gent_datagen::QueryClass;
use gent_table::stats::lake_stats;
use std::time::Duration;

struct Cli {
    command: String,
    scale: String,
    seed: u64,
    threads: usize,
    budget: u64,
}

fn parse_cli() -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = Cli {
        command: args.first().cloned().unwrap_or_else(|| "all".into()),
        scale: "default".into(),
        seed: 7,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
        budget: 20,
    };
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                cli.scale = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--seed" => {
                cli.seed = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(7);
                i += 2;
            }
            "--threads" => {
                cli.threads = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(4);
                i += 2;
            }
            "--budget" => {
                cli.budget = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(20);
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    cli
}

fn suite_config(cli: &Cli) -> SuiteConfig {
    let mut cfg = SuiteConfig { seed: cli.seed, ..Default::default() };
    match cli.scale.as_str() {
        "tiny" => {
            cfg.units = (12, 30, 60);
            cfg.santos_noise_tables = 80;
            cfg.wdc_noise_tables = 100;
            cfg.web = WebCorpusConfig {
                n_base_tables: 24,
                n_reclaimable: 4,
                n_duplicates: 4,
                ..Default::default()
            };
        }
        "default" => {
            cfg.units = (82, 220, 700);
            cfg.santos_noise_tables = 1200;
            cfg.wdc_noise_tables = 1500;
            cfg.web = WebCorpusConfig {
                n_base_tables: 120,
                n_reclaimable: 6,
                n_duplicates: 6,
                ..Default::default()
            };
        }
        "paper" => {
            cfg.units = (82, 1100, 105_000);
            cfg.santos_noise_tables = 11_000;
            cfg.wdc_noise_tables = 15_000;
            cfg.web = WebCorpusConfig {
                n_base_tables: 515,
                n_reclaimable: 10,
                n_duplicates: 6,
                ..Default::default()
            };
        }
        other => {
            eprintln!("unknown scale {other}");
            std::process::exit(2);
        }
    }
    cfg
}

fn harness(cli: &Cli) -> HarnessConfig {
    HarnessConfig {
        budget: Duration::from_secs(cli.budget),
        gent: GenTConfig::default(),
        threads: cli.threads,
    }
}

fn effectiveness_header() -> Vec<String> {
    ["Method", "Rec", "Pre", "Inst-Div.", "D_KL", "EIS", "#Perfect", "#Timeout"]
        .map(String::from)
        .to_vec()
}

fn effectiveness_row(r: &AggregateRow) -> Vec<String> {
    vec![
        r.method.clone(),
        f3(r.avg.recall),
        f3(r.avg.precision),
        f3(r.avg.inst_div),
        f3(r.avg.dkl),
        f3(r.avg.eis),
        r.perfect.to_string(),
        r.timeouts.to_string(),
    ]
}

fn print_effectiveness(title: &str, rows: &[AggregateRow]) {
    println!("\n### {title}\n");
    let mut table = vec![effectiveness_header()];
    table.extend(rows.iter().map(effectiveness_row));
    println!("{}", markdown_table(&table));
}

// ---------------------------------------------------------------- table 1

fn table1(cli: &Cli) {
    let cfg = suite_config(cli);
    println!("\n## Table I — data-lake statistics (scale: {})\n", cli.scale);
    let mut rows = vec![["Benchmark", "# Tables", "# Cols", "Avg Rows", "Size (MB)"]
        .map(String::from)
        .to_vec()];
    for id in [
        BenchmarkId::TpTrSmall,
        BenchmarkId::TpTrMed,
        BenchmarkId::TpTrLarge,
        BenchmarkId::SantosLargeTpTrMed,
        BenchmarkId::T2dGold,
        BenchmarkId::WdcT2dGold,
    ] {
        let bench = build(id, &cfg);
        let s = lake_stats(&bench.lake_tables);
        rows.push(vec![
            id.label().to_string(),
            s.tables.to_string(),
            s.total_cols.to_string(),
            format!("{:.0}", s.avg_rows),
            format!("{:.1}", s.size_mb),
        ]);
    }
    println!("{}", markdown_table(&rows));
}

// ---------------------------------------------------------------- table 2

fn table2(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Table II — effectiveness on the larger TP-TR benchmarks\n");
    let alite = Alite::default();
    let alite_ps = AlitePs::default();
    let gen_t = GenTMethod::default();
    for id in [BenchmarkId::TpTrMed, BenchmarkId::SantosLargeTpTrMed, BenchmarkId::TpTrLarge] {
        let bench = build(id, &cfg);
        let methods = vec![
            MethodSpec::discovery(&alite),
            MethodSpec::integrating_set(&alite),
            MethodSpec::discovery(&alite_ps),
            MethodSpec::integrating_set(&alite_ps),
            MethodSpec::discovery(&gen_t),
        ];
        let outcomes = run_benchmark(&bench, &methods, &hc);
        print_effectiveness(id.label(), &aggregate(&outcomes));
    }
}

// ---------------------------------------------------------------- table 3

fn table3(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Table III — all methods on TP-TR Small\n");
    let bench = build(BenchmarkId::TpTrSmall, &cfg);
    let alite = Alite::default();
    let alite_ps = AlitePs::default();
    let auto = AutoPipeline::default();
    let ver = Ver::default();
    let gen_t = GenTMethod::default();
    let methods = vec![
        MethodSpec::discovery(&alite),
        MethodSpec::integrating_set(&alite),
        MethodSpec::discovery(&alite_ps),
        MethodSpec::integrating_set(&alite_ps),
        MethodSpec::discovery(&auto),
        MethodSpec::integrating_set(&auto),
        MethodSpec::integrating_set(&ver),
        MethodSpec::discovery(&gen_t),
    ];
    let outcomes = run_benchmark(&bench, &methods, &hc);
    print_effectiveness("TP-TR Small", &aggregate(&outcomes));
}

// ---------------------------------------------------------------- table 4

fn table4(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Table IV — T2D Gold immersed in the WDC sample\n");
    println!("(sources where all methods produce non-empty output)\n");
    let bench = build(BenchmarkId::WdcT2dGold, &cfg);
    let alite = Alite::default();
    let alite_ps = AlitePs::default();
    let auto = AutoPipeline::default();
    let gen_t = GenTMethod::default();
    let methods = vec![
        MethodSpec::discovery(&alite),
        MethodSpec::discovery(&alite_ps),
        MethodSpec::discovery(&auto),
        MethodSpec::discovery(&gen_t),
    ];
    let outcomes = run_benchmark(&bench, &methods, &hc);
    // Keep only cases where every method produced non-empty output (the
    // paper's "33 common sources" filter).
    let mut common: Vec<usize> = Vec::new();
    for case_id in outcomes.iter().map(|o| o.case_id).collect::<std::collections::BTreeSet<_>>() {
        let all_nonempty =
            outcomes.iter().filter(|o| o.case_id == case_id).all(|o| o.report.size_ratio > 0.0);
        if all_nonempty {
            common.push(case_id);
        }
    }
    let filtered: Vec<CaseOutcome> =
        outcomes.into_iter().filter(|o| common.contains(&o.case_id)).collect();
    println!("common non-empty sources: {}\n", common.len());
    if !filtered.is_empty() {
        print_effectiveness("WDC Sample+T2D Gold (common sources)", &aggregate(&filtered));
    }
}

// ------------------------------------------------------------------ fig 6

fn fig6(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Figure 6 — recall/precision per query complexity class\n");
    let alite = Alite::default();
    let alite_ps = AlitePs::default();
    let gen_t = GenTMethod::default();
    for id in [BenchmarkId::TpTrSmall, BenchmarkId::TpTrMed, BenchmarkId::TpTrLarge] {
        let bench = build(id, &cfg);
        let methods = vec![
            MethodSpec::discovery(&alite),
            MethodSpec::discovery(&alite_ps),
            MethodSpec::discovery(&gen_t),
        ];
        let outcomes = run_benchmark(&bench, &methods, &hc);
        println!("\n### {} (by query class)\n", id.label());
        let mut rows =
            vec![["Method", "Query class", "Recall", "Precision"].map(String::from).to_vec()];
        for class in
            [QueryClass::ProjectSelectUnion, QueryClass::OneJoinUnion, QueryClass::MultiJoinUnion]
        {
            let of_class: Vec<CaseOutcome> =
                outcomes.iter().filter(|o| o.class == Some(class)).cloned().collect();
            for row in aggregate(&of_class) {
                rows.push(vec![
                    row.method.clone(),
                    class.label().to_string(),
                    f3(row.avg.recall),
                    f3(row.avg.precision),
                ]);
            }
        }
        println!("{}", markdown_table(&rows));
    }
}

// ------------------------------------------------------------------ fig 7

fn fig7(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Figure 7 — Gen-T precision vs % erroneous / % nullified values\n");
    println!("(TP-TR Med; one sweep holds nulls at 50% and varies errors, the other vice versa)\n");
    let gen_t = GenTMethod::default();
    let mut rows =
        vec![["% injected", "Precision (vary % erroneous)", "Precision (vary % nullified)"]
            .map(String::from)
            .to_vec()];
    for pct in [10, 20, 30, 40, 50, 60, 70, 80, 90] {
        let p = pct as f64 / 100.0;
        let precision_of = |null_frac: f64, err_frac: f64| -> f64 {
            let mut c = cfg.clone();
            c.variants = VariantConfig { null_frac, err_frac, seed: cfg.variants.seed };
            let bench = build(BenchmarkId::TpTrMed, &c);
            let methods = vec![MethodSpec::discovery(&gen_t)];
            let outcomes = run_benchmark(&bench, &methods, &hc);
            aggregate(&outcomes)[0].avg.precision
        };
        let vary_err = precision_of(0.5, p);
        let vary_null = precision_of(p, 0.5);
        rows.push(vec![format!("{pct}%"), f3(vary_err), f3(vary_null)]);
    }
    println!("{}", markdown_table(&rows));
}

// ------------------------------------------------------------------ fig 8

fn fig8(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Figure 8 — scalability: runtimes and output-size ratios\n");
    let alite = Alite::default();
    let alite_ps = AlitePs::default();
    let auto = AutoPipeline::default();
    let gen_t = GenTMethod::default();
    let mut runtime_rows =
        vec![["Benchmark", "Method", "Avg runtime (s)", "Timeouts", "Avg |out|/|S|"]
            .map(String::from)
            .to_vec()];
    for id in [
        BenchmarkId::TpTrSmall,
        BenchmarkId::TpTrMed,
        BenchmarkId::SantosLargeTpTrMed,
        BenchmarkId::TpTrLarge,
    ] {
        let bench = build(id, &cfg);
        // Auto-Pipeline* only runs on Small without timing out (§VI-C);
        // running it everywhere lets the timeout counts show that.
        let methods = vec![
            MethodSpec::discovery(&alite),
            MethodSpec::discovery(&alite_ps),
            MethodSpec::discovery(&auto),
            MethodSpec::discovery(&gen_t),
        ];
        let outcomes = run_benchmark(&bench, &methods, &hc);
        for row in aggregate(&outcomes) {
            runtime_rows.push(vec![
                id.label().to_string(),
                row.method.clone(),
                format!("{:.2}", row.avg_runtime_s),
                row.timeouts.to_string(),
                format!("{:.1}", row.avg.size_ratio),
            ]);
        }
    }
    println!("{}", markdown_table(&runtime_rows));
}

// ------------------------------------------------------------------ fig 9

fn fig9(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Figure 9 — per-source Rec/Pre/F1, Gen-T vs ALITE-PS (TP-TR Med)\n");
    let bench = build(BenchmarkId::TpTrMed, &cfg);
    let alite_ps = AlitePs::default();
    let gen_t = GenTMethod::default();
    let methods = vec![MethodSpec::discovery(&alite_ps), MethodSpec::discovery(&gen_t)];
    let outcomes = run_benchmark(&bench, &methods, &hc);
    let mut rows = vec![[
        "Source",
        "Gen-T Rec",
        "ALITE-PS Rec",
        "Gen-T Pre",
        "ALITE-PS Pre",
        "Gen-T F1",
        "ALITE-PS F1",
    ]
    .map(String::from)
    .to_vec()];
    for case_id in 0..bench.cases.len() {
        let get = |m: &str| -> Option<&CaseOutcome> {
            outcomes.iter().find(|o| o.case_id == case_id && o.method == m)
        };
        if let (Some(g), Some(a)) = (get("Gen-T"), get("ALITE-PS")) {
            rows.push(vec![
                format!("S{case_id}"),
                f3(g.report.recall),
                f3(a.report.recall),
                f3(g.report.precision),
                f3(a.report.precision),
                f3(g.report.f1),
                f3(a.report.f1),
            ]);
        }
    }
    println!("{}", markdown_table(&rows));
    // Summary counts matching the paper's reading of the figure.
    let wins = |f: fn(&gent_metrics::MethodReport) -> f64| -> usize {
        (0..bench.cases.len())
            .filter(|&i| {
                let g = outcomes.iter().find(|o| o.case_id == i && o.method == "Gen-T");
                let a = outcomes.iter().find(|o| o.case_id == i && o.method == "ALITE-PS");
                match (g, a) {
                    (Some(g), Some(a)) => f(&g.report) >= f(&a.report),
                    _ => false,
                }
            })
            .count()
    };
    println!(
        "Gen-T ≥ ALITE-PS on precision for {}/26 sources, on F1 for {}/26 sources\n",
        wins(|r| r.precision),
        wins(|r| r.f1)
    );
}

// ----------------------------------------------------------------- llm

fn llm(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Appendix F — (simulated) LLM baseline on TP-TR Small\n");
    println!("NaiveLLM is a seeded behavioural stand-in for ChatGPT 3.5 — see DESIGN.md.\n");
    let bench = build(BenchmarkId::TpTrSmall, &cfg);
    let llm = NaiveLlm::default();
    let gen_t = GenTMethod::default();
    let methods = vec![MethodSpec::integrating_set(&llm), MethodSpec::discovery(&gen_t)];
    let outcomes = run_benchmark(&bench, &methods, &hc);
    print_effectiveness("TP-TR Small (LLM vs Gen-T)", &aggregate(&outcomes));
}

// ----------------------------------------------------------------- t2d

fn t2d(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## §VI-D — T2D Gold generalizability\n");
    let bench = build(BenchmarkId::T2dGold, &cfg);
    let gen_t = GenTMethod::default();
    let methods = vec![MethodSpec::discovery(&gen_t)];
    let outcomes = run_benchmark(&bench, &methods, &hc);
    let perfect: Vec<usize> = outcomes
        .iter()
        .filter(|o| o.report.perfect && o.report.size_ratio > 0.0)
        .map(|o| o.case_id)
        .collect();
    println!(
        "Gen-T perfectly reclaims {}/{} corpus sources (ground truth: {} reclaimable + {} duplicated)\n",
        perfect.len(),
        bench.cases.len(),
        cfg.web.n_reclaimable,
        cfg.web.n_duplicates,
    );
    print_effectiveness("T2D Gold (all sources)", &aggregate(&outcomes));
}

// ------------------------------------------------------------- ablation

fn ablation(cli: &Cli) {
    let cfg = suite_config(cli);
    let hc = harness(cli);
    println!("\n## Ablations — Gen-T design choices (TP-TR Small)\n");
    let bench = build(BenchmarkId::TpTrSmall, &cfg);
    let full = GenTMethod::default();
    let two_valued =
        GenTMethod::with_config(GenTConfig { three_valued: false, ..Default::default() });
    let no_traversal =
        GenTMethod::with_config(GenTConfig { prune_with_traversal: false, ..Default::default() });
    let ungated =
        GenTMethod::with_config(GenTConfig { gate_kappa_beta: false, ..Default::default() });
    let mut no_diversify_cfg = GenTConfig::default();
    no_diversify_cfg.set_similarity.diversify = false;
    let no_diversify = GenTMethod::with_config(no_diversify_cfg);
    let variants: Vec<(&str, &GenTMethod)> = vec![
        ("Gen-T (full)", &full),
        ("Gen-T two-valued matrices", &two_valued),
        ("Gen-T w/o matrix traversal", &no_traversal),
        ("Gen-T ungated κ/β", &ungated),
        ("Gen-T w/o diversification", &no_diversify),
    ];
    let methods: Vec<MethodSpec> = variants
        .iter()
        .map(|(label, m)| MethodSpec {
            label: label.to_string(),
            method: *m as &dyn Reclaimer,
            mode: gent_bench::CandidateMode::Discovery,
        })
        .collect();
    let outcomes = run_benchmark(&bench, &methods, &hc);
    print_effectiveness("Ablations", &aggregate(&outcomes));
}

// ---------------------------------------------------------------- ext

/// Extension-quality measurement (beyond the paper's figures):
/// imputation-combined reclamation.
fn ext(cli: &Cli) {
    use gent_core::{GenT, ImputeConfig};
    use gent_discovery::DataLake;

    // Cleaning only matters when reclamation is imperfect, so this
    // experiment raises the nullification rate until the complementary
    // variants no longer cover every source value (null_frac 0.8 →
    // P(both variants null) = 0.64 per cell).
    println!("\n## EXT-2 — reclamation + cleaning (§VII imputation, null_frac 0.8)\n");
    let mut hard_cfg = suite_config(cli);
    hard_cfg.variants = VariantConfig { null_frac: 0.8, ..hard_cfg.variants };
    let hard = build(BenchmarkId::TpTrSmall, &hard_cfg);
    let hard_lake = DataLake::from_tables(hard.lake_tables.clone());
    let n_cases = hard.cases.len().min(8);
    let gen_t = GenT::new(GenTConfig::default());
    let impute_cfg = ImputeConfig { min_fd_support: 1, ..ImputeConfig::default() };
    let mut rows =
        vec![["Source", "EIS before", "EIS after", "# imputations"].map(String::from).to_vec()];
    let mut improved = 0usize;
    for case in hard.cases.iter().take(n_cases) {
        match gen_t.reclaim_with_cleaning(&case.source, &hard_lake, &impute_cfg) {
            Ok(c) => {
                if c.eis_after > c.base.eis + 1e-9 {
                    improved += 1;
                }
                rows.push(vec![
                    format!("S{}", case.id),
                    f3(c.base.eis),
                    f3(c.eis_after),
                    c.imputations.len().to_string(),
                ]);
            }
            Err(e) => rows.push(vec![
                format!("S{}", case.id),
                format!("error: {e}"),
                String::new(),
                String::new(),
            ]),
        }
    }
    println!("{}", markdown_table(&rows));
    println!(
        "\ncleaning improved {improved}/{n_cases} sources (never hurt — rollback on regression)"
    );
}

fn main() {
    let cli = parse_cli();
    eprintln!(
        "experiments: command={} scale={} seed={} threads={} budget={}s",
        cli.command, cli.scale, cli.seed, cli.threads, cli.budget
    );
    match cli.command.as_str() {
        "table1" => table1(&cli),
        "table2" => table2(&cli),
        "table3" => table3(&cli),
        "table4" => table4(&cli),
        "fig6" => fig6(&cli),
        "fig7" => fig7(&cli),
        "fig8" => fig8(&cli),
        "fig9" => fig9(&cli),
        "llm" => llm(&cli),
        "t2d" => t2d(&cli),
        "ablation" => ablation(&cli),
        "ext" => ext(&cli),
        "all" => {
            table1(&cli);
            table3(&cli);
            table2(&cli);
            fig6(&cli);
            fig7(&cli);
            fig8(&cli);
            fig9(&cli);
            table4(&cli);
            t2d(&cli);
            llm(&cli);
            ablation(&cli);
            ext(&cli);
        }
        other => {
            eprintln!("unknown command {other}; see --help in the module docs");
            std::process::exit(2);
        }
    }
}
