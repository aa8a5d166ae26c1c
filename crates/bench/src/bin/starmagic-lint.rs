//! Batch linter: run the structural lints — and, with `--analysis`,
//! the abstract-interpretation checks (L2xx) — over whole query
//! suites, failing on any ERROR-severity diagnostic.
//!
//! ```text
//! starmagic-lint [--analysis] [--suite] [--corpus DIR] [--sql QUERY]
//!                [--scale small|benchmark|fuzz] [--verbose]
//! ```
//!
//! With no source flags, lints the full Table-1 suite (both
//! formulations of every experiment) plus the fuzz corpus at
//! `tests/corpus` when it exists. Every query is optimized under both
//! the cost-based and the forced-magic strategy, so the post-rewrite
//! graphs — where the analysis proves or refutes rewrite soundness —
//! are what gets checked. Exit code: 0 clean (warnings allowed), 1 if
//! any error-severity diagnostic fired, 2 on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use starmagic::rewrite::engine::CheckLevel;
use starmagic::PipelineOptions;
use starmagic_bench::{bench_engine, experiments, fuzz_engine};
use starmagic_catalog::generator::Scale;

struct Options {
    analysis: bool,
    suite: bool,
    corpus: Option<PathBuf>,
    sql: Vec<String>,
    scale: String,
    verbose: bool,
}

fn main() -> ExitCode {
    let mut opts = Options {
        analysis: false,
        suite: false,
        corpus: None,
        sql: Vec::new(),
        scale: "fuzz".to_string(),
        verbose: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| {
            args.next()
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--analysis" => opts.analysis = true,
            "--suite" => opts.suite = true,
            "--corpus" => opts.corpus = Some(take("--corpus").into()),
            "--sql" => opts.sql.push(take("--sql")),
            "--scale" => opts.scale = take("--scale"),
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => {
                println!(
                    "starmagic-lint: batch semantic linter\n\n\
                     options:\n  \
                     --analysis        also run the static-analysis checks (L2xx)\n  \
                     --suite           lint the Table-1 experiment suite\n  \
                     --corpus DIR      lint every .sql file in DIR\n  \
                     --sql QUERY       lint one query (repeatable)\n  \
                     --scale S         small | benchmark | fuzz (default fuzz)\n  \
                     --verbose         print the analysis fact table per query\n\n\
                     with no source flags, lints the suite plus tests/corpus"
                );
                return ExitCode::SUCCESS;
            }
            other => die(&format!("unknown option {other} (try --help)")),
        }
    }

    // Default: everything we have.
    if !opts.suite && opts.corpus.is_none() && opts.sql.is_empty() {
        opts.suite = true;
        let default_corpus = PathBuf::from("tests/corpus");
        if default_corpus.is_dir() {
            opts.corpus = Some(default_corpus);
        }
    }

    let engine = match opts.scale.as_str() {
        "fuzz" => fuzz_engine(),
        "small" => bench_engine(Scale::small()),
        "benchmark" => bench_engine(Scale::benchmark()),
        other => die(&format!("--scale: unknown scale {other:?}")),
    };
    let engine = match engine {
        Ok(e) => e,
        Err(e) => die(&format!("engine setup failed: {e}")),
    };

    let mut queries: Vec<(String, String)> = Vec::new();
    if opts.suite {
        for exp in experiments() {
            queries.push((
                format!("suite:{}:original", exp.id),
                exp.original_sql.to_string(),
            ));
            queries.push((
                format!("suite:{}:correlated", exp.id),
                exp.correlated_sql.to_string(),
            ));
        }
    }
    if let Some(dir) = &opts.corpus {
        let mut files: Vec<PathBuf> = match std::fs::read_dir(dir) {
            Ok(entries) => entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "sql"))
                .collect(),
            Err(e) => die(&format!("--corpus {}: {e}", dir.display())),
        };
        files.sort();
        for path in files {
            match std::fs::read_to_string(&path) {
                Ok(sql) => queries.push((format!("corpus:{}", path.display()), sql)),
                Err(e) => die(&format!("{}: {e}", path.display())),
            }
        }
    }
    for (i, sql) in opts.sql.iter().enumerate() {
        queries.push((format!("sql:{i}"), sql.clone()));
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for (label, sql) in &queries {
        for (strategy, sopts) in strategies() {
            let optimized = match engine.optimize_with_options(sql, sopts) {
                Ok(o) => o,
                Err(e) => {
                    // Parse/build rejections are fine (corpus repros can
                    // use unsupported syntax at other scales); internal
                    // errors are not.
                    if matches!(e, starmagic::common::Error::Internal(_)) {
                        println!("{label} [{strategy}] INTERNAL ERROR: {e}");
                        errors += 1;
                    } else if opts.verbose {
                        println!("{label} [{strategy}] skipped: {e}");
                    }
                    continue;
                }
            };
            let mut report = optimized.lint(engine.catalog());
            let analysis = opts.analysis.then(|| optimized.analysis(engine.catalog()));
            if let Some(a) = &analysis {
                report.extend(a.report.clone());
            }
            let e = report.errors().count();
            let w = report.warnings().count();
            errors += e;
            warnings += w;
            if e + w > 0 {
                println!("{label} [{strategy}] {e} error(s), {w} warning(s)");
                for d in &report.diagnostics {
                    println!("  {d}");
                }
            } else if opts.verbose {
                println!("{label} [{strategy}] clean");
            }
            if let Some(a) = analysis.filter(|_| opts.verbose) {
                print!("{}", a.render(optimized.chosen()));
            }
        }
    }

    println!(
        "starmagic-lint: {} quer{} × 2 strategies — {errors} error(s), {warnings} warning(s){}",
        queries.len(),
        if queries.len() == 1 { "y" } else { "ies" },
        if opts.analysis { " [analysis on]" } else { "" },
    );
    if errors == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Both post-rewrite strategies: the cost-based pick and forced magic
/// (the latter guarantees the EMST graphs get checked even when the
/// cost model would discard them). PerFire is off so the full report
/// is collected rather than aborting on the first bad fire.
fn strategies() -> [(&'static str, PipelineOptions); 2] {
    let base = PipelineOptions {
        check: CheckLevel::Off,
        trace: false,
        ..PipelineOptions::default()
    };
    [
        ("cost", base),
        (
            "magic",
            PipelineOptions {
                force_magic: true,
                ..base
            },
        ),
    ]
}

fn die(msg: &str) -> ! {
    eprintln!("starmagic-lint: {msg}");
    std::process::exit(2);
}
