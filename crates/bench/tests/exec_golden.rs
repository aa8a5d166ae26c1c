//! The executor's observable output is pinned: rows in output order,
//! the per-box [`ExecProfile`] counters, and the exact error text.
//!
//! Inputs: every Table-1 experiment under Original, Correlated,
//! CostBased and Magic (at the determinism suite's scale), every
//! `tests/corpus/*.sql` repro and the first fuzz cases of seeds 1 and
//! 7 under Original, CostBased and Magic (on the fuzz database), and
//! the bound closure over the chain, tree and cyclic recursion graphs
//! under Original and Magic. Each case renders to one line; the whole
//! rendering must equal the committed `golden/exec_rows_profiles.txt`
//! byte for byte at 1, 2 and 4 worker threads. Regenerate it with
//! `STARMAGIC_BLESS=1 cargo test -p starmagic-bench --test exec_golden`
//! only when a change to rows, counters or errors is intended.

use std::fmt::Write as _;
use std::path::PathBuf;

use starmagic::exec::{execute_with_options, ExecOptions, ExecProfile, IndexCache};
use starmagic::rewrite::engine::CheckLevel;
use starmagic::sql::query_sql;
use starmagic::{Engine, PipelineOptions};
use starmagic_bench::recursion::{graphs, recursion_engine, RECURSION_SQL};
use starmagic_bench::{bench_engine, experiments, fuzz_engine};
use starmagic_catalog::generator::Scale;
use starmagic_common::{Result, Row};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/exec_rows_profiles.txt"
);

/// Results with more rows than this are recorded as a count plus a
/// digest of their rendering instead of verbatim.
const VERBATIM_ROWS: usize = 4;

/// The determinism suite's scale: past the executor's parallel
/// threshold in the hot loops, small enough to run every case.
fn det_scale() -> Scale {
    Scale {
        departments: 40,
        emps_per_dept: 20,
        projects_per_dept: 5,
        acts_per_emp: 3,
        seed: 11,
    }
}

#[derive(Clone, Copy)]
enum Strategy {
    Original,
    CostBased,
    Magic,
}

impl Strategy {
    fn options(self) -> PipelineOptions {
        let base = PipelineOptions {
            check: CheckLevel::Off,
            trace: false,
            ..PipelineOptions::default()
        };
        match self {
            Strategy::Original => PipelineOptions {
                enable_magic: false,
                ..base
            },
            Strategy::CostBased => base,
            Strategy::Magic => PipelineOptions {
                force_magic: true,
                ..base
            },
        }
    }
}

/// One case: a label, the engine it runs on, its SQL and strategy.
struct Case {
    label: String,
    engine: usize,
    sql: String,
    strategy: Strategy,
}

/// Every case, plus the engines they run on: engine 0 hosts the
/// Table-1 experiments, engine 1 the fuzz database (corpus and fuzz
/// cases), engine `2 + i` recursion graph `i`.
fn cases() -> (Vec<Engine>, Vec<Case>) {
    let mut engines = vec![
        bench_engine(det_scale()).expect("bench engine builds"),
        fuzz_engine().expect("fuzz engine builds"),
    ];
    let mut cases = Vec::new();
    let all = [
        ("original", Strategy::Original),
        ("cost", Strategy::CostBased),
        ("magic", Strategy::Magic),
    ];
    for exp in experiments() {
        for (name, sql, strategy) in [
            ("original", exp.original_sql, Strategy::Original),
            ("correlated", exp.correlated_sql, Strategy::Original),
            ("cost", exp.original_sql, Strategy::CostBased),
            ("magic", exp.original_sql, Strategy::Magic),
        ] {
            cases.push(Case {
                label: format!("suite:{}:{name}", exp.id),
                engine: 0,
                sql: sql.to_string(),
                strategy,
            });
        }
    }
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 10,
        "expected a real corpus in {}",
        dir.display()
    );
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let sql = std::fs::read_to_string(&path).unwrap();
        for (strat, strategy) in all {
            cases.push(Case {
                label: format!("corpus:{name}:{strat}"),
                engine: 1,
                sql: sql.clone(),
                strategy,
            });
        }
    }
    for (seed, count) in [(1u64, 200u64), (7, 100)] {
        for case in 0..count {
            let sql = query_sql(&starmagic_fuzz::gen::generate(seed, case));
            for (strat, strategy) in all {
                cases.push(Case {
                    label: format!("fuzz:{seed}:{case}:{strat}"),
                    engine: 1,
                    sql: sql.clone(),
                    strategy,
                });
            }
        }
    }
    for spec in graphs() {
        engines.push(recursion_engine(&spec).expect("recursion engine builds"));
        for (strat, strategy) in [("original", Strategy::Original), ("magic", Strategy::Magic)] {
            cases.push(Case {
                label: format!("recursion:{}:{strat}", spec.name),
                engine: engines.len() - 1,
                sql: format!("{RECURSION_SQL}{}", spec.bound),
                strategy,
            });
        }
    }
    (engines, cases)
}

/// FNV-1a over the rendered rows: stable across runs and platforms.
fn digest(rows: &[Row]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        for byte in r.to_string().bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One case's line: rows (verbatim or digested), then every box's
/// counters and fixpoint record, timings excluded.
fn render(out: &mut String, label: &str, result: Result<(Vec<Row>, ExecProfile)>) {
    let _ = write!(out, "{label} |");
    let (rows, profile) = match result {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, " error: {e}");
            return;
        }
    };
    let _ = write!(out, " rows={}", rows.len());
    if rows.len() <= VERBATIM_ROWS {
        for r in &rows {
            let _ = write!(out, " {r}");
        }
    } else {
        let _ = write!(out, " #{:016x}", digest(&rows));
    }
    let _ = write!(out, " |");
    for (b, p) in &profile.boxes {
        let _ = write!(
            out,
            " {b}:{}/{}/{}/{}/{}",
            p.rows_scanned, p.rows_in, p.rows_produced, p.rows_out, p.evals
        );
    }
    for (b, f) in &profile.fixpoint {
        let _ = write!(
            out,
            " fix{b}:{}/{:?}/{}",
            f.iterations, f.delta_rows, f.total_rows
        );
    }
    out.push('\n');
}

/// Render every case executed at `threads` worker threads.
fn render_all(engines: &[Engine], cases: &[Case], threads: usize) -> String {
    let indexes: Vec<IndexCache> = engines.iter().map(|_| IndexCache::default()).collect();
    let mut out = String::new();
    for case in cases {
        let engine = &engines[case.engine];
        let result = engine
            .optimize_with_options(&case.sql, case.strategy.options())
            .and_then(|optimized| {
                let prepared = starmagic::prepared_from(&optimized, 1);
                execute_with_options(
                    &prepared.qgm,
                    engine.catalog(),
                    &indexes[case.engine],
                    ExecOptions {
                        threads,
                        ..ExecOptions::default()
                    },
                )
            });
        render(&mut out, &case.label, result);
    }
    out
}

#[test]
fn executor_output_matches_golden_at_any_thread_count() {
    let (engines, cases) = cases();
    assert!(cases.len() >= 900, "only {} cases", cases.len());
    if std::env::var_os("STARMAGIC_BLESS").is_some() {
        std::fs::create_dir_all(PathBuf::from(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, render_all(&engines, &cases, 1)).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    for threads in [1, 2, 4] {
        let text = render_all(&engines, &cases, threads);
        if text != golden {
            let line = text
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| text.lines().count().min(golden.lines().count()));
            panic!(
                "executor output at {threads} threads differs from {GOLDEN} at line {}:\n  now:    {:?}\n  golden: {:?}",
                line + 1,
                text.lines().nth(line),
                golden.lines().nth(line)
            );
        }
    }
}
