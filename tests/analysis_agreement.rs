//! Analysis-vs-runtime agreement: every query the repo already trusts
//! — the Table-1 experiment suite (both formulations) and the fuzz
//! corpus repros — is optimized, executed, and checked against the
//! static facts of its chosen plan. The executed rows must land inside
//! the proven multiplicity bounds, `NotNull` columns must hold no
//! NULLs, `Null` columns nothing else, and no L2xx error may fire on a
//! sound plan. A failure here means either the runtime or the abstract
//! interpretation is wrong about SQL semantics — both are bugs worth a
//! red build.

use std::path::PathBuf;

use starmagic::rewrite::engine::CheckLevel;
use starmagic::PipelineOptions;
use starmagic_common::Row;
use starmagic_fuzz::fuzz_engine;
use starmagic_fuzz::oracle::analysis_disagreement;

/// Optimize + execute `sql` under both post-rewrite strategies and
/// assert the analysis agrees with what actually ran. Queries the fuzz
/// engine rejects (unsupported syntax) are skipped — this test is
/// about agreement, not coverage.
fn assert_agreement(engine: &starmagic::Engine, label: &str, sql: &str) {
    let base = PipelineOptions {
        check: CheckLevel::PerFire,
        trace: false,
        ..PipelineOptions::default()
    };
    let strategies = [
        ("cost", base),
        (
            "magic",
            PipelineOptions {
                force_magic: true,
                ..base
            },
        ),
    ];
    for (name, opts) in strategies {
        let Ok(optimized) = engine.optimize_with_options(sql, opts) else {
            continue;
        };
        let mut rows: Vec<Row> = engine
            .execute_prepared(&starmagic::prepared_from(&optimized, 1))
            .unwrap_or_else(|e| panic!("{label} [{name}] prepared but failed to run: {e}"))
            .rows;
        rows.sort_by(Row::group_cmp);
        let analysis = optimized.analysis(engine.catalog());
        if let Some(detail) = analysis_disagreement(&analysis, optimized.chosen().top(), &rows) {
            panic!("{label} [{name}] analysis disagrees with execution:\n{detail}");
        }
    }
}

#[test]
fn suite_respects_static_facts() {
    let engine = fuzz_engine().expect("fuzz engine builds");
    for exp in starmagic_bench::experiments() {
        assert_agreement(
            &engine,
            &format!("suite:{}:original", exp.id),
            exp.original_sql,
        );
        assert_agreement(
            &engine,
            &format!("suite:{}:correlated", exp.id),
            exp.correlated_sql,
        );
    }
}

#[test]
fn corpus_respects_static_facts() {
    let engine = fuzz_engine().expect("fuzz engine builds");
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "corpus dir is empty: {}", dir.display());
    let mut checked = 0usize;
    for path in files {
        let sql = std::fs::read_to_string(&path).unwrap();
        assert_agreement(&engine, &format!("corpus:{}", path.display()), &sql);
        checked += 1;
    }
    assert!(checked >= 10, "expected a real corpus, saw {checked} files");
}
