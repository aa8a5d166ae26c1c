//! The analysis regression gate: with the EMST null-strictness gate
//! disabled (`PipelineOptions::unsound_decorrelation`, re-introducing
//! the decorrelation bug class the fuzzer originally caught), the
//! static analysis must flag the bad magic join on the corpus repro —
//! an L200 ERROR in `Optimized::analysis` — while the sound pipeline
//! on the same query stays clean. The pipeline's magic gate acts on
//! that finding: it refuses the magic plan and runs the phase-1 plan,
//! so the bug class costs a slower plan, never a wrong answer.

use starmagic::rewrite::engine::CheckLevel;
use starmagic::{Engine, MetricsRegistry, PipelineOptions};
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_common::Row;
use starmagic_lint::{Code, Severity};

/// The corpus repro that motivated the null-strictness gate: the
/// correlation `t4.workdept = t1.workdept` sits under an OR, so the
/// magic join test `mb = t1.workdept` is Unknown for NULL-workdept
/// employees while the original EXISTS can still be true via the
/// other disjunct.
const CORPUS: &str = "tests/corpus/emst_null_strict_or.sql";

fn engine() -> Engine {
    let mut engine = Engine::new(benchmark_catalog(Scale::small()).unwrap());
    // The one view the repro references (same definition as the
    // benchmark suite's).
    engine
        .run_sql(
            "CREATE VIEW mgrSal (empno, empname, workdept, salary) AS \
             SELECT e.empno, e.empname, e.workdept, e.salary \
             FROM employee e, department d WHERE e.empno = d.mgrno",
        )
        .unwrap();
    // A NULL-workdept employee: the row the unsound magic join drops.
    engine
        .run_sql("INSERT INTO employee VALUES (9001, 'Null_Dept', NULL, 52000.0, NULL, 1990)")
        .unwrap();
    engine
}

fn corpus_sql() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../", "tests/corpus/");
    let path = format!("{path}{}", CORPUS.rsplit('/').next().unwrap());
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn options(unsound: bool) -> PipelineOptions {
    PipelineOptions {
        force_magic: true,
        // PerFire would abort the rewrite at the first bad fire; the
        // gate wants the finished graph so the *analysis* is what
        // catches the bug.
        check: CheckLevel::Off,
        trace: false,
        unsound_decorrelation: unsound,
        ..PipelineOptions::default()
    }
}

#[test]
fn unsound_decorrelation_is_flagged_statically() {
    let engine = engine();
    let optimized = engine
        .optimize_with_options(&corpus_sql(), options(true))
        .expect("the unsound pipeline still optimizes");
    let report = optimized.analysis(engine.catalog()).report;
    let l200: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::L200NullStrictnessViolation)
        .collect();
    assert!(
        !l200.is_empty(),
        "the analysis must flag the non-null-strict magic predicate;\n\
         report was:\n{report}"
    );
    for d in &l200 {
        assert_eq!(d.code.severity(), Severity::Error);
    }
    assert!(report.has_errors());
}

#[test]
fn sound_decorrelation_stays_clean() {
    let engine = engine();
    let optimized = engine
        .optimize_with_options(&corpus_sql(), options(false))
        .expect("the sound pipeline optimizes");
    let report = optimized.analysis(engine.catalog()).report;
    let l200 = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::L200NullStrictnessViolation)
        .count();
    assert_eq!(
        l200, 0,
        "the gated pipeline must not decorrelate the OR query into a \
         magic join at all;\nreport was:\n{report}"
    );
    assert_eq!(optimized.magic_refused, None);
}

/// The repro's rows under `opts`, as a sorted bag.
fn bag(engine: &Engine, opts: PipelineOptions) -> Vec<Row> {
    let prepared = engine
        .prepare_with_options(&corpus_sql(), opts)
        .expect("the repro prepares");
    let mut rows = engine.execute_prepared(&prepared).unwrap().rows;
    rows.sort_by(Row::group_cmp);
    rows
}

#[test]
fn unsound_magic_plan_is_refused_and_rows_stay_correct() {
    let engine = engine();
    let original = bag(
        &engine,
        PipelineOptions {
            enable_magic: false,
            ..options(true)
        },
    );
    let cost_based = PipelineOptions {
        force_magic: false,
        ..options(true)
    };
    assert_eq!(bag(&engine, cost_based), original, "CostBased bag");
    assert_eq!(bag(&engine, options(true)), original, "Magic bag");

    let optimized = engine
        .optimize_with_options(&corpus_sql(), options(true))
        .unwrap();
    assert_eq!(
        optimized.magic_refused,
        Some(Code::L200NullStrictnessViolation)
    );
    assert!(!optimized.chose_magic, "a refused magic plan never runs");
    assert!(std::ptr::eq(optimized.chosen(), &optimized.phase1));
    let explain = starmagic::explain::render(&optimized, engine.catalog());
    assert!(explain.contains("== magic refused: L200"), "{explain}");
}

#[test]
fn refusal_is_counted_in_a_live_registry() {
    let mut engine = engine();
    let registry = MetricsRegistry::enabled();
    engine.set_metrics(registry.clone());
    let prepared = engine
        .prepare_with_options(&corpus_sql(), options(true))
        .unwrap();
    assert!(!prepared.used_magic);
    assert_eq!(
        prepared.magic_refused,
        Some(Code::L200NullStrictnessViolation)
    );
    assert_eq!(registry.counter("planner.magic_refused.L200").get(), 1);
    // Inspecting the refused query serves nothing, so it is not counted.
    let optimized = engine
        .optimize_with_options(&corpus_sql(), options(true))
        .unwrap();
    assert_eq!(
        optimized.magic_refused,
        Some(Code::L200NullStrictnessViolation)
    );
    assert_eq!(registry.counter("planner.magic_refused.L200").get(), 1);
    // The sound pipeline refuses nothing.
    engine
        .prepare_with_options(&corpus_sql(), options(false))
        .unwrap();
    assert_eq!(registry.counter("planner.magic_refused.L200").get(), 1);
}

/// The flag must stay off by default — it exists only for this gate.
#[test]
fn unsound_flag_defaults_off() {
    assert!(!PipelineOptions::default().unsound_decorrelation);
}
