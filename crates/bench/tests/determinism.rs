//! Determinism suite: the parallel executor's contract is that results
//! are **byte-identical** to serial at every thread count — same rows
//! in the same order, same metrics, same per-box profile counters.
//!
//! Every Table-1 experiment runs in all three formulations (Original,
//! Correlated, EMST) serially and at 2, 4, and 8 worker threads
//! (override with `STARMAGIC_TEST_THREADS=n` — the CI matrix pins 1
//! and 4), comparing against the one-thread baseline. Timing is off,
//! so the whole [`ExecProfile`] can be compared with `==`: elapsed
//! stays zero and every other field is a deterministic counter.
//!
//! The database is deliberately larger than `Scale::small()`: the
//! executor only goes parallel above `PARALLEL_THRESHOLD` (512) rows,
//! and 40 departments × 20 employees puts the employee scans and
//! activity joins well past it, so these tests exercise the real
//! morsel paths rather than the inline serial run.

use std::collections::{BTreeMap, BTreeSet};

use starmagic::exec::{execute_with_options, ExecOptions, ExecProfile, IndexCache};
use starmagic::planner::feedback;
use starmagic::{Engine, Strategy};
use starmagic_bench::{bench_engine, experiments};
use starmagic_catalog::generator::Scale;
use starmagic_common::Row;

/// 800 employees / 2400 activity rows: past the executor's parallel
/// threshold in the hot loops, small enough to run every combination.
fn det_scale() -> Scale {
    Scale {
        departments: 40,
        emps_per_dept: 20,
        projects_per_dept: 5,
        acts_per_emp: 3,
        seed: 11,
    }
}

/// Worker-thread counts to compare against the serial baseline.
/// `STARMAGIC_TEST_THREADS` (the CI matrix knob) narrows the sweep to
/// one count.
fn thread_counts() -> Vec<usize> {
    match std::env::var("STARMAGIC_TEST_THREADS") {
        Ok(v) => vec![v
            .parse()
            .expect("STARMAGIC_TEST_THREADS must be an integer >= 1")],
        Err(_) => vec![2, 4, 8],
    }
}

/// The three formulations of one experiment, labelled.
fn formulations(exp: &starmagic_bench::Experiment) -> [(&'static str, &'static str, Strategy); 3] {
    [
        ("original", exp.original_sql, Strategy::Original),
        ("correlated", exp.correlated_sql, Strategy::Original),
        ("emst", exp.original_sql, Strategy::Magic),
    ]
}

/// Run one prepared plan at a thread count, timing off.
fn run(
    engine: &Engine,
    qgm: &starmagic::qgm::Qgm,
    indexes: &IndexCache,
    threads: usize,
) -> (Vec<Row>, ExecProfile) {
    execute_with_options(
        qgm,
        engine.catalog(),
        indexes,
        ExecOptions {
            threads,
            ..ExecOptions::default()
        },
    )
    .expect("execution")
}

/// Every experiment × formulation: rows, per-box profile, and the
/// aggregated metrics must be identical at any thread count.
#[test]
fn every_experiment_is_byte_identical_at_any_thread_count() {
    let engine = bench_engine(det_scale()).unwrap();
    let indexes = IndexCache::default();
    for exp in experiments() {
        for (label, sql, strat) in formulations(&exp) {
            let prepared = engine.prepare(sql, strat).unwrap();
            let (base_rows, base_profile) = run(&engine, &prepared.qgm, &indexes, 1);
            for &threads in &thread_counts() {
                let (rows, profile) = run(&engine, &prepared.qgm, &indexes, threads);
                assert_eq!(
                    base_rows, rows,
                    "experiment {} ({label}): rows diverge at {threads} threads",
                    exp.id
                );
                assert_eq!(
                    base_profile, profile,
                    "experiment {} ({label}): per-box profile diverges at {threads} threads",
                    exp.id
                );
                assert_eq!(
                    base_profile.aggregate(),
                    profile.aggregate(),
                    "experiment {} ({label}): metrics diverge at {threads} threads",
                    exp.id
                );
            }
        }
    }
}

/// The same contract through the engine's public knob: prepared plans
/// carry the thread count, and `execute_prepared` results (rows and
/// metrics) don't depend on it.
#[test]
fn engine_thread_knob_preserves_results_and_metrics() {
    let mut engine = bench_engine(det_scale()).unwrap();
    for exp in experiments() {
        for (label, sql, strat) in formulations(&exp) {
            engine.set_threads(1);
            let base = engine
                .execute_prepared(&engine.prepare(sql, strat).unwrap())
                .unwrap();
            for &threads in &thread_counts() {
                engine.set_threads(threads);
                let r = engine
                    .execute_prepared(&engine.prepare(sql, strat).unwrap())
                    .unwrap();
                assert_eq!(
                    base.rows, r.rows,
                    "experiment {} ({label}): engine rows diverge at {threads} threads",
                    exp.id
                );
                assert_eq!(
                    base.metrics, r.metrics,
                    "experiment {} ({label}): engine metrics diverge at {threads} threads",
                    exp.id
                );
            }
        }
    }
}

/// The planner's cardinality-feedback loop sees the same numbers from
/// a parallel run as from a serial one: identical misestimation report
/// and histogram — per-worker counters merge without drift.
#[test]
fn misestimation_histogram_is_thread_invariant() {
    let engine = bench_engine(det_scale()).unwrap();
    let indexes = IndexCache::default();
    for exp in experiments() {
        let prepared = engine.prepare(exp.original_sql, Strategy::Magic).unwrap();
        let live: BTreeSet<_> = prepared.qgm.box_ids().into_iter().collect();
        let report_at = |threads: usize| {
            let (_, profile) = run(&engine, &prepared.qgm, &indexes, threads);
            let actuals: BTreeMap<_, _> = profile
                .boxes
                .iter()
                .filter(|(b, bp)| bp.evals > 0 && live.contains(b))
                .map(|(b, bp)| (*b, (bp.rows_out, bp.evals)))
                .collect();
            feedback::cardinality_report(&prepared.qgm, engine.catalog(), &actuals)
        };
        let serial = report_at(1);
        for &threads in &thread_counts() {
            let parallel = report_at(threads);
            assert_eq!(
                serial, parallel,
                "experiment {}: cardinality report diverges at {threads} threads",
                exp.id
            );
            assert_eq!(
                feedback::bucket_histogram(&serial),
                feedback::bucket_histogram(&parallel),
                "experiment {}: misestimation histogram diverges at {threads} threads",
                exp.id
            );
        }
    }
}
