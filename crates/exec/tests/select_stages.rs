//! The select evaluator's scalar stages, one test per shape the vector
//! kernels cannot answer alone: a kernel error a short-circuit would
//! avoid, a correlated input, a subquery predicate beside a hash join,
//! and an empty join order. Each returns the rows a row-at-a-time
//! evaluation returns, on the fuzz database.

use starmagic::exec::{execute_with_options, ExecOptions, IndexCache};
use starmagic::qgm::{BoxKind, Qgm};
use starmagic::{Engine, MetricsRegistry, Strategy};
use starmagic_bench::fuzz_engine;
use starmagic_common::{Result, Row};

/// Run `sql` under `strategy` at `threads` workers; returns the rows
/// in output order, the executed plan, and the `exec.batch.batches`
/// counter of the run.
fn run(
    engine: &Engine,
    sql: &str,
    strategy: Strategy,
    threads: usize,
) -> Result<(Vec<Row>, Qgm, u64)> {
    let prepared = engine.prepare(sql, strategy)?;
    let metrics = MetricsRegistry::enabled();
    let (rows, _) = execute_with_options(
        &prepared.qgm,
        engine.catalog(),
        &IndexCache::default(),
        ExecOptions {
            threads,
            metrics: metrics.clone(),
            ..ExecOptions::default()
        },
    )?;
    let batches = metrics
        .snapshot()
        .counters
        .get("exec.batch.batches")
        .copied()
        .unwrap_or(0);
    Ok((rows, prepared.qgm, batches))
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(Row::group_cmp);
    rows
}

/// The vector OR evaluates both sides, so `10 / 0` fails in the kernel
/// on every row; a short-circuiting OR never reaches it because the
/// left side is True. The filter stage re-runs through the scalar
/// evaluator and keeps every row.
#[test]
fn kernel_error_a_short_circuit_avoids_reruns_the_stage() {
    let engine = fuzz_engine().unwrap();
    let (plain, _, _) = run(
        &engine,
        "SELECT d.deptno FROM department d WHERE d.deptno = d.deptno",
        Strategy::Original,
        1,
    )
    .unwrap();
    for threads in [1, 4] {
        let (rows, _, batches) = run(
            &engine,
            "SELECT d.deptno FROM department d \
             WHERE d.deptno = d.deptno OR 10 / (d.deptno - d.deptno) > 1",
            Strategy::Original,
            threads,
        )
        .unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows, plain, "threads={threads}");
        assert!(batches > 0, "the batch pipeline ran");
    }

    // Two tables: the predicate becomes ready at the second join stage.
    let (plain, _, _) = run(
        &engine,
        "SELECT e.empno, d.deptno FROM department d, employee e WHERE e.workdept = d.deptno",
        Strategy::Original,
        1,
    )
    .unwrap();
    for threads in [1, 4] {
        let (rows, _, _) = run(
            &engine,
            "SELECT e.empno, d.deptno FROM department d, employee e \
             WHERE e.workdept = d.deptno \
             AND (d.deptno = e.workdept OR 10 / (d.deptno - e.workdept) > 1)",
            Strategy::Original,
            threads,
        )
        .unwrap();
        assert_eq!(rows.len(), 642);
        assert_eq!(rows, plain, "threads={threads}");
    }
}

/// An error every evaluation order reaches is still reported, with the
/// scalar evaluator's text.
#[test]
fn kernel_error_no_short_circuit_avoids_is_reported() {
    let engine = fuzz_engine().unwrap();
    let err = run(
        &engine,
        "SELECT d.deptno FROM department d WHERE 10 / (d.deptno - d.deptno) > 1",
        Strategy::Original,
        1,
    )
    .unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

/// The scalar subquery's select ranges over a correlated aggregate, so
/// its input is re-evaluated once per department.
#[test]
fn correlated_input_is_reevaluated_per_combination() {
    let engine = fuzz_engine().unwrap();
    let sql = "SELECT d.deptno, \
               (SELECT MAX(e.salary) FROM employee e WHERE e.workdept = d.deptno) \
               FROM department d";
    let (rows, qgm, _) = run(&engine, sql, Strategy::Original, 1).unwrap();
    assert_eq!(rows.len(), 8);
    let correlated_select = qgm.box_ids().into_iter().any(|b| {
        matches!(qgm.boxed(b).kind, BoxKind::Select)
            && qgm.join_order(b).iter().any(|&q| {
                starmagic::planner::cost::is_correlated_subtree(&qgm, qgm.top(), qgm.quant(q).input)
            })
    });
    assert!(
        correlated_select,
        "the plan has a select over a correlated input"
    );
    let (grouped, _, _) = run(
        &engine,
        "SELECT d.deptno, m.top FROM department d, \
         (SELECT workdept AS w, MAX(salary) AS top FROM employee GROUP BY workdept) AS m \
         WHERE m.w = d.deptno",
        Strategy::Original,
        1,
    )
    .unwrap();
    assert_eq!(sorted(rows.clone()), sorted(grouped));
    let (parallel, _, _) = run(&engine, sql, Strategy::Original, 4).unwrap();
    assert_eq!(rows, parallel);
}

/// `EXISTS` and `IN` stay residual predicates of a box that also hash
/// joins; the scalar stage applies them before projecting.
#[test]
fn subquery_predicates_beside_a_hash_join() {
    let engine = fuzz_engine().unwrap();
    let sql = "SELECT e.empno, d.deptno FROM employee e, department d \
               WHERE e.workdept = d.deptno \
               AND EXISTS (SELECT 1 FROM project p WHERE p.deptno = d.deptno) \
               AND e.empno IN (SELECT a.empno FROM emp_act a WHERE a.hours > 10)";
    let (rows, _, _) = run(&engine, sql, Strategy::Original, 1).unwrap();
    let (magic, _, _) = run(&engine, sql, Strategy::Magic, 1).unwrap();
    assert!(!rows.is_empty());
    assert_eq!(sorted(rows.clone()), sorted(magic));
    let (parallel, _, _) = run(&engine, sql, Strategy::Original, 4).unwrap();
    assert_eq!(rows, parallel);
}

/// EMST's magic seed for a closure bound to a constant is a select
/// with no quantifier to join; its columns go through the scalar stage.
#[test]
fn empty_join_order() {
    let engine = fuzz_engine().unwrap();
    let sql = "WITH RECURSIVE tc (src, dst) AS ( \
               SELECT src, dst FROM edge \
               UNION \
               SELECT tc.src, e.dst FROM tc, edge e WHERE e.src = tc.dst \
               ) SELECT src, dst FROM tc WHERE src = 1";
    let (rows, qgm, _) = run(&engine, sql, Strategy::Magic, 1).unwrap();
    assert!(
        qgm.box_ids()
            .into_iter()
            .any(|b| matches!(qgm.boxed(b).kind, BoxKind::Select) && qgm.join_order(b).is_empty()),
        "the magic plan has a select with an empty join order"
    );
    let (original, _, _) = run(&engine, sql, Strategy::Original, 1).unwrap();
    assert_eq!(rows.len(), 5);
    assert_eq!(sorted(rows), sorted(original));
}
