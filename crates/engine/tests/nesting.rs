//! Nesting depth is capped at parse time, so a deeply nested statement
//! is a clean error on a server session's default 2 MiB stack instead
//! of a stack overflow that aborts the process.

use starmagic::sql::MAX_NESTING;
use starmagic::{Engine, Strategy};
use starmagic_catalog::generator::{benchmark_catalog, Scale};
use starmagic_common::Result;

/// A server session thread's default stack.
const SESSION_STACK: usize = 2 << 20;

/// `SELECT ((…(1)…)) FROM department` with `depth` parentheses.
fn nested_select(depth: usize) -> String {
    format!(
        "SELECT {}1{} FROM department",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

/// Run `sql` through the cached serving path on a session-sized stack.
fn query_on_session_stack(sql: String) -> Result<usize> {
    std::thread::Builder::new()
        .stack_size(SESSION_STACK)
        .spawn(move || {
            let engine = Engine::new(benchmark_catalog(Scale::small()).unwrap());
            engine
                .query_cached(&sql, Strategy::CostBased)
                .map(|r| r.rows.len())
        })
        .unwrap()
        .join()
        .expect("the query thread must not overflow its stack")
}

#[test]
fn twenty_thousand_parentheses_are_a_parse_error() {
    let err = query_on_session_stack(nested_select(20_000)).unwrap_err();
    assert!(
        err.to_string()
            .contains(&format!("nesting deeper than {MAX_NESTING}")),
        "{err}"
    );
}

#[test]
fn nesting_just_under_the_cap_still_runs() {
    // The select item is one level, so this is the deepest accepted.
    let rows = query_on_session_stack(nested_select(MAX_NESTING - 2)).unwrap();
    assert_eq!(rows, Scale::small().departments);
}

#[test]
fn deep_subqueries_and_prefix_chains_are_capped_too() {
    let subqueries = format!(
        "SELECT deptno FROM department WHERE deptno IN {}SELECT deptno FROM department{}",
        "(SELECT deptno FROM department WHERE deptno IN ".repeat(20_000) + "(",
        ")".repeat(20_001)
    );
    let negations = format!("SELECT {}1 FROM department", "- ".repeat(20_000));
    let nots = format!(
        "SELECT deptno FROM department WHERE {}deptno = 1",
        "NOT ".repeat(20_000)
    );
    for sql in [subqueries, negations, nots] {
        let err = query_on_session_stack(sql).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }
}
