//! The starmagic executor: evaluates a query graph over the catalog's
//! in-memory tables with SQL bag semantics.
//!
//! Key properties, all load-bearing for the paper's experiments:
//!
//! * **Set-oriented where possible**: every box whose subtree does not
//!   reference outer quantifiers is materialized exactly once and
//!   cached — views and magic tables are computed once, common
//!   subexpressions shared.
//! * **Tuple-at-a-time where forced**: a correlated subquery (a box
//!   referencing outer quantifiers) is re-evaluated for every outer
//!   row, with *no* memoization across bindings — the behaviour of the
//!   paper's "Correlated" baseline, whose instability Table 1
//!   demonstrates.
//! * Select boxes run through one batch pipeline (`columnar`): hash
//!   joins whenever equality predicates connect the next quantifier
//!   to already-bound ones (NULL join keys never match), index nested
//!   loops into stored tables for small outers, otherwise nested loops
//!   with early predicate application — all over id vectors into
//!   shared column batches, with vectorized predicates. What does not
//!   vectorize (subquery predicates, scalar subqueries) runs in a
//!   scalar stage of the same pipeline.
//! * Aggregation, duplicate elimination, and set operations follow SQL
//!   semantics exactly (three-valued logic in predicates, NULLs equal
//!   for grouping, `COUNT`=0 vs `SUM`=NULL on empty input, bag
//!   `EXCEPT ALL`/`INTERSECT ALL`).
//! * Recursive boxes (cyclic subgraphs) are evaluated by naive
//!   fixpoint iteration with set semantics.
//!
//! The executor also attributes the rows each operator touches to the
//! QGM box doing the touching ([`ExecProfile`]); the flat [`Metrics`]
//! aggregate survives as the deterministic work metric benchmarks
//! report alongside wall-clock time.

#![forbid(unsafe_code)]

pub mod agg;
pub mod batch;
mod columnar;
pub mod executor;
pub mod like;
pub mod metrics;
pub mod parallel;
pub mod profile;
mod vector;

pub use batch::{Batch, Bitmap, Column};
pub use executor::{
    execute, execute_with_metrics, execute_with_options, ExecOptions, Executor, IdIndex, IndexCache,
};
pub use metrics::Metrics;
pub use profile::{BoxProfile, ExecProfile};
