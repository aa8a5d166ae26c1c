//! Pass 8: parallel-safety of deposited join orders.
//!
//! The executor runs a box's stages on worker threads only through
//! its vector kernels, which evaluate *pure* expressions — no
//! aggregate, no quantified subquery test, and every column reference
//! bound to a Foreach quantifier. Anything else runs in the serial
//! scalar stage. A correlated existential/universal quantifier is the
//! worst offender: evaluating it re-enters the executor once per outer
//! row, which can never run under worker threads. A join order that
//! names such a quantifier therefore pins its box to the serial scalar
//! stage while looking like an ordinary planned join.
//!
//! L110 makes that statically visible: it flags each join-order entry
//! that is a correlated non-Foreach quantifier, attributed to the box
//! and the quantifier. The finding is a warning — the serial scalar
//! stage is always correct — but under per-fire attribution
//! it points at the exact rewrite rule that deposited the unsafe
//! order.

use std::collections::BTreeSet;

use starmagic_qgm::{BoxId, BoxKind, Qgm, ScalarExpr};

use crate::diag::{Code, LintReport};

pub fn run(qgm: &Qgm, report: &mut LintReport) {
    for id in qgm.box_ids() {
        let b = qgm.boxed(id);
        let Some(order) = &b.join_order else {
            continue;
        };
        for &q in order {
            if !qgm.quant_exists(q) {
                continue; // L009 (error) covers dead entries
            }
            let quant = qgm.quant(q);
            if quant.parent != id || quant.kind.is_foreach() {
                continue; // foreign entries are L103's business
            }
            if is_correlated_subtree(qgm, quant.input) {
                report.push(
                    Code::L110ParallelUnsafeJoinOrder,
                    Some(id),
                    Some(q),
                    format!(
                        "join order of {} lists {q}, a correlated subquery \
                         quantifier — the executor cannot parallelize this box",
                        b.name
                    ),
                );
            }
        }
    }
}

/// Whether the subtree rooted at `sub` references any quantifier owned
/// outside it (correlation into an enclosing box). A local copy of the
/// planner's detector — lint sits below the planner in the crate
/// graph, and the check is a few lines of traversal.
fn is_correlated_subtree(qgm: &Qgm, sub: BoxId) -> bool {
    let mut seen: BTreeSet<BoxId> = BTreeSet::new();
    let mut stack = vec![sub];
    while let Some(x) = stack.pop() {
        if !qgm.box_exists(x) || !seen.insert(x) {
            continue;
        }
        for &q in &qgm.boxed(x).quants {
            if qgm.quant_exists(q) {
                stack.push(qgm.quant(q).input);
            }
        }
    }
    for &x in &seen {
        let qb = qgm.boxed(x);
        let mut exprs: Vec<&ScalarExpr> = qb.predicates.iter().collect();
        exprs.extend(qb.columns.iter().map(|c| &c.expr));
        if let BoxKind::GroupBy(g) = &qb.kind {
            exprs.extend(g.group_keys.iter());
            exprs.extend(g.aggs.iter().filter_map(|a| a.arg.as_ref()));
        }
        for e in exprs {
            for q in e.quantifiers() {
                if qgm.quant_exists(q) && !seen.contains(&qgm.quant(q).parent) {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintReport;
    use starmagic_qgm::boxes::OutputCol;
    use starmagic_qgm::{QuantId, QuantKind};

    /// Top box over base `t`, plus a subquery box under an existential
    /// quantifier. Returns (graph, outer Foreach quant, E-quant,
    /// subquery box).
    fn graph_with_subquery() -> (Qgm, QuantId, QuantId, BoxId) {
        let mut g = Qgm::new();
        let base = g.add_box("T", BoxKind::BaseTable { table: "t".into() });
        g.boxed_mut(base).columns = vec![
            OutputCol {
                name: "a".into(),
                expr: ScalarExpr::lit(0i64),
            },
            OutputCol {
                name: "b".into(),
                expr: ScalarExpr::lit(0i64),
            },
        ];
        let top = g.top();
        let f = g.add_quant(top, base, QuantKind::Foreach, "t");
        let sub = g.add_box("SUB", BoxKind::Select);
        let sq = g.add_quant(sub, base, QuantKind::Foreach, "s");
        g.boxed_mut(sub).columns = vec![OutputCol {
            name: "a".into(),
            expr: ScalarExpr::col(sq, 0),
        }];
        let e = g.add_quant(top, sub, QuantKind::Existential { negated: false }, "e");
        g.boxed_mut(top).columns = vec![OutputCol {
            name: "a".into(),
            expr: ScalarExpr::col(f, 0),
        }];
        starmagic_qgm::strata::assign(&mut g);
        (g, f, e, sub)
    }

    fn run_pass(g: &Qgm) -> LintReport {
        let mut report = LintReport::default();
        run(g, &mut report);
        report
    }

    #[test]
    fn correlated_e_quant_in_join_order_fires_with_attribution() {
        let (mut g, f, e, sub) = graph_with_subquery();
        // Correlate the subquery: its predicate reads the outer t.
        g.boxed_mut(sub).predicates.push(ScalarExpr::col(f, 1));
        let top = g.top();
        g.boxed_mut(top).join_order = Some(vec![f, e]);
        let report = run_pass(&g);
        let d = report
            .find(Code::L110ParallelUnsafeJoinOrder)
            .expect("L110 must fire");
        assert_eq!(d.box_id, Some(top), "attributed to the ordered box");
        assert_eq!(d.quant, Some(e), "attributed to the unsafe quantifier");
        assert!(!report.has_errors(), "L110 is a warning");
    }

    #[test]
    fn uncorrelated_e_quant_is_not_flagged() {
        let (mut g, f, e, _) = graph_with_subquery();
        let top = g.top();
        g.boxed_mut(top).join_order = Some(vec![f, e]);
        let report = run_pass(&g);
        assert!(
            report.find(Code::L110ParallelUnsafeJoinOrder).is_none(),
            "uncorrelated subquery is safe to evaluate anywhere: {report}"
        );
    }

    #[test]
    fn correlated_e_quant_outside_the_join_order_is_not_flagged() {
        let (mut g, f, _, sub) = graph_with_subquery();
        g.boxed_mut(sub).predicates.push(ScalarExpr::col(f, 1));
        let top = g.top();
        g.boxed_mut(top).join_order = Some(vec![f]); // E-quant not ordered
        let report = run_pass(&g);
        assert!(
            report.find(Code::L110ParallelUnsafeJoinOrder).is_none(),
            "{report}"
        );
    }

    #[test]
    fn foreach_only_join_order_is_clean() {
        let (mut g, f, _, _) = graph_with_subquery();
        let top = g.top();
        g.boxed_mut(top).join_order = Some(vec![f]);
        let report = run_pass(&g);
        assert!(report.is_clean(), "{report}");
    }
}
