//! Duplicate-freeness and key inference.
//!
//! The distinct-pullup rewrite rule (and phase 3's ability to merge the
//! magic boxes away, Example 4.1) depends on proving that a box cannot
//! produce duplicate rows: "we inferred, in phase 2, that duplicates
//! were guaranteed to be absent from the magic tables". The inference
//! here is conservative and purely structural:
//!
//! * a base table is duplicate-free on its declared primary key;
//! * a select box joining duplicate-free inputs has, as a key, the
//!   union of one key per Foreach quantifier (E/A/scalar quantifiers
//!   never multiply rows); a key member equated to another column by a
//!   top-level join conjunct may map through that column instead;
//! * a group-by box is keyed by its group columns;
//! * a non-ALL set operation is keyed by the whole row;
//! * a box with `DistinctMode::Enforce`/`Preserve` is keyed by the
//!   whole row.
//!
//! Each call walks the box's whole input subtree. A caller asking about
//! every box of one graph (the static analysis) passes a [`KeysMemo`]
//! instead, so each box is walked once per graph.

use std::collections::{BTreeMap, BTreeSet};

use starmagic_catalog::Catalog;
use starmagic_sql::BinOp;

use crate::boxes::{BoxKind, DistinctMode, QuantKind};
use crate::expr::ScalarExpr;
use crate::graph::Qgm;
use crate::ids::BoxId;

/// Maximum number of candidate keys tracked per box, to bound the
/// combinatorial growth across joins.
const MAX_KEYS: usize = 4;

/// One Foreach quantifier's candidate keys: the quant id plus keys
/// expressed over (quant id, input column) pairs.
type QuantKeys = (u32, Vec<BTreeSet<(u32, usize)>>);

/// Candidate keys of a box's *output*, as sets of output-column
/// offsets. The empty set is a valid key (at most one row, e.g. a
/// global aggregate). An empty `Vec` means "no key known".
pub fn output_keys(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> Vec<BTreeSet<usize>> {
    keys_rec(qgm, catalog, b, &mut Walk::new(None))
}

/// Whether the box's output is provably duplicate-free.
pub fn is_dup_free(qgm: &Qgm, catalog: &Catalog, b: BoxId) -> bool {
    !output_keys(qgm, catalog, b).is_empty()
}

/// Output-column offsets of a box provably holding the same value in
/// every row. Conservative: only selects and group-bys propagate
/// constancy (an outer join NULL-pads, a set op mixes arms).
pub fn const_outputs(qgm: &Qgm, b: BoxId) -> BTreeSet<usize> {
    consts_rec(qgm, b, &mut Walk::new(None))
}

/// Memoized [`output_keys`] and [`const_outputs`] for the boxes of
/// *one* graph under one catalog. A box's result is stored only when
/// its walk never cut a recursive cycle: such a result depends on the
/// box alone, while a cut result depends on where the walk entered
/// the cycle. Answers are therefore identical to the unmemoized
/// functions.
#[derive(Debug, Default)]
pub struct KeysMemo {
    keys: BTreeMap<BoxId, Vec<BTreeSet<usize>>>,
    consts: BTreeMap<BoxId, BTreeSet<usize>>,
}

impl KeysMemo {
    /// [`output_keys`], reusing every result already proven for this
    /// graph.
    pub fn output_keys(&mut self, qgm: &Qgm, catalog: &Catalog, b: BoxId) -> Vec<BTreeSet<usize>> {
        keys_rec(qgm, catalog, b, &mut Walk::new(Some(self)))
    }

    /// [`const_outputs`], reusing every result already proven for
    /// this graph.
    pub fn const_outputs(&mut self, qgm: &Qgm, b: BoxId) -> BTreeSet<usize> {
        consts_rec(qgm, b, &mut Walk::new(Some(self)))
    }
}

/// State of one key/constancy walk.
struct Walk<'m> {
    /// Boxes on the current path (a repeat is a recursive cycle).
    visiting: BTreeSet<BoxId>,
    /// Cycle cuts taken so far. A result computed while this stayed
    /// put does not depend on the path that reached its box.
    cuts: usize,
    memo: Option<&'m mut KeysMemo>,
}

impl<'m> Walk<'m> {
    fn new(memo: Option<&'m mut KeysMemo>) -> Walk<'m> {
        Walk {
            visiting: BTreeSet::new(),
            cuts: 0,
            memo,
        }
    }

    /// `compute`'s answer for `b`, unless `b` is already on the path
    /// (a recursive cycle: the walk cuts it, counts the cut and claims
    /// nothing) or its answer is memoized in `table`.
    fn step<T: Clone + Default>(
        &mut self,
        b: BoxId,
        table: fn(&mut KeysMemo) -> &mut BTreeMap<BoxId, T>,
        compute: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if self.visiting.contains(&b) {
            self.cuts += 1;
            return T::default();
        }
        if let Some(v) = self.memo.as_deref_mut().and_then(|m| table(m).get(&b)) {
            return v.clone();
        }
        self.visiting.insert(b);
        let cuts = self.cuts;
        let v = compute(self);
        self.visiting.remove(&b);
        if self.cuts == cuts {
            if let Some(m) = self.memo.as_deref_mut() {
                table(m).insert(b, v.clone());
            }
        }
        v
    }
}

fn keys_rec(qgm: &Qgm, catalog: &Catalog, b: BoxId, w: &mut Walk<'_>) -> Vec<BTreeSet<usize>> {
    w.step(b, |m| &mut m.keys, |w| keys_inner(qgm, catalog, b, w))
}

fn keys_inner(qgm: &Qgm, catalog: &Catalog, b: BoxId, w: &mut Walk<'_>) -> Vec<BTreeSet<usize>> {
    let qb = qgm.boxed(b);
    let mut keys: Vec<BTreeSet<usize>> = Vec::new();

    match &qb.kind {
        BoxKind::BaseTable { table } => {
            if let Ok(t) = catalog.table(table) {
                if let Some(key) = &t.schema().key {
                    keys.push(key.iter().copied().collect());
                }
            }
        }
        BoxKind::GroupBy(g) => {
            // Output columns are group keys first, then aggregates; the
            // group keys are a key of the output. Keys pinned to a
            // constant in the input drop out. Zero (non-constant) group
            // keys ⇒ single-row output ⇒ the empty set is a key.
            let const_keys = const_group_keys(qgm, b, g, w);
            keys.push(
                (0..g.group_keys.len())
                    .filter(|i| !const_keys.contains(i))
                    .collect(),
            );
        }
        BoxKind::SetOp(s) => {
            if !s.all {
                keys.push((0..qb.arity()).collect());
            }
        }
        BoxKind::Select | BoxKind::OuterJoin(_) => {
            // One key from each Foreach quantifier's input; the union,
            // mapped through the output columns, keys the join output.
            let fquants: Vec<_> = qb
                .quants
                .iter()
                .copied()
                .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
                .collect();
            // Equality classes and constant columns from the box's
            // top-level conjuncts (plain selects only — an outer
            // join's NULL-padded rows are not filtered by its
            // predicate): a key member may map through any equivalent
            // column, and a constant member drops out of the key.
            let (eq_classes, const_cols) = if matches!(qb.kind, BoxKind::Select) {
                let eq = select_eq_classes(qgm, b);
                let cc = select_const_cols(qgm, b, &eq, w);
                (eq, cc)
            } else {
                (Vec::new(), BTreeSet::new())
            };
            // Per-quant candidate keys expressed as (quant, input col).
            let mut per_quant: Vec<QuantKeys> = Vec::new();
            let mut all_have_keys = true;
            for &q in &fquants {
                let input = qgm.quant(q).input;
                let input_keys = keys_rec(qgm, catalog, input, w);
                if input_keys.is_empty() {
                    all_have_keys = false;
                    break;
                }
                per_quant.push((
                    q.0,
                    input_keys
                        .into_iter()
                        .map(|k| k.into_iter().map(|c| (q.0, c)).collect())
                        .collect(),
                ));
            }
            if all_have_keys {
                let n = per_quant.len();
                // A subset R of the Foreach quants keys the join alone
                // when every quant outside R is transitively *pinned*
                // by R: some key of it is entirely equated to columns
                // of quants already accounted for, so it joins at most
                // one row per valuation of R (the magic-join shape —
                // the magic table's whole-row key is equated to the
                // adorned subquery's binding columns).
                let covers = |r: &[usize]| -> bool {
                    let mut have: Vec<u32> = r.iter().map(|&i| per_quant[i].0).collect();
                    let mut todo: Vec<usize> = (0..n).filter(|i| !r.contains(i)).collect();
                    loop {
                        let pos = todo.iter().position(|&i| {
                            let (qi, qkeys) = &per_quant[i];
                            qkeys.iter().any(|k| {
                                k.iter().all(|member| {
                                    const_cols.contains(member)
                                        || eq_classes.iter().any(|cls| {
                                            cls.contains(member)
                                                && cls
                                                    .iter()
                                                    .any(|(q2, _)| q2 != qi && have.contains(q2))
                                        })
                                })
                            })
                        });
                        match pos {
                            Some(p) => {
                                have.push(per_quant[todo[p]].0);
                                todo.remove(p);
                            }
                            None => break,
                        }
                    }
                    todo.is_empty()
                };
                // Smallest subsets first so minimal keys surface before
                // the MAX_KEYS truncation; past 8 quants only the full
                // set is tried (no pinning, the pre-equivalence rule).
                let subsets: Vec<Vec<usize>> = if n <= 8 {
                    let mut all: Vec<Vec<usize>> = (0u32..(1 << n))
                        .map(|mask| (0..n).filter(|i| mask >> i & 1 == 1).collect())
                        .collect();
                    all.sort_by_key(Vec::len);
                    all
                } else {
                    vec![(0..n).collect()]
                };
                for r in subsets {
                    if !covers(&r) {
                        continue;
                    }
                    // Cartesian combination, truncated to MAX_KEYS.
                    let mut combos: Vec<BTreeSet<(u32, usize)>> = vec![BTreeSet::new()];
                    for &i in &r {
                        let mut next = Vec::new();
                        for base in &combos {
                            for opt in &per_quant[i].1 {
                                let mut merged = base.clone();
                                merged.extend(opt.iter().copied());
                                next.push(merged);
                                if next.len() >= MAX_KEYS {
                                    break;
                                }
                            }
                            if next.len() >= MAX_KEYS {
                                break;
                            }
                        }
                        combos = next;
                    }
                    // Map each combo through the output columns: every
                    // (quant, col) member must appear as a plain ColRef
                    // — or as one of its equivalents. Members with
                    // several images fan out into several keys.
                    'combo: for combo in combos {
                        let mut offset_sets: Vec<BTreeSet<usize>> = vec![BTreeSet::new()];
                        for (q, c) in &combo {
                            let member = (*q, *c);
                            if const_cols.contains(&member) {
                                continue;
                            }
                            let class = eq_classes.iter().find(|s| s.contains(&member));
                            let images: Vec<usize> = qb
                                .columns
                                .iter()
                                .enumerate()
                                .filter_map(|(off, oc)| {
                                    let ScalarExpr::ColRef { quant, col } = &oc.expr else {
                                        return None;
                                    };
                                    let out = (quant.0, *col);
                                    (out == member || class.is_some_and(|s| s.contains(&out)))
                                        .then_some(off)
                                })
                                .collect();
                            if images.is_empty() {
                                continue 'combo;
                            }
                            let mut next = Vec::new();
                            for base in &offset_sets {
                                for &img in &images {
                                    let mut merged = base.clone();
                                    merged.insert(img);
                                    next.push(merged);
                                    if next.len() >= MAX_KEYS {
                                        break;
                                    }
                                }
                                if next.len() >= MAX_KEYS {
                                    break;
                                }
                            }
                            offset_sets = next;
                        }
                        keys.extend(offset_sets);
                    }
                }
            }
        }
    }

    // Dedup enforcement (or prior inference) keys the whole row.
    if matches!(qb.distinct, DistinctMode::Enforce | DistinctMode::Preserve)
        && !matches!(qb.kind, BoxKind::BaseTable { .. })
    {
        keys.push((0..qb.arity()).collect());
    }

    // Minimize: drop keys that are supersets of other keys; dedupe.
    keys.sort_by_key(std::collections::BTreeSet::len);
    let mut minimal: Vec<BTreeSet<usize>> = Vec::new();
    for k in keys {
        if !minimal.iter().any(|m| m.is_subset(&k)) {
            minimal.push(k);
        }
        if minimal.len() >= MAX_KEYS {
            break;
        }
    }
    minimal
}

/// Foreach quantifier ids of a box — the only quants whose predicates
/// act as plain row filters (conjuncts touching E/A quants carry
/// quantified semantics instead).
fn foreach_ids(qgm: &Qgm, b: BoxId) -> BTreeSet<u32> {
    qgm.boxed(b)
        .quants
        .iter()
        .copied()
        .filter(|&q| qgm.quant(q).kind == QuantKind::Foreach)
        .map(|q| q.0)
        .collect()
}

/// Column-equivalence classes from a select box's top-level `a = b`
/// conjuncts between Foreach columns: a surviving row has both sides
/// equal and non-NULL.
fn select_eq_classes(qgm: &Qgm, b: BoxId) -> Vec<BTreeSet<(u32, usize)>> {
    let fset = foreach_ids(qgm, b);
    let mut classes: Vec<BTreeSet<(u32, usize)>> = Vec::new();
    for p in &qgm.boxed(b).predicates {
        let ScalarExpr::Bin {
            op: BinOp::Eq,
            left,
            right,
        } = p
        else {
            continue;
        };
        let (ScalarExpr::ColRef { quant: ql, col: cl }, ScalarExpr::ColRef { quant: qr, col: cr }) =
            (&**left, &**right)
        else {
            continue;
        };
        if !fset.contains(&ql.0) || !fset.contains(&qr.0) {
            continue;
        }
        let a = (ql.0, *cl);
        let bb = (qr.0, *cr);
        let ia = classes.iter().position(|s| s.contains(&a));
        let ib = classes.iter().position(|s| s.contains(&bb));
        match (ia, ib) {
            (Some(i), Some(j)) if i != j => {
                let merged = classes.swap_remove(i.max(j));
                classes[i.min(j)].extend(merged);
            }
            (Some(_), Some(_)) => {}
            (Some(i), None) => {
                classes[i].insert(bb);
            }
            (None, Some(j)) => {
                classes[j].insert(a);
            }
            (None, None) => {
                classes.push([a, bb].into_iter().collect());
            }
        }
    }
    classes
}

/// (quant, col) pairs of a select box provably constant across all
/// surviving rows: equated to a literal by a top-level conjunct,
/// constant in the quantifier's input, or equality-connected to either.
/// Constant columns never contribute multiplicity, so they drop out of
/// candidate keys.
fn select_const_cols(
    qgm: &Qgm,
    b: BoxId,
    eq_classes: &[BTreeSet<(u32, usize)>],
    w: &mut Walk<'_>,
) -> BTreeSet<(u32, usize)> {
    let qb = qgm.boxed(b);
    let fset = foreach_ids(qgm, b);
    let mut consts: BTreeSet<(u32, usize)> = BTreeSet::new();
    for p in &qb.predicates {
        let ScalarExpr::Bin {
            op: BinOp::Eq,
            left,
            right,
        } = p
        else {
            continue;
        };
        // A parameter pins a column just like a literal: it has one
        // fixed (non-NULL) value for the whole execution.
        let col = match (&**left, &**right) {
            (ScalarExpr::ColRef { quant, col }, ScalarExpr::Literal(_) | ScalarExpr::Param(_))
            | (ScalarExpr::Literal(_) | ScalarExpr::Param(_), ScalarExpr::ColRef { quant, col }) => {
                (quant.0, *col)
            }
            _ => continue,
        };
        if fset.contains(&col.0) {
            consts.insert(col);
        }
    }
    for &q in &qb.quants {
        if qgm.quant(q).kind != QuantKind::Foreach {
            continue;
        }
        for c in consts_rec(qgm, qgm.quant(q).input, w) {
            consts.insert((q.0, c));
        }
    }
    for cls in eq_classes {
        if cls.iter().any(|m| consts.contains(m)) {
            consts.extend(cls.iter().copied());
        }
    }
    consts
}

fn consts_rec(qgm: &Qgm, b: BoxId, w: &mut Walk<'_>) -> BTreeSet<usize> {
    w.step(b, |m| &mut m.consts, |w| consts_inner(qgm, b, w))
}

fn consts_inner(qgm: &Qgm, b: BoxId, w: &mut Walk<'_>) -> BTreeSet<usize> {
    let qb = qgm.boxed(b);
    let mut out = BTreeSet::new();
    match &qb.kind {
        BoxKind::BaseTable { .. } | BoxKind::SetOp(_) | BoxKind::OuterJoin(_) => {}
        BoxKind::GroupBy(g) => {
            out = const_group_keys(qgm, b, g, w);
        }
        BoxKind::Select => {
            let eq = select_eq_classes(qgm, b);
            let consts = select_const_cols(qgm, b, &eq, w);
            for (i, oc) in qb.columns.iter().enumerate() {
                if expr_const(&oc.expr, &consts) {
                    out.insert(i);
                }
            }
        }
    }
    out
}

/// Group-key output offsets whose grouping expression is constant in
/// the input — every group shares that value, and with *all* group
/// keys constant there is at most one group.
fn const_group_keys(
    qgm: &Qgm,
    b: BoxId,
    g: &crate::boxes::GroupByBox,
    w: &mut Walk<'_>,
) -> BTreeSet<usize> {
    let qb = qgm.boxed(b);
    let mut consts: BTreeSet<(u32, usize)> = BTreeSet::new();
    for &q in &qb.quants {
        if qgm.quant(q).kind != QuantKind::Foreach {
            continue;
        }
        for c in consts_rec(qgm, qgm.quant(q).input, w) {
            consts.insert((q.0, c));
        }
    }
    g.group_keys
        .iter()
        .enumerate()
        .filter(|(_, k)| expr_const(k, &consts))
        .map(|(i, _)| i)
        .collect()
}

/// Whether an output/grouping expression is a literal or a reference to
/// a provably-constant column.
fn expr_const(e: &ScalarExpr, consts: &BTreeSet<(u32, usize)>) -> bool {
    match e {
        ScalarExpr::Literal(_) | ScalarExpr::Param(_) => true,
        ScalarExpr::ColRef { quant, col } => consts.contains(&(quant.0, *col)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxes::{BoxKind, GroupByBox, OutputCol, QuantKind};
    use starmagic_catalog::{ColumnDef, Table, TableSchema};
    use starmagic_common::DataType;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(Table::new(
            TableSchema::new(
                "dept",
                vec![
                    ColumnDef::new("deptno", DataType::Int),
                    ColumnDef::new("deptname", DataType::Str),
                ],
            )
            .with_key(&["deptno"])
            .unwrap(),
        ))
        .unwrap();
        c.add_table(Table::new(TableSchema::new(
            "log",
            vec![ColumnDef::new("msg", DataType::Str)],
        )))
        .unwrap();
        c
    }

    fn base_box(g: &mut Qgm, name: &str, cols: &[&str]) -> BoxId {
        let b = g.add_box(
            name.to_uppercase(),
            BoxKind::BaseTable { table: name.into() },
        );
        g.boxed_mut(b).columns = cols
            .iter()
            .map(|c| OutputCol {
                name: (*c).into(),
                expr: ScalarExpr::lit(0i64),
            })
            .collect();
        b
    }

    #[test]
    fn base_table_key_comes_from_catalog() {
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let keys = output_keys(&g, &cat, d);
        assert_eq!(keys, vec![[0usize].into_iter().collect::<BTreeSet<_>>()]);
        assert!(is_dup_free(&g, &cat, d));
    }

    #[test]
    fn keyless_table_is_not_dup_free() {
        let cat = catalog();
        let mut g = Qgm::new();
        let l = base_box(&mut g, "log", &["msg"]);
        assert!(!is_dup_free(&g, &cat, l));
    }

    #[test]
    fn select_preserving_key_is_dup_free() {
        // sm_query := SELECT deptno, deptname FROM dept WHERE ... —
        // the paper's supplementary box; key deptno survives.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let sm = g.add_box("SM_QUERY", BoxKind::Select);
        let q = g.add_quant(sm, d, QuantKind::Foreach, "d");
        g.boxed_mut(sm).columns = vec![
            OutputCol {
                name: "deptno".into(),
                expr: ScalarExpr::col(q, 0),
            },
            OutputCol {
                name: "deptname".into(),
                expr: ScalarExpr::col(q, 1),
            },
        ];
        assert!(is_dup_free(&g, &cat, sm));
        // Projecting the key away loses it.
        let sm2 = g.add_box("SM2", BoxKind::Select);
        let q2 = g.add_quant(sm2, d, QuantKind::Foreach, "d");
        g.boxed_mut(sm2).columns = vec![OutputCol {
            name: "deptname".into(),
            expr: ScalarExpr::col(q2, 1),
        }];
        assert!(!is_dup_free(&g, &cat, sm2));
    }

    #[test]
    fn projection_of_key_through_two_levels() {
        // m := SELECT deptno FROM sm (sm dup-free with key deptno)
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let sm = g.add_box("SM", BoxKind::Select);
        let q = g.add_quant(sm, d, QuantKind::Foreach, "d");
        g.boxed_mut(sm).columns = vec![
            OutputCol {
                name: "deptno".into(),
                expr: ScalarExpr::col(q, 0),
            },
            OutputCol {
                name: "deptname".into(),
                expr: ScalarExpr::col(q, 1),
            },
        ];
        let m = g.add_box("M", BoxKind::Select);
        let mq = g.add_quant(m, sm, QuantKind::Foreach, "sm");
        g.boxed_mut(m).columns = vec![OutputCol {
            name: "deptno".into(),
            expr: ScalarExpr::col(mq, 0),
        }];
        assert!(is_dup_free(&g, &cat, m), "paper's phase-2 inference");
    }

    #[test]
    fn group_by_keyed_by_group_cols() {
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let gb = g.add_box(
            "G",
            BoxKind::GroupBy(GroupByBox {
                group_keys: vec![],
                aggs: vec![],
            }),
        );
        let q = g.add_quant(gb, d, QuantKind::Foreach, "d");
        if let BoxKind::GroupBy(spec) = &mut g.boxed_mut(gb).kind {
            spec.group_keys = vec![ScalarExpr::col(q, 1)];
        }
        g.boxed_mut(gb).columns = vec![OutputCol {
            name: "deptname".into(),
            expr: ScalarExpr::col(q, 1),
        }];
        let keys = output_keys(&g, &cat, gb);
        assert!(keys.contains(&[0usize].into_iter().collect()));
    }

    #[test]
    fn join_union_of_keys() {
        let cat = catalog();
        let mut g = Qgm::new();
        let d1 = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let j = g.add_box("J", BoxKind::Select);
        let qa = g.add_quant(j, d1, QuantKind::Foreach, "a");
        let qb = g.add_quant(j, d1, QuantKind::Foreach, "b");
        g.boxed_mut(j).columns = vec![
            OutputCol {
                name: "a_no".into(),
                expr: ScalarExpr::col(qa, 0),
            },
            OutputCol {
                name: "b_no".into(),
                expr: ScalarExpr::col(qb, 0),
            },
        ];
        assert!(is_dup_free(&g, &cat, j));
        // Dropping one side's key breaks it.
        g.boxed_mut(j).columns.pop();
        assert!(!is_dup_free(&g, &cat, j));
    }

    #[test]
    fn equijoin_substitutes_unprojected_key_member() {
        // The magic-join shape after `extend_with_union`: m ranges over
        // a whole-row-keyed magic union, joins `m.deptno = g.deptno`,
        // and only g's column is projected. The conjunct makes the two
        // columns interchangeable, so the output is still keyed.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let j = g.add_box("J", BoxKind::Select);
        let qa = g.add_quant(j, d, QuantKind::Foreach, "m");
        let qb = g.add_quant(j, d, QuantKind::Foreach, "g");
        g.boxed_mut(j).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qa, 0),
            ScalarExpr::col(qb, 0),
        )];
        g.boxed_mut(j).columns = vec![OutputCol {
            name: "deptno".into(),
            expr: ScalarExpr::col(qb, 0),
        }];
        assert!(is_dup_free(&g, &cat, j), "m.deptno maps through g.deptno");
        // Without the conjunct the combo member has no image.
        g.boxed_mut(j).predicates.clear();
        assert!(!is_dup_free(&g, &cat, j));
    }

    #[test]
    fn pinned_quant_is_dropped_from_join_key() {
        // sm := a ⋈ b on a.deptno = b.deptno, projecting both sides of
        // the equality — keyed by either column alone.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let sm = g.add_box("SM", BoxKind::Select);
        let qa = g.add_quant(sm, d, QuantKind::Foreach, "a");
        let qb = g.add_quant(sm, d, QuantKind::Foreach, "b");
        g.boxed_mut(sm).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qa, 0),
            ScalarExpr::col(qb, 0),
        )];
        g.boxed_mut(sm).columns = vec![
            OutputCol {
                name: "w".into(),
                expr: ScalarExpr::col(qa, 0),
            },
            OutputCol {
                name: "d".into(),
                expr: ScalarExpr::col(qb, 0),
            },
        ];
        let keys = output_keys(&g, &cat, sm);
        assert!(keys.contains(&[0usize].into_iter().collect()));
        assert!(keys.contains(&[1usize].into_iter().collect()));
        // j := sm ⋈ t on sm.w = t.deptno, projecting only sm.d. The t
        // quant's whole key is pinned to sm.w, so it joins at most one
        // row per sm row and drops out; sm's `d` key carries through
        // even though the pinning column is not projected.
        let j = g.add_box("J", BoxKind::Select);
        let qsm = g.add_quant(j, sm, QuantKind::Foreach, "sm");
        let qt = g.add_quant(j, d, QuantKind::Foreach, "t");
        g.boxed_mut(j).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qsm, 0),
            ScalarExpr::col(qt, 0),
        )];
        g.boxed_mut(j).columns = vec![OutputCol {
            name: "c0".into(),
            expr: ScalarExpr::col(qsm, 1),
        }];
        assert!(is_dup_free(&g, &cat, j), "pinned t drops from the key");
    }

    #[test]
    fn constant_bound_key_member_drops_out() {
        // a.deptno = 0 pins a to at most one row, so b's key alone
        // keys the join even though a.deptno is not projected.
        let cat = catalog();
        let mut g = Qgm::new();
        let d = base_box(&mut g, "dept", &["deptno", "deptname"]);
        let j = g.add_box("J", BoxKind::Select);
        let qa = g.add_quant(j, d, QuantKind::Foreach, "a");
        let qb = g.add_quant(j, d, QuantKind::Foreach, "b");
        g.boxed_mut(j).predicates = vec![ScalarExpr::eq(
            ScalarExpr::col(qa, 0),
            ScalarExpr::lit(0i64),
        )];
        g.boxed_mut(j).columns = vec![OutputCol {
            name: "b_no".into(),
            expr: ScalarExpr::col(qb, 0),
        }];
        assert!(is_dup_free(&g, &cat, j));
        g.boxed_mut(j).predicates.clear();
        assert!(!is_dup_free(&g, &cat, j));
    }

    #[test]
    fn enforce_distinct_is_always_dup_free() {
        let cat = catalog();
        let mut g = Qgm::new();
        let l = base_box(&mut g, "log", &["msg"]);
        let s = g.add_box("S", BoxKind::Select);
        let q = g.add_quant(s, l, QuantKind::Foreach, "l");
        g.boxed_mut(s).columns = vec![OutputCol {
            name: "msg".into(),
            expr: ScalarExpr::col(q, 0),
        }];
        assert!(!is_dup_free(&g, &cat, s));
        g.boxed_mut(s).distinct = DistinctMode::Enforce;
        assert!(is_dup_free(&g, &cat, s));
    }

    #[test]
    fn memo_never_stores_a_result_cut_by_a_cycle() {
        // a ⇄ b. Entered at `a`, the walk cuts the cycle at `a` inside
        // `b`, so `b` looks keyless; entered at `b`, `b` maps a's
        // enforced whole-row key. The memo must not keep the first
        // answer for `b`.
        let cat = catalog();
        let mut g = Qgm::new();
        let a = g.add_box("A", BoxKind::Select);
        let b = g.add_box("B", BoxKind::Select);
        let qa = g.add_quant(a, b, QuantKind::Foreach, "b");
        let qb = g.add_quant(b, a, QuantKind::Foreach, "a");
        g.boxed_mut(a).columns = vec![OutputCol {
            name: "x".into(),
            expr: ScalarExpr::col(qa, 0),
        }];
        g.boxed_mut(a).distinct = DistinctMode::Enforce;
        g.boxed_mut(b).columns = vec![OutputCol {
            name: "x".into(),
            expr: ScalarExpr::col(qb, 0),
        }];
        let mut memo = KeysMemo::default();
        assert_eq!(memo.output_keys(&g, &cat, a), output_keys(&g, &cat, a));
        assert!(is_dup_free(&g, &cat, b));
        assert_eq!(memo.output_keys(&g, &cat, b), output_keys(&g, &cat, b));
    }

    #[test]
    fn recursive_box_claims_nothing() {
        let cat = catalog();
        let mut g = Qgm::new();
        let r = g.add_box("R", BoxKind::Select);
        let q = g.add_quant(r, r, QuantKind::Foreach, "r");
        g.boxed_mut(r).columns = vec![OutputCol {
            name: "x".into(),
            expr: ScalarExpr::col(q, 0),
        }];
        assert!(!is_dup_free(&g, &cat, r));
    }
}
