//! The select evaluator: batch-at-a-time join/filter/project with late
//! materialization.
//!
//! [`run`] is the only way a select box is evaluated. It carries the
//! intermediate join state as id vectors into shared [`Batch`]es
//! instead of materialized row combinations; values are gathered only
//! when a kernel touches them, and rows exist again only at the box
//! boundary. Each quantifier in the join order is one stage:
//!
//! * an **uncorrelated** input joins by index nested loop (a small
//!   outer against a stored table), hash join (equality predicates
//!   connect it to bound quantifiers) or cross product, with the same
//!   classification and the same profile counters at every thread
//!   count;
//! * a **correlated** input is re-evaluated once per combination on a
//!   frame binding that combination's rows — the tuple-at-a-time
//!   behaviour of the paper's "Correlated" baseline — and the child
//!   rows become a new batch slot;
//! * then every join-time predicate that just became available filters
//!   the combinations.
//!
//! **The scalar stage.** What does not compile to a [`VExpr`] —
//! subquery and quantified predicates, scalar-subquery columns, and
//! the predicates of a box with an empty join order — is evaluated
//! position by position through [`Executor::eval_expr`], on a frame
//! holding each combination's rows. When a box has such residual
//! predicates, one scalar pass applies them and projects, in the
//! order a row-at-a-time evaluator would: predicates in declaration
//! order with short-circuit, then the columns.
//!
//! **Kernel errors.** The vector kernels evaluate a superset of the
//! (expression, position) pairs a row-at-a-time evaluation would: AND
//! and OR do not short-circuit, and hash keys are computed whole even
//! past a NULL. On every pair both evaluate, the values are identical.
//! So a stage whose kernels succeed has exactly the row-at-a-time
//! result, and a stage whose kernel fails is re-run through the
//! scalar evaluator, which either succeeds (the failing pair was one
//! a short-circuit skips) or reports the row-at-a-time error text.
//! Stage counters are charged only once a stage has its result.
//!
//! Rows, order, profile and errors are therefore the same at any
//! thread count; `tests/golden/exec_rows_profiles.txt` in the bench
//! crate pins them.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use starmagic_common::{Result, Row, Value};
use starmagic_qgm::{BoxId, BoxKind, QuantId, ScalarExpr};

use crate::batch::{Batch, Column};
use crate::executor::{dedupe, truth_of, Executor, Frame};
use crate::parallel::{run_batches, MORSEL_ROWS, PARALLEL_THRESHOLD};
use crate::vector::{compile, eval, SlotView, VExpr, Vector};

/// Join state: one shared batch + one id vector per bound quantifier.
/// All id vectors have length `len` — position `k` across them is one
/// join combination, never materialized as a row until projection.
struct State {
    batches: Vec<Arc<Batch>>,
    ids: Vec<Vec<u32>>,
    len: usize,
}

impl State {
    fn views(&self) -> Vec<SlotView<'_>> {
        self.batches
            .iter()
            .zip(&self.ids)
            .map(|(batch, ids)| SlotView {
                batch: batch.as_ref(),
                ids,
            })
            .collect()
    }

    /// The rows of combination `k`, one per bound quantifier: the
    /// frame the scalar evaluator sees.
    fn rows_at(&self, k: usize) -> Vec<Row> {
        self.batches
            .iter()
            .zip(&self.ids)
            .map(|(batch, ids)| batch.row(ids[k] as usize))
            .collect()
    }

    /// Gather every id vector through `parent` positions, then append
    /// a new slot. One join stage's late materialization: only id
    /// vectors move, never values.
    fn advance(&mut self, parent: &[u32], batch: Arc<Batch>, new_ids: Vec<u32>) {
        for ids in &mut self.ids {
            *ids = parent.iter().map(|&p| ids[p as usize]).collect();
        }
        self.len = new_ids.len();
        self.batches.push(batch);
        self.ids.push(new_ids);
    }

    /// Keep only `keep` positions (a filter stage).
    fn retain(&mut self, keep: &[u32]) {
        for ids in &mut self.ids {
            *ids = keep.iter().map(|&p| ids[p as usize]).collect();
        }
        self.len = keep.len();
    }
}

/// One join stage's output: for each new combination, its parent
/// position and its row id in the new slot's batch.
struct Joined {
    parent: Vec<u32>,
    ids: Vec<u32>,
    batch: Arc<Batch>,
}

/// One join stage: quantifier `q` of select box `b`, ranging over
/// `child`, joined onto the combinations of `state` (whose slots bind
/// `bound`) under the enclosing `frame`.
struct Stage<'s, 'f> {
    b: BoxId,
    q: QuantId,
    child: BoxId,
    state: &'s State,
    bound: &'s [QuantId],
    frame: &'s Frame<'f>,
}

impl Stage<'_, '_> {
    /// Batch slot of a bound quantifier.
    fn slot_of(&self, x: QuantId) -> Option<usize> {
        self.bound.iter().position(|&y| y == x)
    }

    /// Slot of the joined quantifier in a one-slot build-side view.
    fn build_slot(&self, x: QuantId) -> Option<usize> {
        (x == self.q).then_some(0)
    }

    /// [`for_each_position`] over this stage's combinations.
    fn for_each_position(
        &self,
        exec: &mut Executor<'_>,
        f: impl FnMut(&mut Executor<'_>, u32, &Frame<'_>) -> Result<()>,
    ) -> Result<()> {
        for_each_position(exec, self.state, self.bound, self.frame, f)
    }
}

/// Record one stage of `n` input rows in the batch telemetry.
fn note_stage(exec: &Executor<'_>, n: usize) {
    exec.batch_runs.add(n.div_ceil(MORSEL_ROWS).max(1) as u64);
    exec.batch_rows.record(n as u64);
}

/// Run one stage's per-position kernels serially or over position
/// chunks on the worker pool; chunk outputs come back in position
/// order, so the result is byte-identical either way.
fn dispatch<R: Send>(
    exec: &Executor<'_>,
    n: usize,
    f: impl Fn(&[u32]) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    if exec.threads > 1 && n >= PARALLEL_THRESHOLD {
        exec.note_morsel_run(n);
        Ok(run_batches(exec.threads, n, |chunk, _| f(chunk))?.0)
    } else {
        let positions: Vec<u32> = (0..n as u32).collect();
        Ok(vec![f(&positions)?])
    }
}

/// Call `f` for every combination of `state`, in position order, on a
/// frame binding `bound` to that combination's rows.
fn for_each_position(
    exec: &mut Executor<'_>,
    state: &State,
    bound: &[QuantId],
    frame: &Frame<'_>,
    mut f: impl FnMut(&mut Executor<'_>, u32, &Frame<'_>) -> Result<()>,
) -> Result<()> {
    for k in 0..state.len {
        let rows = state.rows_at(k);
        f(exec, k as u32, &frame.extended(bound, &rows))?;
    }
    Ok(())
}

/// Whether every predicate is True on `frame`, evaluated in order and
/// stopping at the first that is not.
fn passes_all<'e>(
    exec: &mut Executor<'_>,
    preds: impl IntoIterator<Item = &'e ScalarExpr>,
    frame: &Frame<'_>,
) -> Result<bool> {
    for p in preds {
        if !truth_of(&exec.eval_expr(p, frame)?).passes() {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Evaluate select box `b` under `frame`.
pub(crate) fn run(exec: &mut Executor<'_>, b: BoxId, frame: &Frame<'_>) -> Result<Vec<Row>> {
    let qgm = exec.qgm;
    let qb = qgm.boxed(b);
    let order = qgm.join_order(b);
    let local_f: BTreeSet<QuantId> = order.iter().copied().collect();
    let local_sub: BTreeSet<QuantId> = qb
        .quants
        .iter()
        .copied()
        .filter(|&q| !qgm.quant(q).kind.is_foreach())
        .collect();
    let preds = &qb.predicates;
    // Join-time predicates reference no local subquery quantifier;
    // the rest wait for the scalar stage.
    let joinable: Vec<bool> = preds
        .iter()
        .map(|p| p.quantifiers().iter().all(|q| !local_sub.contains(q)))
        .collect();
    let mut applied = vec![false; preds.len()];
    let mut bound: Vec<QuantId> = Vec::new();
    let mut state = State {
        batches: Vec::new(),
        ids: Vec::new(),
        len: 1, // the single empty combination
    };

    for &q in &order {
        let child = qgm.quant(q).input;
        let correlated = exec.is_correlated(child);

        // Equality predicates usable for a hash join with q.
        let mut hash_preds: Vec<(&ScalarExpr, &ScalarExpr)> = Vec::new(); // (probe, build)
        if !correlated {
            for (i, p) in preds.iter().enumerate() {
                if applied[i] || !joinable[i] {
                    continue;
                }
                let Some((l, r)) = p.as_equality() else {
                    continue;
                };
                let local = |e: &ScalarExpr| -> Vec<QuantId> {
                    e.quantifiers()
                        .into_iter()
                        .filter(|x| local_f.contains(x))
                        .collect()
                };
                let (lq, rq) = (local(l), local(r));
                if lq.iter().all(|x| bound.contains(x)) && rq == [q] {
                    hash_preds.push((l, r));
                } else if rq.iter().all(|x| bound.contains(x)) && lq == [q] {
                    hash_preds.push((r, l));
                } else {
                    continue;
                }
                applied[i] = true;
            }
        }

        // Index nested loop: when the child is a stored table with an
        // equality on one of its columns and the outer side is small
        // relative to the table, probe the column index instead of
        // scanning — the access-path choice a System-R optimizer would
        // make, and the reason correlated evaluation is fast on
        // selective outers (Table 1, Exp A). The decision compares the
        // combination count with the table cardinality, never data.
        let index_plan = match &qgm.boxed(child).kind {
            BoxKind::BaseTable { table } if !hash_preds.is_empty() => {
                let trows = exec
                    .catalog
                    .table(table)
                    .map_or(0, starmagic_catalog::Table::row_count);
                let small_outer = state.len.saturating_mul(4) < trows.max(1);
                let column = hash_preds.iter().position(
                    |(_, build)| matches!(build, ScalarExpr::ColRef { quant, .. } if *quant == q),
                );
                column.filter(|_| small_outer).map(|i| (table.as_str(), i))
            }
            _ => None,
        };

        note_stage(exec, state.len);
        let stage = Stage {
            b,
            q,
            child,
            state: &state,
            bound: &bound,
            frame,
        };
        let joined = if correlated {
            correlated_join(exec, &stage)?
        } else if let Some((table, i)) = index_plan {
            index_join(exec, &stage, table, &hash_preds, i)?
        } else if !hash_preds.is_empty() {
            hash_join(exec, &stage, &hash_preds)?
        } else {
            // Cross product over an uncorrelated child: prefetch once,
            // combinations as id arithmetic.
            let child_rows = exec.eval_box(child, frame)?;
            exec.profile.entry(b).rows_in += child_rows.len() as u64;
            let m = child_rows.len() as u32;
            let batch = exec.child_batch(child, &child_rows);
            let parent = (0..state.len as u32)
                .flat_map(|pos| std::iter::repeat(pos).take(m as usize))
                .collect();
            let ids = (0..state.len).flat_map(|_| 0..m).collect();
            Joined { parent, ids, batch }
        };
        exec.batch_gather
            .add((joined.parent.len() * (state.ids.len() + 1)) as u64);
        state.advance(&joined.parent, joined.batch, joined.ids);
        bound.push(q);

        // Apply every join-time predicate that just became available,
        // in declaration order with a shrinking selection — the same
        // (predicate, row) coverage as a row-at-a-time short-circuit.
        let mut ready: Vec<&ScalarExpr> = Vec::new();
        for (i, p) in preds.iter().enumerate() {
            if !applied[i]
                && joinable[i]
                && p.quantifiers()
                    .iter()
                    .all(|x| !local_f.contains(x) || bound.contains(x))
            {
                applied[i] = true;
                ready.push(p);
            }
        }
        if !ready.is_empty() {
            let n = state.len;
            note_stage(exec, n);
            let keep = match filter_vectorized(exec, &ready, &state, &bound, frame) {
                Some(keep) => keep,
                None => {
                    let mut keep = Vec::new();
                    for_each_position(exec, &state, &bound, frame, |exec, k, cframe| {
                        if passes_all(exec, ready.iter().copied(), cframe)? {
                            keep.push(k);
                        }
                        Ok(())
                    })?;
                    keep
                }
            };
            if let Some(pct) = (keep.len() * 100).checked_div(n) {
                exec.batch_selectivity.record(pct as u64);
            }
            exec.batch_gather.add((keep.len() * state.ids.len()) as u64);
            state.retain(&keep);
        }
        exec.profile.entry(b).rows_produced += state.len as u64;
    }

    // Projection, after any residual predicates (subquery tests,
    // predicates of an empty join order, ...).
    let residual: Vec<&ScalarExpr> = preds
        .iter()
        .zip(&applied)
        .filter(|(_, a)| !**a)
        .map(|(p, _)| p)
        .collect();
    note_stage(exec, state.len);
    exec.batch_gather.add((state.len * qb.columns.len()) as u64);
    let vectorized = if residual.is_empty() {
        project_vectorized(exec, b, &state, &bound, frame)
    } else {
        None
    };
    let mut result = match vectorized {
        Some(rows) => rows,
        None => {
            let mut rows = Vec::with_capacity(state.len);
            for_each_position(exec, &state, &bound, frame, |exec, _, cframe| {
                if passes_all(exec, residual.iter().copied(), cframe)? {
                    let mut vals = Vec::with_capacity(qb.columns.len());
                    for c in &qb.columns {
                        vals.push(exec.eval_expr(&c.expr, cframe)?);
                    }
                    rows.push(Row::new(vals));
                }
                Ok(())
            })?;
            rows
        }
    };
    exec.profile.entry(b).rows_produced += result.len() as u64;
    if qb.distinct.needs_dedup() {
        result = dedupe(result);
    }
    Ok(result)
}

/// A correlated input: re-evaluate the child once per combination,
/// on a frame binding that combination's rows.
fn correlated_join(exec: &mut Executor<'_>, stage: &Stage<'_, '_>) -> Result<Joined> {
    let mut parent = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    stage.for_each_position(exec, |exec, k, cframe| {
        let child_rows = exec.eval_box(stage.child, cframe)?;
        exec.profile.entry(stage.b).rows_in += child_rows.len() as u64;
        parent.extend(std::iter::repeat(k).take(child_rows.len()));
        rows.extend(child_rows.iter().cloned());
        Ok(())
    })?;
    Ok(Joined {
        parent,
        ids: (0..rows.len() as u32).collect(),
        batch: Arc::new(Batch::from_rows(&rows)),
    })
}

/// Index nested loop into stored table `table` through the build
/// column of `hash_preds[i]`; the other equalities filter the probed
/// candidates in classification order. Probed rows are charged to the
/// base table, not the probing select box.
fn index_join(
    exec: &mut Executor<'_>,
    stage: &Stage<'_, '_>,
    table: &str,
    hash_preds: &[(&ScalarExpr, &ScalarExpr)],
    i: usize,
) -> Result<Joined> {
    let (state, frame) = (stage.state, stage.frame);
    let ScalarExpr::ColRef { col, .. } = hash_preds[i].1 else {
        unreachable!("the index plan picks a column build side")
    };
    let index = exec.table_id_index(table, *col)?;
    let batch = exec.table_batch(table)?;
    let probe = hash_preds[i].0;
    let rest: Vec<(&ScalarExpr, &ScalarExpr)> = hash_preds
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, &p)| p)
        .collect();

    let slot_of = |x| stage.slot_of(x);
    let build_slot = |x| stage.build_slot(x);
    let vectorized = || -> Option<(Vec<u32>, Vec<u32>, u64)> {
        let probe_key = compile(probe, &slot_of, frame)?;
        let rest: Vec<(VExpr, VExpr)> = rest
            .iter()
            .map(|(p, bld)| {
                Some((
                    compile(p, &slot_of, frame)?,
                    compile(bld, &build_slot, frame)?,
                ))
            })
            .collect::<Option<_>>()?;
        let slots = state.views();
        let positions: Vec<u32> = (0..state.len as u32).collect();
        let keys = eval(&probe_key, &slots, &positions).ok()?;
        let parts = dispatch(exec, state.len, |chunk| {
            let mut parent: Vec<u32> = Vec::new();
            let mut mids: Vec<u32> = Vec::new();
            let mut matched = 0u64;
            for &pos in chunk {
                let key = keys.value_at(pos as usize);
                if key.is_null() {
                    continue;
                }
                let Some(matches) = index.get(&key) else {
                    continue;
                };
                matched += matches.len() as u64;
                parent.extend(std::iter::repeat(pos).take(matches.len()));
                mids.extend_from_slice(matches);
            }
            for (pv, bv) in &rest {
                if parent.is_empty() {
                    break;
                }
                let probe = eval(pv, &slots, &parent)?;
                let bids: Vec<u32> = (0..mids.len() as u32).collect();
                let bslots = [SlotView {
                    batch: &batch,
                    ids: &mids,
                }];
                let build = eval(bv, &bslots, &bids)?;
                let keep: Vec<usize> = (0..parent.len())
                    .filter(|&k| probe.value_at(k).sql_eq(&build.value_at(k)).passes())
                    .collect();
                parent = keep.iter().map(|&k| parent[k]).collect();
                mids = keep.iter().map(|&k| mids[k]).collect();
            }
            Ok((parent, mids, matched))
        })
        .ok()?;
        let mut out = (Vec::new(), Vec::new(), 0);
        for (p, m, n) in parts {
            out.0.extend(p);
            out.1.extend(m);
            out.2 += n;
        }
        Some(out)
    };
    let (parent, ids, matched) = match vectorized() {
        Some(out) => out,
        None => {
            let catalog = exec.catalog;
            let rows = catalog.table(table)?.rows();
            let cq = [stage.q];
            let mut out = (Vec::new(), Vec::new(), 0);
            stage.for_each_position(exec, |exec, k, cframe| {
                let key = exec.eval_expr(probe, cframe)?;
                if key.is_null() {
                    return Ok(());
                }
                let Some(matches) = index.get(&key) else {
                    return Ok(());
                };
                out.2 += matches.len() as u64;
                'probe: for &m in matches {
                    let mframe = frame.extended(&cq, std::slice::from_ref(&rows[m as usize]));
                    for (p, bld) in &rest {
                        let pv = exec.eval_expr(p, cframe)?;
                        let bv = exec.eval_expr(bld, &mframe)?;
                        if !pv.sql_eq(&bv).passes() {
                            continue 'probe;
                        }
                    }
                    out.0.push(k);
                    out.1.push(m);
                }
                Ok(())
            })?;
            out
        }
    };
    if matched > 0 {
        exec.profile.entry(stage.child).rows_scanned += matched;
        exec.profile.entry(stage.b).rows_in += matched;
    }
    Ok(Joined { parent, ids, batch })
}

/// Hash join: build on the child once, probe per combination.
fn hash_join(
    exec: &mut Executor<'_>,
    stage: &Stage<'_, '_>,
    hash_preds: &[(&ScalarExpr, &ScalarExpr)],
) -> Result<Joined> {
    let (state, frame) = (stage.state, stage.frame);
    let child_rows = exec.eval_box(stage.child, frame)?;
    exec.profile.entry(stage.b).rows_in += child_rows.len() as u64;
    let batch = exec.child_batch(stage.child, &child_rows);
    let slot_of = |x| stage.slot_of(x);
    let build_slot = |x| stage.build_slot(x);

    let vectorized = || -> Option<Vec<(Vec<u32>, Vec<u32>)>> {
        let m = child_rows.len();
        let cids: Vec<u32> = (0..m as u32).collect();
        let bslots = [SlotView {
            batch: &batch,
            ids: &cids,
        }];
        let slots = state.views();
        let positions: Vec<u32> = (0..state.len as u32).collect();
        let mut build_cols: Vec<Vector> = Vec::with_capacity(hash_preds.len());
        let mut probe_cols: Vec<Vector> = Vec::with_capacity(hash_preds.len());
        for (probe, build) in hash_preds {
            let bv = compile(build, &build_slot, frame)?;
            build_cols.push(eval(&bv, &bslots, &cids).ok()?);
            let pv = compile(probe, &slot_of, frame)?;
            probe_cols.push(eval(&pv, &slots, &positions).ok()?);
        }
        // Single-Int64 keys join through a raw i64 table (no per-row
        // key vector); Int-Int equality is exact under both SQL and
        // grouping semantics, so the bucket contents match the generic
        // map's.
        let int_keyed = |v: &Vector| {
            matches!(
                v,
                Vector::Col(Column::Int64 { .. })
                    | Vector::Const {
                        value: Value::Int(_) | Value::Null,
                        ..
                    }
            )
        };
        let (build, probe) = (&build_cols, &probe_cols);
        if hash_preds.len() == 1 && int_keyed(&build[0]) && int_keyed(&probe[0]) {
            let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
            for j in 0..m {
                if let Value::Int(x) = build[0].value_at(j) {
                    map.entry(x).or_default().push(j as u32);
                }
            }
            dispatch(exec, state.len, |chunk| {
                let mut out = (Vec::new(), Vec::new());
                for &pos in chunk {
                    // NULL probe keys never match.
                    if let Value::Int(key) = probe[0].value_at(pos as usize) {
                        push_bucket(&mut out, pos, map.get(&key));
                    }
                }
                Ok(out)
            })
            .ok()
        } else {
            let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
            let mut key = Vec::new();
            for j in 0..m {
                // NULL keys never join.
                if fill_key(&mut key, build, j) {
                    map.entry(std::mem::take(&mut key))
                        .or_default()
                        .push(j as u32);
                }
            }
            dispatch(exec, state.len, |chunk| {
                let mut out = (Vec::new(), Vec::new());
                // Scratch probe key, reused across the chunk's rows.
                let mut key = Vec::with_capacity(probe.len());
                for &pos in chunk {
                    if fill_key(&mut key, probe, pos as usize) {
                        push_bucket(&mut out, pos, map.get(&key));
                    }
                }
                Ok(out)
            })
            .ok()
        }
    };
    let mut out = (Vec::new(), Vec::new());
    match vectorized() {
        Some(parts) => {
            for (p, c) in parts {
                out.0.extend(p);
                out.1.extend(c);
            }
        }
        None => {
            // Row by row, each key stopping at its first NULL.
            let cq = [stage.q];
            let mut map: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
            for (j, row) in child_rows.iter().enumerate() {
                let cframe = frame.extended(&cq, std::slice::from_ref(row));
                if let Some(key) = scalar_key(exec, hash_preds.iter().map(|p| p.1), &cframe)? {
                    map.entry(key).or_default().push(j as u32);
                }
            }
            stage.for_each_position(exec, |exec, k, cframe| {
                if let Some(key) = scalar_key(exec, hash_preds.iter().map(|p| p.0), cframe)? {
                    push_bucket(&mut out, k, map.get(&key));
                }
                Ok(())
            })?;
        }
    }
    Ok(Joined {
        parent: out.0,
        ids: out.1,
        batch,
    })
}

/// Refill `key` with slot `k` of every column; false when one is NULL.
fn fill_key(key: &mut Vec<Value>, cols: &[Vector], k: usize) -> bool {
    key.clear();
    for c in cols {
        let v = c.value_at(k);
        if v.is_null() {
            return false;
        }
        key.push(v);
    }
    true
}

/// Append position `pos` joined with every row id of `bucket`.
fn push_bucket(out: &mut (Vec<u32>, Vec<u32>), pos: u32, bucket: Option<&Vec<u32>>) {
    if let Some(bucket) = bucket {
        out.0.extend(std::iter::repeat(pos).take(bucket.len()));
        out.1.extend_from_slice(bucket);
    }
}

/// A hash key through the scalar evaluator: `None` as soon as one
/// component is NULL (later components are not evaluated).
fn scalar_key<'e>(
    exec: &mut Executor<'_>,
    exprs: impl Iterator<Item = &'e ScalarExpr>,
    frame: &Frame<'_>,
) -> Result<Option<Vec<Value>>> {
    let mut key = Vec::new();
    for e in exprs {
        let v = exec.eval_expr(e, frame)?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(v);
    }
    Ok(Some(key))
}

/// The surviving positions after `ready` through the vector kernels,
/// or `None` when a predicate does not compile or a kernel fails.
fn filter_vectorized(
    exec: &Executor<'_>,
    ready: &[&ScalarExpr],
    state: &State,
    bound: &[QuantId],
    frame: &Frame<'_>,
) -> Option<Vec<u32>> {
    let slot_of = |x: QuantId| bound.iter().position(|&y| y == x);
    let ready: Vec<VExpr> = ready
        .iter()
        .map(|p| compile(p, &slot_of, frame))
        .collect::<Option<_>>()?;
    let slots = state.views();
    let parts = dispatch(exec, state.len, |chunk| {
        let mut pos: Vec<u32> = chunk.to_vec();
        for v in &ready {
            if pos.is_empty() {
                break;
            }
            let tv = eval(v, &slots, &pos)?;
            pos = pos
                .iter()
                .enumerate()
                .filter(|&(k, _)| tv.passes_at(k))
                .map(|(_, &p)| p)
                .collect();
        }
        Ok(pos)
    })
    .ok()?;
    Some(parts.into_iter().flatten().collect())
}

/// Box `b`'s output rows through the vector kernels, or `None` when a
/// column does not compile or a kernel fails.
fn project_vectorized(
    exec: &Executor<'_>,
    b: BoxId,
    state: &State,
    bound: &[QuantId],
    frame: &Frame<'_>,
) -> Option<Vec<Row>> {
    let slot_of = |x: QuantId| bound.iter().position(|&y| y == x);
    let cols: Vec<VExpr> = exec
        .qgm
        .boxed(b)
        .columns
        .iter()
        .map(|c| compile(&c.expr, &slot_of, frame))
        .collect::<Option<_>>()?;
    let slots = state.views();
    let parts = dispatch(exec, state.len, |chunk| {
        let vectors: Vec<Vector> = cols
            .iter()
            .map(|v| eval(v, &slots, chunk))
            .collect::<Result<_>>()?;
        Ok((0..chunk.len())
            .map(|k| Row::new(vectors.iter().map(|c| c.value_at(k)).collect()))
            .collect::<Vec<_>>())
    })
    .ok()?;
    Some(parts.into_iter().flatten().collect())
}
