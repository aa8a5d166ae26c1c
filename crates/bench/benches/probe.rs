//! Micro-bench of hash-join building blocks: column index build and
//! the probe loop, with the probe key freshly allocated per row versus
//! reused from a scratch buffer.
//!
//! A multi-column hash-join probe allocates one key per combination
//! unless the key vector is reused. This bench isolates that choice on
//! the same data shapes the executor sees (`Value` keys) so the
//! scratch-reuse win stays visible even when the end-to-end numbers
//! move.
//!
//! Run `cargo bench -p starmagic-bench --bench probe`.

use std::collections::HashMap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use starmagic_common::{Row, Value};

const BUILD_ROWS: usize = 20_000;
const KEYS: i64 = 997;
const PROBES: usize = 20_000;

/// Build-side rows: (key, payload int, payload string) — the shape of
/// an employee scan keyed by department.
fn build_rows() -> Vec<Row> {
    (0..BUILD_ROWS)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64 % KEYS),
                Value::Int(i as i64),
                Value::Str(format!("emp{i}").into()),
            ])
        })
        .collect()
}

/// A value-keyed column index: key value → matching rows.
fn build_index(rows: &[Row]) -> HashMap<Value, Vec<Row>> {
    let mut index: HashMap<Value, Vec<Row>> = HashMap::new();
    for row in rows {
        index
            .entry(row.values()[0].clone())
            .or_default()
            .push(row.clone());
    }
    index
}

fn probe(c: &mut Criterion) {
    let rows = build_rows();
    let index = build_index(&rows);
    // Two-column composite keys, as in a multi-predicate hash join.
    let composite: HashMap<Vec<Value>, u64> = (0..KEYS)
        .map(|k| (vec![Value::Int(k), Value::Int(k % 7)], k as u64))
        .collect();

    let mut group = c.benchmark_group("probe/index_build");
    group.sample_size(10);
    group.bench_function("20k_rows", |b| {
        b.iter(|| build_index(black_box(&rows)));
    });
    group.finish();

    let mut group = c.benchmark_group("probe/single_column");
    group.sample_size(10);
    group.bench_function("20k_probes", |b| {
        b.iter(|| {
            let mut matches = 0usize;
            for i in 0..PROBES {
                let key = Value::Int(i as i64 % (KEYS + 50));
                if let Some(hits) = index.get(&key) {
                    matches += hits.len();
                }
            }
            matches
        });
    });
    group.finish();

    // The comparison the executor's scratch-key change is about: a
    // fresh Vec per probe versus one cleared and refilled in place.
    let mut group = c.benchmark_group("probe/composite_key");
    group.sample_size(10);
    group.bench_function("fresh_alloc", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for i in 0..PROBES {
                let k = i as i64 % (KEYS + 50);
                let key = vec![Value::Int(k), Value::Int(k % 7)];
                if let Some(v) = composite.get(&key) {
                    sum += v;
                }
            }
            sum
        });
    });
    group.bench_function("scratch_reuse", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            let mut key: Vec<Value> = Vec::new();
            for i in 0..PROBES {
                let k = i as i64 % (KEYS + 50);
                key.clear();
                key.push(Value::Int(k));
                key.push(Value::Int(k % 7));
                if let Some(v) = composite.get(&key) {
                    sum += v;
                }
            }
            sum
        });
    });
    group.finish();
}

criterion_group!(benches, probe);
criterion_main!(benches);
