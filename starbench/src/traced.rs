//! The traced run: per-layer metrics.
//!
//! A fixed request sequence runs twice on fresh setups: once untraced
//! (phase U, for the tracing overhead) and once with every layer timed
//! from outside, around its public entry point, on the same requests
//! (phase T). Because the sequence and the starting cache state are
//! fixed, the counts it produces repeat exactly for a seed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use starmagic::planner::feedback::cardinality_report;
use starmagic::{optimize, Engine, MetricsRegistry, PipelineOptions, Strategy};
use starmagic_common::{Result, Row};
use starmagic_server::{serve, Client, ServerConfig, SharedEngine};

use crate::reference::rows_match;
use crate::setup::{run_read, send, setup, Config, Setup};
use crate::timed::{pass, percentile_us};
use crate::workload::{write_sql, Op};
use crate::{Outcome, Workload};

/// Reads the in-process workloads also send over the wire.
const WIRE_PROBE_READS: usize = 64;

/// Writes timed in-process (`catalog.insert_us`) and, on the
/// in-process workloads, over the wire.
const WRITE_PROBES: usize = 5;

/// A chosen plan within this factor of the other alternative's time
/// counts as the faster one (the two are often the same plan).
const BEST_PLAN_SLACK: f64 = 1.1;

/// The traced sequence's length per workload: a few seconds each.
fn traced_requests(workload: Workload) -> usize {
    match workload {
        Workload::AdhocCompile => 600,
        Workload::ReportExec => 96,
        Workload::ServerMixed => 1000,
    }
}

/// Per-layer accumulators over phase T.
#[derive(Default)]
struct Layers {
    reads: u64,
    failed: u64,
    parse: Duration,
    parameterize: Duration,
    build: Duration,
    boxes: u64,
    phase1: Duration,
    emst: Duration,
    phase3: Duration,
    plan: Duration,
    lint: Duration,
    analysis: Duration,
    fires: u64,
    offers: u64,
    boxes_after_emst: u64,
    magic_chosen: u64,
    best_plan: u64,
    card_boxes: u64,
    misestimated: u64,
    compile: Duration,
    bind: Duration,
    execute: Duration,
    work: u64,
    rows_scanned: u64,
    box_evals: u64,
    /// Columnar batches of the cached-plan executions (live registry).
    batches: u64,
    reevals: u64,
    fixpoint_rounds: u64,
    fixpoint_delta_rows: u64,
    /// Σ parse + parameterize + optimize (on a miss).
    compile_layers: Duration,
    /// Σ compile layers + execute.
    layer_sum: Duration,
    /// Σ `prepare_cached` + `execute_cached`: the in-process request.
    request: Duration,
    /// Per read: in-process request time and cache verdict.
    in_process: Vec<(Duration, bool)>,
    /// Reads and hits on the workload's own path.
    path_reads: u64,
    path_hits: u64,
    /// Wire round trips.
    roundtrips: Vec<Duration>,
    /// Round trip minus in-process time of the same request, µs.
    overhead_us: Vec<f64>,
    first_read_after_write: Vec<Duration>,
    writes: Vec<Duration>,
    inserts: Vec<Duration>,
    busy_retries: u64,
    attempted: u64,
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Time every layer of one read from outside, then run it through the
/// engine's plan-cache path as the workload does.
fn probe_read(engine: &Engine, sql: &str, expected: &[Row], l: &mut Layers) -> Result<bool> {
    let catalog = engine.catalog();
    let t = Instant::now();
    let query = starmagic::sql::parse_query(sql)?;
    let parse = t.elapsed();
    let t = Instant::now();
    let p = starmagic::sql::parameterize(&query);
    let parameterize = t.elapsed();
    let t = Instant::now();
    let g = starmagic::qgm::build_qgm(catalog, &p.query)?;
    l.build += t.elapsed();
    l.boxes += g.box_count() as u64;

    let t = Instant::now();
    let o = optimize(
        catalog,
        engine.registry(),
        &p.query,
        PipelineOptions::default(),
    )?;
    let optimize_time = t.elapsed();
    let span = |name| o.trace.get(name).map_or(Duration::ZERO, |s| s.elapsed);
    l.phase1 += span("rewrite.phase1");
    l.emst += span("rewrite.phase2");
    l.phase3 += span("rewrite.phase3");
    l.plan += span("plan.1") + span("plan.2");
    l.lint += span("lint");
    l.analysis += span("analysis");
    for stats in &o.stats {
        let fires = stats.total_fires() as u64;
        l.fires += fires;
        l.offers += fires + stats.no_op_offers.values().sum::<usize>() as u64;
    }
    l.boxes_after_emst += o.phase2.box_count() as u64;
    l.magic_chosen += u64::from(o.chose_magic);

    let t = Instant::now();
    let (plan, extracted, hit) = engine.prepare_cached(sql, Strategy::CostBased)?;
    let compile = t.elapsed();
    let t = Instant::now();
    plan.prepared.qgm.bind_params(&extracted)?;
    l.bind += t.elapsed();
    let batches = engine.metrics_registry().counter("exec.batch.batches");
    let before = batches.get();
    let t = Instant::now();
    let result = engine.execute_cached(&plan, &[], &extracted)?;
    let execute = t.elapsed();
    l.batches += batches.get() - before;
    let ok = rows_match(&result.rows, expected);

    l.reads += 1;
    l.parse += parse;
    l.parameterize += parameterize;
    l.compile += compile;
    l.execute += execute;
    l.work += result.metrics.work();
    l.rows_scanned += result.metrics.rows_scanned;
    l.box_evals += result.metrics.box_evals;
    let compile_layers = parse + parameterize + if hit { Duration::ZERO } else { optimize_time };
    l.compile_layers += compile_layers;
    l.layer_sum += compile_layers + execute;
    l.request += compile + execute;
    l.in_process.push((compile + execute, hit));

    // The per-box profile, and the planner's estimates against it.
    let prof = engine.query_profiled(sql, Strategy::CostBased)?;
    for b in prof.profile.boxes.values() {
        l.reevals += b.evals.saturating_sub(1);
    }
    for f in prof.profile.fixpoint.values() {
        l.fixpoint_rounds += f.iterations;
        l.fixpoint_delta_rows += f.delta_rows.iter().sum::<u64>();
    }
    let actuals: BTreeMap<_, _> = prof
        .profile
        .boxes
        .iter()
        .map(|(b, p)| (*b, (p.rows_out, p.evals)))
        .collect();
    let cards = cardinality_report(prof.optimized.chosen(), catalog, &actuals);
    l.card_boxes += cards.len() as u64;
    l.misestimated += cards.iter().filter(|c| c.ratio > 2.0).count() as u64;

    // Run both alternatives the cost-based choice picks between.
    let time_of = |strategy| -> Result<f64> {
        let prepared = engine.prepare(sql, strategy)?;
        let t = Instant::now();
        engine.execute_prepared(&prepared)?;
        Ok(t.elapsed().as_secs_f64())
    };
    let original = time_of(Strategy::Original)?;
    let magic = time_of(Strategy::Magic)?;
    let (chosen, other) = if prof.result.used_magic {
        (magic, original)
    } else {
        (original, magic)
    };
    l.best_plan += u64::from(chosen <= other * BEST_PLAN_SLACK);
    Ok(ok)
}

/// `Engine::run_sql` of one write while another handle holds the
/// snapshot, so the copy-on-write is part of the time.
fn probe_insert(private: &mut Engine, empno: i64, l: &mut Layers) -> Result<()> {
    let held = private.clone();
    let sql = write_sql(empno);
    let t = Instant::now();
    private.run_sql(&sql)?;
    l.inserts.push(t.elapsed());
    drop(held);
    Ok(())
}

/// The fixed sequence: the workload's first requests after warm-up.
fn sequence(cfg: &Config, s: &Setup) -> Vec<Op> {
    s.streams[0]
        .iter()
        .cycle()
        .skip(s.start)
        .take(traced_requests(cfg.workload))
        .cloned()
        .collect()
}

/// Phase U: the sequence through the workload's own path, untraced.
/// Returns the wall time, Σ work (in-process only) and failures.
fn untraced(s: &mut Setup, seq: &[Op]) -> (Duration, u64, u64) {
    let mut work = 0;
    let mut failed = 0;
    let t = Instant::now();
    for op in seq {
        let ok = match (&mut s.served, op) {
            (Some(served), _) => send(&mut served.clients[0], op).ok,
            (None, Op::Read { sql, expected, .. }) => match run_read(&s.engine, sql) {
                Ok((r, _)) => {
                    work += r.metrics.work();
                    rows_match(&r.rows, expected)
                }
                Err(_) => false,
            },
            (None, Op::Write { .. }) => unreachable!("in-process streams only read"),
        };
        failed += u64::from(!ok);
    }
    (t.elapsed(), work, failed)
}

/// Send reads, then writes each followed by a read, over a fresh
/// server hosting a clone of an in-process workload's engine.
fn wire_probe(engine: &Engine, seq: &[Op], l: &mut Layers) -> Result<()> {
    let io = |e: std::io::Error| starmagic_common::Error::execution(format!("wire probe: {e}"));
    let handle = serve(
        SharedEngine::new(engine.clone()),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .map_err(io)?;
    let mut client = Client::connect(handle.addr()).map_err(io)?;
    let reads: Vec<&Op> = seq
        .iter()
        .filter(|op| matches!(op, Op::Read { .. }))
        .collect();
    for (i, op) in reads.iter().take(WIRE_PROBE_READS).enumerate() {
        let t = Instant::now();
        let reply = send(&mut client, op);
        let rt = t.elapsed();
        l.attempted += 1;
        l.failed += u64::from(!reply.ok);
        l.busy_retries += u64::from(reply.busy_retries);
        l.roundtrips.push(rt);
        if let Some(&(inproc, hit)) = l.in_process.get(i) {
            if hit == reply.hit {
                l.overhead_us.push(us(rt) - us(inproc));
            }
        }
    }
    for (i, op) in reads.iter().take(WRITE_PROBES).enumerate() {
        for op in [&Op::Write { empno: i as i64 }, *op] {
            let t = Instant::now();
            let reply = send(&mut client, op);
            let rt = t.elapsed();
            l.attempted += 1;
            l.failed += u64::from(!reply.ok);
            match op {
                Op::Write { .. } => l.writes.push(rt),
                Op::Read { .. } => l.first_read_after_write.push(rt),
            }
        }
    }
    drop(client);
    handle.shutdown();
    Ok(())
}

/// Phase T on `server_mixed`: each request over the wire first (so the
/// cache sees the workload's own order), then every layer in-process
/// against the server's current engine.
fn traced_server(s: &mut Setup, seq: &[Op], l: &mut Layers) -> Result<()> {
    let served = s.served.as_mut().expect("server_mixed runs a server");
    let mut private = Engine::new(served.shared.snapshot().catalog().clone());
    let mut after_write = false;
    for op in seq {
        let t = Instant::now();
        let reply = send(&mut served.clients[0], op);
        let rt = t.elapsed();
        l.attempted += 1;
        l.failed += u64::from(!reply.ok);
        l.busy_retries += u64::from(reply.busy_retries);
        match op {
            Op::Write { empno } => {
                l.writes.push(rt);
                probe_insert(&mut private, *empno, l)?;
                after_write = true;
            }
            Op::Read { sql, expected, .. } => {
                l.path_reads += 1;
                l.path_hits += u64::from(reply.hit);
                l.roundtrips.push(rt);
                if after_write {
                    l.first_read_after_write.push(rt);
                    after_write = false;
                }
                let engine = served.shared.snapshot();
                l.failed += u64::from(!probe_read(&engine, sql, expected, l)?);
                let &(inproc, hit) = l.in_process.last().expect("just probed");
                if hit == reply.hit {
                    l.overhead_us.push(us(rt) - us(inproc));
                }
            }
        }
    }
    Ok(())
}

fn traced_in_process(s: &Setup, seq: &[Op], l: &mut Layers) -> Result<()> {
    for op in seq {
        let Op::Read { sql, expected, .. } = op else {
            unreachable!("in-process streams only read");
        };
        l.attempted += 1;
        l.failed += u64::from(!probe_read(&s.engine, sql, expected, l)?);
        let &(_, hit) = l.in_process.last().expect("just probed");
        l.path_reads += 1;
        l.path_hits += u64::from(hit);
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome> {
    let mut notes = Vec::new();
    let mut correct = true;

    // Phase U.
    let mut s = setup(cfg, None)?;
    let seq = sequence(cfg, &s);
    let evictions = s.engine.cache_stats().evictions;
    let (untraced_time, untraced_work, untraced_failed) = untraced(&mut s, &seq);
    let untraced_evictions = s.engine.cache_stats().evictions - evictions;
    correct &= s.warmup_failures == 0 && untraced_failed == 0;
    if let Err(e) = s.teardown() {
        correct = false;
        notes.push(format!("clean shutdown after phase U: FAIL ({e})"));
    }

    // Phase T.
    let registry = MetricsRegistry::enabled();
    let mut s = setup(cfg, Some(&registry))?;
    correct &= s.warmup_failures == 0;
    let mut l = Layers::default();
    let evictions = s.engine.cache_stats().evictions;
    let t = Instant::now();
    if s.served.is_some() {
        traced_server(&mut s, &seq, &mut l)?;
    } else {
        traced_in_process(&s, &seq, &mut l)?;
    }
    let traced_time = t.elapsed();
    let cache_evictions = s.engine.cache_stats().evictions - evictions;

    // The determinism cross-check: the same sequence from the same
    // state does the same work and evicts the same plans, traced or not.
    let same_work = s.served.is_some() || untraced_work == l.work;
    let same_evictions = untraced_evictions == cache_evictions;
    correct &= same_work && same_evictions;
    notes.push(format!(
        "determinism: phase U vs T exec.work {} vs {}, engine.cache_evictions {untraced_evictions} vs {cache_evictions}: {}",
        if s.served.is_some() { "n/a".to_string() } else { untraced_work.to_string() },
        l.work,
        pass(same_work && same_evictions)
    ));
    notes.push(format!(
        "fingerprint: exec.work={} rewrite.fires={} qgm.boxes={} exec.fixpoint_rounds={} engine.cache_evictions={cache_evictions} (seed {}, {} requests)",
        l.work, l.fires, l.boxes, l.fixpoint_rounds, cfg.seed, seq.len()
    ));

    if s.served.is_none() {
        let mut private = Engine::new(s.engine.catalog().clone());
        for i in 0..WRITE_PROBES {
            probe_insert(&mut private, i as i64, &mut l)?;
        }
        wire_probe(&s.engine, &seq, &mut l)?;
    }
    if let Err(e) = s.teardown() {
        correct = false;
        notes.push(format!("clean shutdown after phase T: FAIL ({e})"));
    }
    correct &= l.failed == 0;

    // Layer shares of the in-process request time.
    let share = |part: Duration| part.as_secs_f64() / l.request.as_secs_f64().max(1e-12);
    let layer_share = share(l.layer_sum);
    let compile_share = share(l.compile_layers);
    let exec_share = share(l.execute);
    let mut share_line = format!(
        "layer-share: layers {layer_share:.3} of request time (>= 0.90: {})",
        pass(layer_share >= 0.9)
    );
    match cfg.workload {
        Workload::AdhocCompile => share_line.push_str(&format!(
            "; compile layers {compile_share:.3} (>= 0.70: {})",
            pass(compile_share >= 0.7)
        )),
        Workload::ReportExec => share_line.push_str(&format!(
            "; exec.execute_us {exec_share:.3} (>= 0.90: {})",
            pass(exec_share >= 0.9)
        )),
        Workload::ServerMixed => {}
    }
    notes.push(share_line);

    let reads = l.reads.max(1) as f64;
    let mean = |d: Duration| us(d) / reads;
    let avg = |v: &[Duration]| {
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().map(|d| us(*d)).sum::<f64>() / v.len() as f64
        }
    };
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut writes = l.writes.clone();
    writes.sort_unstable();
    notes.push(format!(
        "samples: {} traced reads, {} wire round trips, {} writes, {} inserts, {} overhead pairs",
        l.reads,
        l.roundtrips.len(),
        l.writes.len(),
        l.inserts.len(),
        l.overhead_us.len()
    ));
    let metrics = vec![
        ("sql.parse_us", mean(l.parse), "us"),
        ("sql.parameterize_us", mean(l.parameterize), "us"),
        ("qgm.build_us", mean(l.build), "us"),
        ("qgm.boxes", l.boxes as f64, "count"),
        ("rewrite.phase1_us", mean(l.phase1), "us"),
        ("rewrite.phase3_us", mean(l.phase3), "us"),
        ("rewrite.fires", l.fires as f64, "count"),
        ("rewrite.useful_ratio", ratio(l.fires, l.offers), "ratio"),
        ("core.emst_us", mean(l.emst), "us"),
        ("core.boxes_after_emst", l.boxes_after_emst as f64, "count"),
        (
            "core.magic_chosen_share",
            ratio(l.magic_chosen, l.reads),
            "ratio",
        ),
        ("planner.plan_us", mean(l.plan), "us"),
        (
            "planner.best_plan_share",
            ratio(l.best_plan, l.reads),
            "ratio",
        ),
        (
            "planner.misestimate_share",
            ratio(l.misestimated, l.card_boxes),
            "ratio",
        ),
        ("lint.lint_us", mean(l.lint), "us"),
        ("analysis.analyze_us", mean(l.analysis), "us"),
        ("engine.compile_us", mean(l.compile), "us"),
        ("engine.bind_us", mean(l.bind), "us"),
        (
            "engine.cache_hit_ratio",
            ratio(l.path_hits, l.path_reads),
            "ratio",
        ),
        ("engine.cache_evictions", cache_evictions as f64, "count"),
        ("exec.execute_us", mean(l.execute), "us"),
        ("exec.work", l.work as f64, "count"),
        ("exec.rows_scanned", l.rows_scanned as f64, "count"),
        ("exec.box_evals", l.box_evals as f64, "count"),
        ("exec.reevals", l.reevals as f64, "count"),
        ("exec.batch.batches", l.batches as f64, "count"),
        ("exec.fixpoint_rounds", l.fixpoint_rounds as f64, "count"),
        (
            "exec.fixpoint_delta_rows",
            l.fixpoint_delta_rows as f64,
            "count",
        ),
        (
            "exec.first_read_after_write_us",
            avg(&l.first_read_after_write),
            "us",
        ),
        ("catalog.insert_us", avg(&l.inserts), "us"),
        ("write_p50_us", percentile_us(&writes, 50.0), "us"),
        ("server.roundtrip_us", avg(&l.roundtrips), "us"),
        (
            "server.overhead_us",
            l.overhead_us.iter().sum::<f64>() / l.overhead_us.len().max(1) as f64,
            "us",
        ),
        ("server.busy_retries", l.busy_retries as f64, "count"),
        ("bench.layer_share", layer_share, "ratio"),
        ("bench.compile_share", compile_share, "ratio"),
        ("bench.exec_share", exec_share, "ratio"),
        (
            "bench.trace_overhead_pct",
            100.0 * (traced_time.as_secs_f64() / untraced_time.as_secs_f64().max(1e-12) - 1.0),
            "%",
        ),
    ];
    Ok(Outcome {
        correct,
        attempted: l.attempted + seq.len() as u64,
        failed: l.failed + untraced_failed,
        metrics,
        notes,
    })
}
