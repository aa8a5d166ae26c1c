//! The timed run: end-to-end metrics with tracing off.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use starmagic::DEFAULT_PLAN_CACHE_CAP;
use starmagic_common::{Row, Value};
use starmagic_server::{Client, Response};

use crate::reference::rows_match;
use crate::setup::{peak_rss_mb, run_read, send, timed_setup, Config, Setup};
use crate::workload::{Op, ADHOC_POOL};
use crate::{Outcome, Workload};

/// Setups per timed run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Reads a timed window must complete, so that p99 has at least ten
/// samples beyond it.
const MIN_READS: usize = 1000;

/// A window that has not reached [`MIN_READS`] keeps going, but never
/// past this many times its nominal length.
const MAX_STRETCH: f64 = 4.0;

/// Nearest-rank percentile of sorted durations, in microseconds.
pub fn percentile_us(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1].as_nanos() as f64 / 1e3
}

/// Latencies and counts from one caller's closed loop.
#[derive(Default)]
struct Loop {
    reads: Vec<Duration>,
    writes: Vec<Duration>,
    attempted: u64,
    failed: u64,
    acked_writes: u64,
    busy_retries: u64,
}

impl Loop {
    fn merge(&mut self, other: Loop) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked_writes += other.acked_writes;
        self.busy_retries += other.busy_retries;
    }
}

/// Whether a closed loop should stop: the window has elapsed and
/// enough reads completed, or the window has stretched too far.
fn done(started: Instant, cfg: &Config, reads: usize) -> bool {
    let t = started.elapsed().as_secs_f64();
    (t >= cfg.seconds && reads >= MIN_READS) || t >= cfg.seconds * MAX_STRETCH
}

fn in_process_loop(cfg: &Config, s: &Setup) -> Loop {
    let ops = &s.streams[0];
    let mut out = Loop::default();
    let started = Instant::now();
    let mut i = s.start;
    while !done(started, cfg, out.reads.len()) {
        let Op::Read { sql, expected, .. } = &ops[i % ops.len()] else {
            unreachable!("in-process streams only read");
        };
        i += 1;
        let t = Instant::now();
        let result = run_read(&s.engine, sql);
        let elapsed = t.elapsed();
        out.attempted += 1;
        match result {
            Ok((r, _)) if rows_match(&r.rows, expected) => out.reads.push(elapsed),
            _ => out.failed += 1,
        }
    }
    out
}

fn server_loop(cfg: &Config, clients: &mut [Client], streams: &[Vec<Op>]) -> Loop {
    let reads_done = AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .map(|(client, ops)| {
                let reads_done = &reads_done;
                scope.spawn(move || {
                    let mut out = Loop::default();
                    let mut i = 0;
                    while !done(started, cfg, reads_done.load(Ordering::Relaxed)) {
                        let op = &ops[i % ops.len()];
                        i += 1;
                        let t = Instant::now();
                        let reply = send(client, op);
                        let elapsed = t.elapsed();
                        out.attempted += 1;
                        out.busy_retries += u64::from(reply.busy_retries);
                        if !reply.ok {
                            out.failed += 1;
                            continue;
                        }
                        match op {
                            Op::Read { .. } => {
                                out.reads.push(elapsed);
                                reads_done.fetch_add(1, Ordering::Relaxed);
                            }
                            Op::Write { .. } => {
                                out.writes.push(elapsed);
                                out.acked_writes += 1;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        let mut all = Loop::default();
        for w in workers {
            all.merge(w.join().expect("client thread panicked"));
        }
        all
    })
}

/// After `server_mixed`: `emp_act` holds its initial rows plus every
/// acknowledged write, and `PING` answers.
fn server_invariants(
    client: &mut Client,
    initial: usize,
    acked: u64,
    notes: &mut Vec<String>,
) -> bool {
    let expected = initial as i64 + acked as i64;
    let count_ok = matches!(
        client.query("SELECT COUNT(*) FROM emp_act"),
        Ok(Response::Rows { rows, .. }) if rows == vec![Row::new(vec![Value::Int(expected)])]
    );
    let ping_ok = client.ping().is_ok();
    notes.push(format!(
        "invariant server_mixed: emp_act rows == {initial} initial + {acked} acknowledged writes: {}; PING: {}",
        pass(count_ok),
        pass(ping_ok)
    ));
    count_ok && ping_ok
}

pub fn pass(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

pub fn run(cfg: &Config) -> starmagic_common::Result<Outcome> {
    let (mut s, setup_s, teardown_problems) = timed_setup(cfg, SETUP_REPS)?;
    let mut notes = teardown_problems;
    let mut invariants_ok = notes.is_empty();
    let before = s.engine.cache_stats();
    let started = Instant::now();
    let mut lp = match &mut s.served {
        None => in_process_loop(cfg, &s),
        Some(served) => server_loop(cfg, &mut served.clients, &s.streams),
    };
    let window = started.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let after = s.engine.cache_stats();

    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let hit_ratio = (after.hits - before.hits) as f64 / lookups.max(1) as f64;
    match cfg.workload {
        Workload::AdhocCompile => {
            let cap = DEFAULT_PLAN_CACHE_CAP as f64 / ADHOC_POOL as f64;
            let ok = hit_ratio <= cap;
            invariants_ok &= ok;
            notes.push(format!(
                "invariant adhoc_compile: cache hit ratio {hit_ratio:.4} <= {DEFAULT_PLAN_CACHE_CAP}/{ADHOC_POOL} = {cap:.4}: {}",
                pass(ok)
            ));
        }
        Workload::ReportExec => {
            let ok = after.misses == before.misses && lookups > 0;
            invariants_ok &= ok;
            notes.push(format!(
                "invariant report_exec: cache hit ratio after warm-up {hit_ratio:.4} == 1: {}",
                pass(ok)
            ));
        }
        Workload::ServerMixed => {
            let served = s.served.as_mut().expect("server_mixed runs a server");
            invariants_ok &= server_invariants(
                &mut served.clients[0],
                s.reference.emp_act_rows,
                s.warmup_writes + lp.acked_writes,
                &mut notes,
            );
        }
    }
    let warmup_failures = s.warmup_failures;
    if let Err(e) = s.teardown() {
        invariants_ok = false;
        notes.push(format!("invariant: clean server shutdown: FAIL ({e})"));
    } else if cfg.workload == Workload::ServerMixed {
        notes.push("invariant server_mixed: clean shutdown: PASS".to_string());
    }

    lp.reads.sort_unstable();
    lp.writes.sort_unstable();
    let completed = lp.attempted - lp.failed;
    // One in-process caller has no think time but the benchmark's own
    // answer check, so its rate is taken over the time spent inside
    // the engine; the server's callers share the window.
    let busy = if cfg.workload == Workload::ServerMixed {
        window
    } else {
        lp.reads.iter().sum::<Duration>().as_secs_f64()
    };
    notes.push(format!(
        "samples: {} reads, {} writes, {} attempted, {} failed (error_rate {:.6}), {} BUSY retries, window {window:.3} s",
        lp.reads.len(),
        lp.writes.len(),
        lp.attempted,
        lp.failed,
        lp.failed as f64 / lp.attempted.max(1) as f64,
        lp.busy_retries,
    ));
    if !lp.writes.is_empty() {
        notes.push(format!(
            "write_p50_us {:.1} over {} writes",
            percentile_us(&lp.writes, 50.0),
            lp.writes.len()
        ));
    }
    Ok(Outcome {
        correct: invariants_ok && lp.failed == 0 && warmup_failures == 0,
        attempted: lp.attempted,
        failed: lp.failed + warmup_failures,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("qps", completed as f64 / busy, "1/s"),
            ("p50_us", percentile_us(&lp.reads, 50.0), "us"),
            ("p99_us", percentile_us(&lp.reads, 99.0), "us"),
            ("peak_rss_mb", rss, "MB"),
        ],
        notes,
    })
}
