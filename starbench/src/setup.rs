//! Everything before the timed window: the catalog, views and `edge`
//! table, the reference answers, the request streams, the server where
//! there is one, and the warm-up pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use starmagic::{Engine, MetricsRegistry, QueryResult, Strategy};
use starmagic_bench::bench_engine;
use starmagic_bench::recursion::graphs;
use starmagic_catalog::generator::Scale;
use starmagic_common::Result;
use starmagic_server::{serve, Client, Response, ServerConfig, ServerHandle, SharedEngine};

use crate::reference::{rows_match, Reference};
use crate::workload::{self, write_sql, Op, GRAPH_OFFSETS};
use crate::Workload;

/// Closed-loop client connections on `server_mixed`: one per core of
/// the 2-core host the benchmark was sized on.
pub const CONNECTIONS: usize = 2;

/// Requests the ad-hoc warm-up runs before the timed window.
const ADHOC_WARMUP: usize = 256;

/// Requests each `server_mixed` connection sends before the timed
/// window: every template, and two writes, so the first timed writes
/// do not pay for fresh memory.
const SERVER_WARMUP: usize = 100;

/// Requests per `server_mixed` connection stream (it cycles).
const SERVER_STREAM: usize = 4096;

/// Retries of a `BUSY` answer before the request counts as failed.
const BUSY_RETRIES: u32 = 8;

/// What one benchmark invocation is configured to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Self-test hook: corrupt one expected answer.
    pub corrupt_reference: bool,
}

/// The server side of `server_mixed`.
pub struct Served {
    pub shared: SharedEngine,
    pub handle: ServerHandle,
    pub clients: Vec<Client>,
}

/// A workload ready for its timed window.
pub struct Setup {
    pub engine: Engine,
    pub reference: Reference,
    /// One request stream per closed-loop caller.
    pub streams: Vec<Vec<Op>>,
    /// Where each stream's timed window starts (after its warm-up).
    pub start: usize,
    pub served: Option<Served>,
    /// Answers the warm-up got wrong.
    pub warmup_failures: u64,
    /// Writes the warm-up had acknowledged.
    pub warmup_writes: u64,
}

impl Setup {
    /// Stop the server, if any, and check that it shut down cleanly:
    /// the accept loop joins and the port stops accepting.
    pub fn teardown(self) -> std::result::Result<(), String> {
        let Some(served) = self.served else {
            return Ok(());
        };
        drop(served.clients);
        let addr = served.handle.addr();
        served.handle.shutdown();
        match Client::connect(addr) {
            Ok(_) => Err(format!("server at {addr} still accepts after shutdown")),
            Err(_) => Ok(()),
        }
    }
}

/// The benchmark database: the benchmark-scale catalog and views, plus
/// the chain, tree and cyclic graphs of `recursion::graphs()` in one
/// `edge` table on disjoint node ranges.
pub fn engine(scale: Scale, registry: Option<&MetricsRegistry>) -> Result<Engine> {
    let mut engine = bench_engine(scale)?;
    if let Some(r) = registry {
        engine.set_metrics(r.clone());
    }
    engine.run_sql("CREATE TABLE edge (src INTEGER, dst INTEGER, PRIMARY KEY (src, dst))")?;
    let edges: Vec<String> = graphs()
        .iter()
        .zip(GRAPH_OFFSETS)
        .flat_map(|(g, off)| {
            g.edges
                .iter()
                .map(move |(s, d)| format!("({}, {})", s + off, d + off))
        })
        .collect();
    engine.run_sql(&format!("INSERT INTO edge VALUES {}", edges.join(", ")))?;
    Ok(engine)
}

/// Run one read in-process through the plan cache, as a caller would.
pub fn run_read(engine: &Engine, sql: &str) -> Result<(QueryResult, bool)> {
    let (plan, extracted, hit) = engine.prepare_cached(sql, Strategy::CostBased)?;
    let result = engine.execute_cached(&plan, &[], &extracted)?;
    Ok((result, hit))
}

/// One wire request's outcome.
pub struct WireReply {
    pub ok: bool,
    pub hit: bool,
    pub busy_retries: u32,
}

/// Send one request over the wire, retrying `BUSY` answers, and check
/// the reply: rows equal to the expected answer for a read, `OK` for a
/// write.
pub fn send(client: &mut Client, op: &Op) -> WireReply {
    let sql = match op {
        Op::Read { sql, .. } => sql.clone(),
        Op::Write { empno } => write_sql(*empno),
    };
    let mut busy_retries = 0;
    let mut backoff = Duration::from_micros(200);
    loop {
        let reply = client.query(&sql);
        let (ok, hit) = match (&reply, op) {
            (Ok(Response::Busy(_)), _) if busy_retries < BUSY_RETRIES => {
                busy_retries += 1;
                std::thread::sleep(backoff);
                backoff *= 2;
                continue;
            }
            (
                Ok(Response::Rows {
                    rows, cache_hit, ..
                }),
                Op::Read { expected, .. },
            ) => (rows_match(rows, expected), *cache_hit),
            (Ok(Response::Ok { .. }), Op::Write { .. }) => (true, false),
            _ => (false, false),
        };
        return WireReply {
            ok,
            hit,
            busy_retries,
        };
    }
}

fn read_matches(engine: &Engine, op: &Op) -> bool {
    match op {
        Op::Read { sql, expected, .. } => {
            run_read(engine, sql).is_ok_and(|(r, _)| rows_match(&r.rows, expected))
        }
        Op::Write { .. } => true,
    }
}

/// The first request of each template in a stream: one pass fills the
/// plan cache and builds the indexes those templates use.
fn first_of_each_template(ops: &[Op]) -> Vec<&Op> {
    let mut seen = Vec::new();
    ops.iter()
        .filter(|op| match op {
            Op::Read { template, .. } if !seen.contains(template) => {
                seen.push(*template);
                true
            }
            _ => false,
        })
        .collect()
}

/// Build everything the timed window needs. `registry` installs a live
/// metrics registry (the traced run only).
pub fn setup(cfg: &Config, registry: Option<&MetricsRegistry>) -> Result<Setup> {
    let engine = engine(cfg.scale, registry)?;
    let reference = Reference::build(engine.catalog());
    let mut streams = match cfg.workload {
        Workload::AdhocCompile => vec![workload::adhoc(&reference, cfg.seed)],
        Workload::ReportExec => vec![workload::report(&reference, cfg.seed)],
        Workload::ServerMixed => (0..CONNECTIONS as u64)
            .map(|c| workload::server(&reference, cfg.seed, c, SERVER_STREAM))
            .collect(),
    };
    let mut warmup_failures = 0;
    let mut warmup_writes = 0;
    let mut fail_unless = |ok: bool| warmup_failures += u64::from(!ok);
    let (start, served) = match cfg.workload {
        Workload::AdhocCompile => {
            for op in &streams[0][..ADHOC_WARMUP] {
                fail_unless(read_matches(&engine, op));
            }
            (ADHOC_WARMUP, None)
        }
        Workload::ReportExec => {
            for op in first_of_each_template(&streams[0]) {
                fail_unless(read_matches(&engine, op));
            }
            (0, None)
        }
        Workload::ServerMixed => {
            let shared = SharedEngine::new(engine.clone());
            let handle = serve(
                shared.clone(),
                "127.0.0.1:0",
                ServerConfig {
                    metrics: registry.cloned().unwrap_or_else(MetricsRegistry::noop),
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| starmagic_common::Error::execution(format!("server start: {e}")))?;
            let mut clients = Vec::new();
            for stream in &streams {
                let mut client = Client::connect(handle.addr())
                    .map_err(|e| starmagic_common::Error::execution(format!("connect: {e}")))?;
                for op in &stream[..SERVER_WARMUP] {
                    let ok = send(&mut client, op).ok;
                    fail_unless(ok);
                    warmup_writes += u64::from(ok && matches!(op, Op::Write { .. }));
                }
                clients.push(client);
            }
            (
                SERVER_WARMUP,
                Some(Served {
                    shared,
                    handle,
                    clients,
                }),
            )
        }
    };
    if cfg.corrupt_reference {
        corrupt_first_read(&mut streams[0][start..]);
    }
    Ok(Setup {
        engine,
        reference,
        streams,
        start,
        served,
        warmup_failures,
        warmup_writes,
    })
}

/// Self-test hook: give the first timed read a wrong expected answer
/// (one extra row), so a run that checks answers must count failures.
fn corrupt_first_read(ops: &mut [Op]) {
    let first = ops
        .iter_mut()
        .find_map(|op| match op {
            Op::Read { expected, .. } => Some(expected),
            Op::Write { .. } => None,
        })
        .expect("every stream has a read");
    let mut rows = (**first).clone();
    rows.push(starmagic_common::Row::new(vec![
        starmagic_common::Value::Int(-1),
    ]));
    *first = Arc::new(rows);
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Time `setup` `reps` times, tearing down all but the last, and return
/// the last setup with the median time.
pub fn timed_setup(cfg: &Config, reps: usize) -> Result<(Setup, f64, Vec<String>)> {
    let mut times = Vec::with_capacity(reps);
    let mut problems = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            if let Err(e) = Setup::teardown(prev) {
                problems.push(e);
            }
        }
        let t = Instant::now();
        let s = setup(cfg, None)?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    times.sort_by(f64::total_cmp);
    let setup = last.expect("at least one setup");
    Ok((setup, times[times.len() / 2], problems))
}
