//! Structured slow-query log: JSONL records for queries over a
//! configurable latency threshold, with size-based rotation.
//!
//! One record per slow query, one JSON object per line (parseable by
//! `starmagic_trace::json::parse`): the normalized SQL (the cache
//! key's parameterized text — literals are already lifted to `?N`,
//! so no user data beyond the query shape is written), the strategy,
//! the cache verdict, per-phase spans, row count, total duration, and
//! the L2xx code when the magic gate refused the magic plan.
//!
//! The threshold is an atomic, adjustable at runtime over the wire
//! (`SET SLOWLOG <ms>` / `SET SLOWLOG OFF`) without a lock; the file
//! itself is opened lazily on first write and guarded by a mutex.
//! When the file would exceed `max_bytes` the current log is renamed
//! to `<path>.1` (replacing any previous rotation) and a fresh file
//! is started — bounded disk, newest-two-generations retention.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use starmagic_trace::json::Value;

/// Threshold sentinel for "disabled".
const OFF: u64 = u64::MAX;

/// Default rotation size (1 MiB) — small enough for CI artifacts,
/// large enough for thousands of records.
pub const DEFAULT_MAX_BYTES: u64 = 1 << 20;

/// One slow query, ready to serialize.
#[derive(Debug, Clone)]
pub struct SlowRecord {
    /// Normalized (parameterized) SQL from the plan-cache key.
    pub sql: String,
    /// Strategy token (`cost` / `original` / `magic`).
    pub strategy: String,
    /// Whether the plan came out of the cache.
    pub cache_hit: bool,
    /// Result rows returned.
    pub rows: u64,
    /// End-to-end duration in microseconds.
    pub duration_us: u64,
    /// Per-phase spans (`parse`, `bind`, `execute`, and on a cache
    /// miss the pipeline's), name → microseconds.
    pub spans: Vec<(String, u64)>,
    /// The L2xx code for which the pipeline's magic gate refused the
    /// plan's magic alternative (`null` in JSON when it did not).
    pub magic_refused: Option<String>,
}

impl SlowRecord {
    /// The record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> Value {
        #[allow(clippy::cast_precision_loss)]
        fn num(n: u64) -> Value {
            Value::Num(n as f64)
        }
        let ts = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .ok()
            .map_or(0, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
        let spans = Value::Obj(
            self.spans
                .iter()
                .map(|(name, us)| (name.clone(), num(*us)))
                .collect(),
        );
        Value::Obj(vec![
            ("ts_us".to_string(), num(ts)),
            ("sql".to_string(), Value::Str(self.sql.clone())),
            ("strategy".to_string(), Value::Str(self.strategy.clone())),
            ("cache_hit".to_string(), Value::Bool(self.cache_hit)),
            ("rows".to_string(), num(self.rows)),
            ("duration_us".to_string(), num(self.duration_us)),
            ("spans".to_string(), spans),
            (
                "magic_refused".to_string(),
                self.magic_refused.clone().map_or(Value::Null, Value::Str),
            ),
        ])
    }
}

/// The shared slow-query log. Cheap to probe when inactive: the
/// threshold check is one atomic load, and sessions take the clock
/// only when the log is active.
#[derive(Debug)]
pub struct SlowLog {
    path: PathBuf,
    max_bytes: u64,
    threshold_us: AtomicU64,
    /// Open file plus its current size; `None` until first write.
    file: Mutex<Option<(File, u64)>>,
    records: AtomicU64,
}

impl SlowLog {
    /// A log writing to `path`, rotating at `max_bytes`, initially
    /// logging queries at or over `threshold_ms` (or nothing when
    /// `None` — armed later via [`SlowLog::set_threshold_ms`]).
    pub fn new(path: impl Into<PathBuf>, threshold_ms: Option<u64>, max_bytes: u64) -> SlowLog {
        let log = SlowLog {
            path: path.into(),
            max_bytes: max_bytes.max(1),
            threshold_us: AtomicU64::new(OFF),
            file: Mutex::new(None),
            records: AtomicU64::new(0),
        };
        log.set_threshold_ms(threshold_ms);
        log
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The rotated generation's path (`<path>.1`).
    pub fn rotated_path(&self) -> PathBuf {
        let mut name = self.path.as_os_str().to_owned();
        name.push(".1");
        PathBuf::from(name)
    }

    /// Whether any query can currently be logged.
    pub fn active(&self) -> bool {
        self.threshold_us.load(Ordering::Relaxed) != OFF
    }

    /// Arm (`Some(ms)`) or disarm (`None`) the log.
    pub fn set_threshold_ms(&self, ms: Option<u64>) {
        let us = ms.map_or(OFF, |m| m.saturating_mul(1000));
        self.threshold_us.store(us, Ordering::Relaxed);
    }

    /// Current threshold in milliseconds, `None` when off.
    pub fn threshold_ms(&self) -> Option<u64> {
        match self.threshold_us.load(Ordering::Relaxed) {
            OFF => None,
            us => Some(us / 1000),
        }
    }

    /// Whether a query of this duration crosses the threshold.
    pub fn should_log(&self, duration_us: u64) -> bool {
        duration_us >= self.threshold_us.load(Ordering::Relaxed)
    }

    /// Records successfully written since construction.
    pub fn records_written(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Append one record as a JSON line, rotating first when the file
    /// would exceed `max_bytes`. Errors are returned, not panicked —
    /// the server drops them (losing telemetry must never fail a
    /// query).
    pub fn log(&self, record: &SlowRecord) -> io::Result<()> {
        let mut line = record.to_json().to_string();
        line.push('\n');
        let mut guard = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.is_none() {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            let len = file.metadata()?.len();
            *guard = Some((file, len));
        }
        let needs_rotation = guard
            .as_ref()
            .is_some_and(|(_, len)| *len > 0 && *len + line.len() as u64 > self.max_bytes);
        if needs_rotation {
            *guard = None; // close before renaming
            std::fs::rename(&self.path, self.rotated_path())?;
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)?;
            *guard = Some((file, 0));
        }
        let (file, len) = guard.as_mut().expect("slowlog file open");
        file.write_all(line.as_bytes())?;
        *len += line.len() as u64;
        self.records.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "starmagic-slowlog-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn record(sql: &str, us: u64) -> SlowRecord {
        SlowRecord {
            sql: sql.to_string(),
            strategy: "magic".to_string(),
            cache_hit: true,
            rows: 3,
            duration_us: us,
            spans: vec![("parse".to_string(), 10), ("execute".to_string(), us)],
            magic_refused: None,
        }
    }

    #[test]
    fn threshold_arming() {
        let log = SlowLog::new(temp_path("arm"), None, DEFAULT_MAX_BYTES);
        assert!(!log.active());
        assert!(!log.should_log(u64::MAX - 1));
        log.set_threshold_ms(Some(5));
        assert!(log.active());
        assert_eq!(log.threshold_ms(), Some(5));
        assert!(log.should_log(5_000));
        assert!(!log.should_log(4_999));
        log.set_threshold_ms(Some(0));
        assert!(log.should_log(0), "threshold 0 logs everything");
        log.set_threshold_ms(None);
        assert!(!log.active());
        let _ = std::fs::remove_file(log.path());
    }

    #[test]
    fn records_parse_back_as_json_lines() {
        let path = temp_path("parse");
        let log = SlowLog::new(&path, Some(0), DEFAULT_MAX_BYTES);
        log.log(&record("SELECT a FROM t WHERE b = ?1", 1234))
            .unwrap();
        log.log(&record("SELECT 2", 99)).unwrap();
        assert_eq!(log.records_written(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = starmagic_trace::json::parse(line).expect("JSONL line parses");
            assert!(v.get("sql").and_then(Value::as_str).is_some());
            assert!(v.get("duration_us").and_then(Value::as_f64).is_some());
            assert!(v.get("spans").is_some_and(Value::is_obj));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rotation_by_size_keeps_two_generations() {
        let path = temp_path("rotate");
        // Tiny cap: every second record rotates.
        let log = SlowLog::new(&path, Some(0), 200);
        for i in 0..10 {
            log.log(&record(&format!("SELECT {i}"), 50)).unwrap();
        }
        assert_eq!(log.records_written(), 10);
        let current = std::fs::read_to_string(&path).unwrap();
        let rotated = std::fs::read_to_string(log.rotated_path()).unwrap();
        assert!(!current.is_empty());
        assert!(!rotated.is_empty());
        // No record was torn in half by rotation.
        for line in current.lines().chain(rotated.lines()) {
            starmagic_trace::json::parse(line).expect("line survived rotation");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(log.rotated_path());
    }
}
