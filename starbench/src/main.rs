//! The starmagic benchmark: three seeded workloads against the public
//! API, every answer checked against an independent reference.
//!
//! ```text
//! starbench --workload <adhoc_compile|report_exec|server_mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs a fixed request sequence with every layer timed
//! from outside, around its public entry point. The last line of
//! standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (each `{"value", "unit"}`); the lines before
//! it carry sample counts, invariant checks and the determinism
//! fingerprint.

mod reference;
mod setup;
mod timed;
mod traced;
mod workload;

use std::process::ExitCode;

use starmagic_catalog::generator::Scale;

use crate::setup::Config;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-process, one caller, a shape pool 32× the plan cache: nearly
    /// every request compiles.
    AdhocCompile,
    /// In-process, one caller, eight report shapes through a warm plan
    /// cache: execution dominates.
    ReportExec,
    /// The server on an ephemeral port, two closed-loop connections,
    /// warm point reads with 2% writes beside them.
    ServerMixed,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("adhoc_compile", Workload::AdhocCompile),
    ("report_exec", Workload::ReportExec),
    ("server_mixed", Workload::ServerMixed),
];

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == s).map(|(_, w)| *w)
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is named")
    }
}

/// A run's result line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

const USAGE: &str = "usage: starbench --workload <adhoc_compile|report_exec|server_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let cfg = Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        scale: Scale {
            seed,
            ..Scale::benchmark()
        },
        corrupt_reference: false,
    };
    Ok((cfg, trace.ok_or("--trace is required")?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, trace) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if trace {
        traced::run(&cfg)
    } else {
        timed::run(&cfg)
    };
    match outcome {
        Ok(o) => {
            println!(
                "# {} seed {}: host_cpus {}, scale {} departments x {} employees, closed-loop callers {}",
                cfg.workload.name(),
                cfg.seed,
                std::thread::available_parallelism().map_or(0, usize::from),
                cfg.scale.departments,
                cfg.scale.emps_per_dept,
                if cfg.workload == Workload::ServerMixed { setup::CONNECTIONS } else { 1 },
            );
            for line in &o.notes {
                println!("# {line}");
            }
            println!("{}", o.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [
        Workload::AdhocCompile,
        Workload::ReportExec,
        Workload::ServerMixed,
    ];

    fn small(workload: Workload, corrupt_reference: bool) -> Config {
        Config {
            workload,
            seed: 5,
            seconds: 0.2,
            scale: Scale::small(),
            corrupt_reference,
        }
    }

    fn metric(o: &Outcome, name: &str) -> f64 {
        o.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    }

    #[test]
    fn every_workload_answers_correctly() {
        for w in ALL {
            let o = timed::run(&small(w, false)).unwrap();
            assert!(o.correct && o.failed == 0, "{w:?}: {:?}", o.notes);
            for name in ["setup_s", "qps", "p50_us", "p99_us", "peak_rss_mb"] {
                assert!(metric(&o, name) > 0.0, "{w:?}: {name}");
            }
        }
    }

    #[test]
    fn a_corrupted_reference_fails_the_run() {
        for w in ALL {
            let o = timed::run(&small(w, true)).unwrap();
            assert!(!o.correct && o.failed > 0, "{w:?} missed a wrong answer");
        }
    }

    #[test]
    fn traced_counts_repeat_for_a_seed() {
        let fingerprint = [
            "exec.work",
            "rewrite.fires",
            "qgm.boxes",
            "exec.fixpoint_rounds",
            "engine.cache_evictions",
        ];
        for w in ALL {
            let a = traced::run(&small(w, false)).unwrap();
            let b = traced::run(&small(w, false)).unwrap();
            assert!(a.correct && b.correct, "{w:?}: {:?}", a.notes);
            for name in fingerprint {
                assert_eq!(metric(&a, name), metric(&b, name), "{w:?}: {name}");
            }
            assert!(metric(&a, "exec.work") > 0.0, "{w:?}");
        }
    }
}
