//! The static analysis's fact tables are pinned, and its key memo is
//! proven transparent.
//!
//! Inputs: every Table-1 query (both formulations), every
//! `tests/corpus/*.sql` repro, and the bound closure over the chain,
//! tree and cyclic recursion graphs. For each, the graph after every
//! pipeline stage (initial, phase 1, phase 2, phase 3) is checked two
//! ways:
//!
//! * every box's memoized candidate keys and constant columns
//!   ([`KeysMemo`]) equal the unmemoized `keys::output_keys` and
//!   `keys::const_outputs`, whatever order the boxes are asked in;
//! * `analyze(..).render(..)` over all the graphs equals the committed
//!   `golden/analysis_facts.txt` byte for byte. Regenerate it with
//!   `STARMAGIC_BLESS=1 cargo test -p starmagic-bench --test
//!   analysis_facts` only when a change to the facts is intended.

use std::fmt::Write as _;
use std::path::PathBuf;

use starmagic::qgm::keys::{self, KeysMemo};
use starmagic::qgm::Qgm;
use starmagic::rewrite::engine::CheckLevel;
use starmagic::{Engine, PipelineOptions};
use starmagic_bench::recursion::{graphs, recursion_engine, RECURSION_SQL};
use starmagic_bench::{experiments, fuzz_engine};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/analysis_facts.txt"
);

/// Every input as (label, engine index, SQL); engine 0 is the fuzz
/// engine, engine `1 + i` hosts recursion graph `i`.
fn inputs() -> (Vec<Engine>, Vec<(String, usize, String)>) {
    let mut engines = vec![fuzz_engine().expect("fuzz engine builds")];
    let mut queries = Vec::new();
    for exp in experiments() {
        queries.push((
            format!("suite:{}:original", exp.id),
            0,
            exp.original_sql.to_string(),
        ));
        queries.push((
            format!("suite:{}:correlated", exp.id),
            0,
            exp.correlated_sql.to_string(),
        ));
    }
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"));
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sql"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 10,
        "expected a real corpus in {}",
        dir.display()
    );
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        queries.push((
            format!("corpus:{name}"),
            0,
            std::fs::read_to_string(&path).unwrap(),
        ));
    }
    for spec in graphs() {
        engines.push(recursion_engine(&spec).expect("recursion engine builds"));
        queries.push((
            format!("recursion:{}", spec.name),
            engines.len() - 1,
            format!("{RECURSION_SQL}{}", spec.bound),
        ));
    }
    (engines, queries)
}

/// The four stage graphs of every input the pipeline accepts (inputs
/// it rejects as unsupported are skipped, as in the agreement tests).
fn stage_graphs() -> (Vec<Engine>, Vec<(String, usize, Qgm)>) {
    let (engines, queries) = inputs();
    let opts = PipelineOptions {
        check: CheckLevel::Off,
        trace: false,
        ..PipelineOptions::default()
    };
    let mut out = Vec::new();
    for (label, e, sql) in queries {
        let Ok(o) = engines[e].optimize_with_options(&sql, opts) else {
            continue;
        };
        for (stage, g) in [
            ("initial", o.initial),
            ("phase1", o.phase1),
            ("phase2", o.phase2),
            ("phase3", o.phase3),
        ] {
            out.push((format!("{label} {stage}"), e, g));
        }
    }
    (engines, out)
}

#[test]
fn memoized_keys_equal_unmemoized_keys() {
    let (engines, graphs) = stage_graphs();
    assert!(graphs.len() >= 100, "only {} graphs", graphs.len());
    let mut boxes = 0usize;
    for (label, e, g) in &graphs {
        let catalog = engines[*e].catalog();
        let top_down = g.box_ids();
        let bottom_up: Vec<_> = top_down.iter().rev().copied().collect();
        for order in [top_down, bottom_up] {
            // One memo per order: later boxes hit what earlier ones
            // stored, from a different walk than the one that stored it.
            let mut memo = KeysMemo::default();
            for &b in &order {
                assert_eq!(
                    memo.output_keys(g, catalog, b),
                    keys::output_keys(g, catalog, b),
                    "{label}: keys of {b}"
                );
                assert_eq!(
                    memo.const_outputs(g, b),
                    keys::const_outputs(g, b),
                    "{label}: constant columns of {b}"
                );
                boxes += 1;
            }
        }
    }
    assert!(boxes > 1000, "only {boxes} box checks");
}

#[test]
fn analysis_facts_match_golden() {
    let (engines, graphs) = stage_graphs();
    let mut text = String::new();
    for (label, e, g) in &graphs {
        let _ = writeln!(text, "== {label}");
        text.push_str(&starmagic::analysis::analyze(g, engines[*e].catalog()).render(g));
    }
    if std::env::var_os("STARMAGIC_BLESS").is_some() {
        std::fs::create_dir_all(PathBuf::from(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    if text != golden {
        let line = text
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| text.lines().count().min(golden.lines().count()));
        panic!(
            "analysis facts differ from {GOLDEN} at line {}:\n  now:    {:?}\n  golden: {:?}",
            line + 1,
            text.lines().nth(line),
            golden.lines().nth(line)
        );
    }
}
