//! The Starburst optimization pipeline (Figures 2 and 3).
//!
//! Query rewrite runs in three phases with tight control over the EMST
//! rule:
//!
//! * **Phase 1**: every rule except EMST (merge, local predicate
//!   pushdown, distinct pullup, redundant-join elimination) — nothing
//!   here needs a join order.
//! * **Plan optimization #1**: the cost-based join orders are
//!   deposited on each select box, and the plan cost recorded.
//! * **Phase 2**: EMST is enabled, consuming the join orders.
//! * **Phase 3**: EMST disabled; the magic links are consumed and the
//!   graph is simplified (merging the magic boxes away, Example 4.1).
//! * **Plan optimization #2**: fresh join orders and the post-EMST
//!   cost.
//!
//! The cheaper of the phase-1 and phase-3 graphs is chosen — the
//! heuristic's guarantee that "usage of the EMST rewrite rule cannot
//! degrade a query plan produced without using the EMST rule" (§3.2).
//!
//! A wrong answer degrades a plan worst of all, so a magic plan must
//! also pass the **magic gate**: one static-analysis pass over the
//! phase-2 graph, run only when the magic plan would be chosen. Any
//! error-severity L2xx finding (L200 null-strictness, L201 refuted
//! Preserve, L202 binding flow) refuses magic and runs the phase-1
//! plan, even when magic is forced. Structural lint and the chosen
//! graph's fact table are not computed here; [`Optimized::lint`] and
//! [`Optimized::analysis`] compute them when a surface asks.

use starmagic_catalog::Catalog;
use starmagic_common::Result;
use starmagic_lint::{Code, Diagnostic, LintReport, Severity};
use starmagic_magic::EmstRule;
use starmagic_planner as planner;
use starmagic_qgm::{build_qgm, strata, Qgm};
use starmagic_rewrite::engine::{CheckLevel, RewriteEngine};
use starmagic_rewrite::rules::{
    DistinctPullup, LocalPredicatePushdown, Merge, ProjectionPrune, RedundantSelfJoin, RewriteRule,
    SimplifyPredicates,
};
use starmagic_rewrite::{OpRegistry, RewriteStats};
use starmagic_sql::Query;
use starmagic_trace::TraceSink;

/// Everything the pipeline produced, kept for EXPLAIN and the figure
/// reproductions.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The graph as built from the AST (before any rewrite).
    pub initial: Qgm,
    /// After phase 1, with plan-optimizer join orders.
    pub phase1: Qgm,
    /// After phase 2 (EMST applied).
    pub phase2: Qgm,
    /// After phase 3 (simplified), with fresh join orders.
    pub phase3: Qgm,
    /// Estimated cost of the phase-1 plan (no EMST).
    pub cost_without_magic: f64,
    /// Estimated cost of the phase-3 plan (with EMST).
    pub cost_with_magic: f64,
    /// Rewrite-rule fire counts per phase.
    pub stats: [RewriteStats; 3],
    /// How many times the plan optimizer ran (always 2 — Figure 3).
    pub plan_optimizations: usize,
    /// Whether the chosen plan is the EMST one.
    pub chose_magic: bool,
    /// The first error-severity L2xx code the magic gate found on the
    /// phase-2 graph, when it refused the magic plan; the phase-1 plan
    /// runs instead.
    pub magic_refused: Option<Code>,
    /// The gate's error-severity findings on the phase-2 graph. `None`
    /// when the gate did not run (the cost model chose the original
    /// plan); empty when EMST did not run, so there is no phase 2.
    phase2_errors: Option<Vec<Diagnostic>>,
    /// Per-phase spans (build, rewrite phases, plan optimizations, the
    /// magic gate's `analysis`). Empty when [`PipelineOptions::trace`]
    /// was off.
    pub trace: TraceSink,
}

impl Optimized {
    /// The graph the executor should run.
    pub fn chosen(&self) -> &Qgm {
        if self.chose_magic {
            &self.phase3
        } else {
            &self.phase1
        }
    }

    /// Structural lint of the chosen graph, computed on demand (the
    /// serving path never reads it); surfaced by EXPLAIN and `\lint`.
    pub fn lint(&self, catalog: &Catalog) -> LintReport {
        starmagic_lint::lint(self.chosen(), catalog)
    }

    /// Dataflow facts and L2xx checks over the chosen graph, plus the
    /// error-severity findings on the phase-2 graph: phase-3 merges
    /// can dissolve the magic boxes carrying the evidence, and a
    /// refused or costlier magic plan never becomes the chosen graph.
    /// Computed on demand, reusing the magic gate's phase-2 pass when
    /// it ran. Surfaced by EXPLAIN's `== analysis` section and the
    /// REPL's `\analysis`.
    pub fn analysis(&self, catalog: &Catalog) -> starmagic_analysis::Analysis {
        let mut analysis = starmagic_analysis::analyze(self.chosen(), catalog);
        let computed;
        let phase2 = match &self.phase2_errors {
            Some(errors) => errors,
            None => {
                computed = gate_errors(&self.phase2, catalog);
                &computed
            }
        };
        for d in phase2 {
            analysis
                .report
                .push(d.code, d.box_id, d.quant, format!("phase 2: {}", d.message));
        }
        analysis
    }
}

/// Knobs for the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Run phases 2/3 (EMST). With `false`, `phase2`/`phase3` equal
    /// `phase1` and the original plan is chosen.
    pub enable_magic: bool,
    /// Force the magic plan even when the cost model prefers the
    /// original (used by benchmarks to measure both sides).
    pub force_magic: bool,
    /// Ablation: build supplementary-magic-boxes (§4.2 step 4a).
    pub use_supplementary: bool,
    /// Ablation: run the phase-3 cleanup. With `false`, the chosen
    /// magic plan is the raw phase-2 graph — the paper's point that
    /// EMST needs the other rewrite rules to remove the complexity it
    /// introduces.
    pub cleanup_phase3: bool,
    /// Enable the projection-pruning rule in phases 1 and 3. Off by
    /// default so printed graphs keep the paper's `SELECT *` triplet
    /// shapes; turning it on narrows every exclusive select box to its
    /// referenced columns.
    pub prune_projections: bool,
    /// How aggressively the rewrite engine lints while rewriting:
    /// [`CheckLevel::PerFire`] aborts on the first rule application
    /// that leaves the graph semantically invalid, attributed to the
    /// rule. Defaults to PerFire in debug builds, Off in release.
    pub check: CheckLevel,
    /// Collect per-phase spans into [`Optimized::trace`]. When off the
    /// sink is disabled and records nothing (no clock reads).
    pub trace: bool,
    /// Executor worker threads for surfaces that run the plan (the
    /// engine copies this into [`crate::Prepared`] at prepare time).
    /// Optimization itself is unaffected. `1` = the classic serial
    /// executor; higher counts parallelize the executor's hot loops
    /// with byte-identical results.
    pub threads: usize,
    /// Test-only seeded unsoundness: run EMST with its null-strictness
    /// gate disabled, re-introducing the PR 4 decorrelation bug class.
    /// Exists so regression tests can prove the static analysis flags
    /// the bad graph (L200). Never enable outside tests.
    pub unsound_decorrelation: bool,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            enable_magic: true,
            force_magic: false,
            use_supplementary: true,
            cleanup_phase3: true,
            prune_projections: false,
            check: CheckLevel::default(),
            trace: true,
            threads: 1,
            unsound_decorrelation: false,
        }
    }
}

/// Run the full pipeline for a parsed query.
pub fn optimize(
    catalog: &Catalog,
    registry: &OpRegistry,
    query: &Query,
    opts: PipelineOptions,
) -> Result<Optimized> {
    let engine = RewriteEngine::with_check(opts.check);
    let mut trace = if opts.trace {
        TraceSink::enabled()
    } else {
        TraceSink::disabled()
    };

    let t = trace.start("build");
    let initial = build_qgm(catalog, query)?;
    trace.finish(t);
    let mut g = initial.clone();

    // The traditional rule set used by phases 1 and 3.
    let simplify = SimplifyPredicates;
    let merge = Merge;
    let pushdown = LocalPredicatePushdown;
    let pullup = DistinctPullup;
    let redundant = RedundantSelfJoin;
    let prune = ProjectionPrune;
    let mut traditional: Vec<&dyn RewriteRule> =
        vec![&simplify, &merge, &pushdown, &pullup, &redundant];
    if opts.prune_projections {
        traditional.push(&prune);
    }

    // Phase 1.
    let t = trace.start("rewrite.phase1");
    let stats1 = engine.run(&mut g, catalog, registry, &traditional)?;
    g.garbage_collect(false);
    g.validate()?;
    // Merges may have removed whole layers: renumber the strata so the
    // stored values stay authoritative (L104 hygiene).
    strata::assign(&mut g);
    trace.finish(t);

    // Plan optimization #1.
    let t = trace.start("plan.1");
    planner::annotate_join_orders(&mut g, catalog);
    let cost_without_magic = planner::estimate_graph_cost(&g, catalog);
    trace.finish(t);
    let phase1 = g.clone();

    if !opts.enable_magic {
        return Ok(Optimized {
            initial,
            phase2: phase1.clone(),
            phase3: phase1.clone(),
            phase1,
            cost_without_magic,
            cost_with_magic: f64::INFINITY,
            stats: [stats1, RewriteStats::default(), RewriteStats::default()],
            plan_optimizations: 1,
            chose_magic: false,
            magic_refused: None,
            phase2_errors: Some(Vec::new()),
            trace,
        });
    }

    // Phase 2: EMST active (one rule instance per run: it memoizes
    // adorned copies).
    let mut emst = if opts.use_supplementary {
        EmstRule::new()
    } else {
        EmstRule::without_supplementary()
    };
    if opts.unsound_decorrelation {
        emst = emst.unsound_skip_null_strict_gate();
    }
    let t = trace.start("rewrite.phase2");
    let stats2 = engine.run(
        &mut g,
        catalog,
        registry,
        &[&SimplifyPredicates, &emst, &DistinctPullup],
    )?;
    g.garbage_collect(true);
    g.validate()?;
    // EMST rewired quantifiers onto fresh magic/adorned boxes without
    // renumbering; refresh the strata so phase 3's merges (which
    // collapse those unassigned buffer boxes away) never expose a
    // stale cross-stratum edge to the PerFire lint (L010).
    strata::assign(&mut g);
    trace.finish(t);
    let phase2 = g.clone();

    // Phase 3: links are consumed; simplify.
    let t = trace.start("rewrite.phase3");
    for b in g.box_ids() {
        g.boxed_mut(b).magic_links.clear();
    }
    let stats3 = if !opts.cleanup_phase3 {
        RewriteStats::default()
    } else {
        engine.run(&mut g, catalog, registry, &traditional)?
    };
    g.garbage_collect(false);
    g.validate()?;
    // EMST copied and created boxes without renumbering: refresh the
    // strata now that the graph has its final shape.
    strata::assign(&mut g);
    trace.finish(t);

    // Plan optimization #2.
    let t = trace.start("plan.2");
    planner::annotate_join_orders(&mut g, catalog);
    let cost_with_magic = planner::estimate_graph_cost(&g, catalog);
    trace.finish(t);
    let phase3 = g;

    // The magic gate: one analysis pass over the phase-2 graph, only
    // when the magic plan would be chosen. Phase 2 rather than phase 3,
    // because phase-3 merges can dissolve the magic boxes that carry
    // an L2xx signature.
    let wants_magic = opts.force_magic || cost_with_magic <= cost_without_magic;
    let phase2_errors = wants_magic.then(|| {
        let t = trace.start("analysis");
        let errors = gate_errors(&phase2, catalog);
        trace.finish(t);
        errors
    });
    let magic_refused = phase2_errors
        .as_ref()
        .and_then(|e| e.first())
        .map(|d| d.code);
    Ok(Optimized {
        initial,
        phase1,
        phase2,
        phase3,
        cost_without_magic,
        cost_with_magic,
        stats: [stats1, stats2, stats3],
        plan_optimizations: 2,
        chose_magic: wants_magic && magic_refused.is_none(),
        magic_refused,
        phase2_errors,
        trace,
    })
}

/// The magic gate's pass: the analysis checks over the phase-2 graph,
/// keeping only the error-severity findings (L200–L202).
fn gate_errors(phase2: &Qgm, catalog: &Catalog) -> Vec<Diagnostic> {
    let mut report = starmagic_analysis::checks(phase2, catalog);
    report
        .diagnostics
        .retain(|d| d.code.severity() == Severity::Error);
    report.diagnostics
}
