//! Seeded request generation for the three workloads.
//!
//! Every read carries its expected answer, computed by
//! [`crate::reference`] from the same template description that
//! renders its SQL. The engine only ever sees the SQL text.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use starmagic_bench::experiments;
use starmagic_bench::recursion::RECURSION_SQL;
use starmagic_common::{Row, Value};

use crate::reference::{canonical, Dept, Emp, Reference, ViewRows};

/// Where each `recursion::graphs()` shape sits in the `edge` table:
/// chain, tree and cyclic on disjoint node ranges.
pub const GRAPH_OFFSETS: [i64; 3] = [0, 1000, 2000];

/// Distinct query shapes the ad-hoc pool draws: 32× the plan cache,
/// so the cache cannot hold the working set.
pub const ADHOC_POOL: usize = 32 * starmagic::DEFAULT_PLAN_CACHE_CAP;
const _: () = assert!(ADHOC_POOL >= 16 * starmagic::DEFAULT_PLAN_CACHE_CAP);

/// One request of a workload.
#[derive(Debug, Clone)]
pub enum Op {
    /// A query and its canonical expected rows.
    Read {
        sql: String,
        expected: Arc<Vec<Row>>,
        template: &'static str,
    },
    /// A one-row `INSERT INTO emp_act` for an existing employee; the
    /// project number is filled in at send time so every write has a
    /// fresh key.
    Write { empno: i64 },
}

/// Project numbers for writes: above every generated project, and
/// fresh for every write, so no `INSERT` collides with a stored key.
static NEXT_PROJNO: AtomicI64 = AtomicI64::new(1_000_000);

/// The `INSERT` a write sends, with a fresh project number. Zero hours
/// keeps every `SUM` over `emp_act` (and so every expected answer)
/// unchanged.
pub fn write_sql(empno: i64) -> String {
    let projno = NEXT_PROJNO.fetch_add(1, Ordering::Relaxed);
    format!("INSERT INTO emp_act VALUES ({empno}, {projno}, 0.0)")
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Non-empty subsets of `0..n` with at most `max` members, in a fixed
/// order.
fn subsets(n: usize, max: usize) -> Vec<Vec<usize>> {
    (1u32..(1 << n))
        .filter(|m| m.count_ones() as usize <= max)
        .map(|m| (0..n).filter(|i| m & (1 << i) != 0).collect())
        .collect()
}

// ---- Department-level views --------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum View {
    DeptAvgSal,
    TopPay,
    DeptSummary,
    AvgMgrSal,
    ProjCount,
}

const VIEWS: [View; 5] = [
    View::DeptAvgSal,
    View::TopPay,
    View::DeptSummary,
    View::AvgMgrSal,
    View::ProjCount,
];

impl View {
    fn name(self) -> &'static str {
        match self {
            View::DeptAvgSal => "deptAvgSal",
            View::TopPay => "topPay",
            View::DeptSummary => "deptSummary",
            View::AvgMgrSal => "avgMgrSal",
            View::ProjCount => "projCount",
        }
    }
    fn key(self) -> &'static str {
        match self {
            View::DeptSummary | View::ProjCount => "deptno",
            _ => "workdept",
        }
    }
    /// Non-key columns, in view order.
    fn cols(self) -> &'static [&'static str] {
        match self {
            View::DeptAvgSal => &["avgsal", "headcount"],
            View::TopPay => &["maxsal"],
            View::DeptSummary => &["avgsal", "maxsal"],
            View::AvgMgrSal => &["avgsalary"],
            View::ProjCount => &["cnt"],
        }
    }
    fn rows(self, r: &Reference) -> &ViewRows {
        match self {
            View::DeptAvgSal => &r.dept_avg_sal,
            View::TopPay => &r.top_pay,
            View::DeptSummary => &r.dept_summary,
            View::AvgMgrSal => &r.avg_mgr_sal,
            View::ProjCount => &r.proj_count,
        }
    }
    /// A threshold drawn from the range of non-key column `i`.
    fn threshold(self, i: usize, rng: &mut StdRng) -> i64 {
        match self.cols()[i] {
            "headcount" => rng.gen_range(0..80),
            "cnt" => rng.gen_range(0..10),
            _ => rng.gen_range(30_000..80_000),
        }
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        _ => None,
    }
}

/// `SQL op literal` under three-valued logic: NULL never passes.
fn passes(v: Option<f64>, op: &str, x: f64) -> bool {
    v.is_some_and(|v| match op {
        ">" => v > x,
        "<" => v < x,
        ">=" => v >= x,
        _ => unreachable!("operator {op}"),
    })
}

/// How a template binds its department.
#[derive(Debug, Clone, Copy)]
enum DeptBinding {
    No,
    Name,
}

impl DeptBinding {
    fn sql(self, d: &Dept) -> String {
        match self {
            DeptBinding::No => format!("d.deptno = {}", d.deptno),
            DeptBinding::Name => format!("d.deptname = '{}'", d.deptname),
        }
    }
}

// ---- Family P: a department point lookup on an aggregate view -------
// Exp A (deptno binding), F (extra predicate on the view) and G
// (deptname binding).

#[derive(Debug, Clone, Copy)]
enum PCol {
    Name,
    No,
    Budget,
    Division,
    ViewKey,
    View(usize),
}

#[derive(Debug, Clone, Copy)]
enum PPred {
    BudgetGt,
    BudgetLt,
    MgrGe,
    DivisionNe,
    ViewGt(usize),
    ViewLt(usize),
}

#[derive(Debug, Clone)]
struct PointShape {
    view: View,
    bind: DeptBinding,
    proj: Vec<PCol>,
    preds: Vec<PPred>,
}

impl PointShape {
    fn all() -> Vec<PointShape> {
        let mut out = Vec::new();
        for view in VIEWS {
            let mut cols = vec![PCol::Name, PCol::No, PCol::Budget, PCol::Division];
            cols.extend((0..view.cols().len()).map(PCol::View));
            let preds = [
                PPred::BudgetGt,
                PPred::BudgetLt,
                PPred::MgrGe,
                PPred::DivisionNe,
                PPred::ViewGt(0),
                PPred::ViewLt(0),
            ];
            let mut pred_sets = vec![Vec::new()];
            pred_sets.extend(subsets(preds.len(), 2));
            for bind in [DeptBinding::No, DeptBinding::Name] {
                for proj in subsets(cols.len(), 3) {
                    for ps in &pred_sets {
                        out.push(PointShape {
                            view,
                            bind,
                            proj: proj.iter().map(|&i| cols[i]).collect(),
                            preds: ps.iter().map(|&i| preds[i]).collect(),
                        });
                    }
                }
            }
        }
        out
    }

    fn literal(&self, p: PPred, rng: &mut StdRng, r: &Reference) -> Value {
        match p {
            PPred::BudgetGt | PPred::BudgetLt => Value::Int(rng.gen_range(100_000..1_000_000)),
            PPred::MgrGe => Value::Int(rng.gen_range(0..r.depts.len() as i64)),
            PPred::DivisionNe => Value::Str(Arc::clone(
                &r.divisions[rng.gen_range(0..r.divisions.len())],
            )),
            PPred::ViewGt(i) | PPred::ViewLt(i) => Value::Int(self.view.threshold(i, rng)),
        }
    }

    fn sql(&self, d: &Dept, lits: &[Value]) -> String {
        let cols: Vec<String> = self
            .proj
            .iter()
            .map(|c| match c {
                PCol::Name => "d.deptname".to_string(),
                PCol::No => "d.deptno".to_string(),
                PCol::Budget => "d.budget".to_string(),
                PCol::Division => "d.division".to_string(),
                PCol::ViewKey => format!("v.{}", self.view.key()),
                PCol::View(i) => format!("v.{}", self.view.cols()[*i]),
            })
            .collect();
        let mut sql = format!(
            "SELECT {} FROM department d, {} v WHERE v.{} = d.deptno AND {}",
            cols.join(", "),
            self.view.name(),
            self.view.key(),
            self.bind.sql(d)
        );
        for (p, v) in self.preds.iter().zip(lits) {
            let pred = match p {
                PPred::BudgetGt => "d.budget >".to_string(),
                PPred::BudgetLt => "d.budget <".to_string(),
                PPred::MgrGe => "d.mgrno >=".to_string(),
                PPred::DivisionNe => "d.division <>".to_string(),
                PPred::ViewGt(i) => format!("v.{} >", self.view.cols()[*i]),
                PPred::ViewLt(i) => format!("v.{} <", self.view.cols()[*i]),
            };
            let _ = write!(sql, " AND {pred} {v}");
        }
        sql
    }

    fn expected(&self, r: &Reference, d: &Dept, lits: &[Value]) -> Vec<Row> {
        let Some(vrow) = &self.view.rows(r)[d.deptno as usize] else {
            return Vec::new();
        };
        let ok = self.preds.iter().zip(lits).all(|(p, v)| {
            let x = num(v).unwrap_or(0.0);
            match p {
                PPred::BudgetGt => d.budget > x,
                PPred::BudgetLt => d.budget < x,
                PPred::MgrGe => d.mgrno as f64 >= x,
                PPred::DivisionNe => Value::Str(Arc::clone(&d.division)) != *v,
                PPred::ViewGt(i) => passes(num(&vrow[*i]), ">", x),
                PPred::ViewLt(i) => passes(num(&vrow[*i]), "<", x),
            }
        });
        if !ok {
            return Vec::new();
        }
        let row = self
            .proj
            .iter()
            .map(|c| match c {
                PCol::Name => Value::Str(Arc::clone(&d.deptname)),
                PCol::No | PCol::ViewKey => Value::Int(d.deptno),
                PCol::Budget => Value::Double(d.budget),
                PCol::Division => Value::Str(Arc::clone(&d.division)),
                PCol::View(i) => vrow[*i].clone(),
            })
            .collect();
        vec![Row::new(row)]
    }
}

// ---- Family E: one department's employees against its aggregate ----
// Exp B.

#[derive(Debug, Clone, Copy)]
enum ECol {
    EmpNo,
    EmpName,
    Salary,
    YearHired,
    View,
}

#[derive(Debug, Clone, Copy)]
enum EPred {
    YearGt,
    YearLt,
    BonusGt,
    BudgetGt,
}

#[derive(Debug, Clone)]
struct EmpShape {
    view: View,
    col: usize,
    less: bool,
    bind: DeptBinding,
    proj: Vec<ECol>,
    preds: Vec<EPred>,
}

impl EmpShape {
    fn all() -> Vec<EmpShape> {
        let cols = [
            ECol::EmpNo,
            ECol::EmpName,
            ECol::Salary,
            ECol::YearHired,
            ECol::View,
        ];
        let preds = [
            EPred::YearGt,
            EPred::YearLt,
            EPred::BonusGt,
            EPred::BudgetGt,
        ];
        let mut out = Vec::new();
        for (view, col) in [
            (View::DeptAvgSal, 0),
            (View::TopPay, 0),
            (View::DeptSummary, 0),
            (View::DeptSummary, 1),
            (View::AvgMgrSal, 0),
        ] {
            for less in [false, true] {
                for bind in [DeptBinding::Name, DeptBinding::No] {
                    for proj in subsets(cols.len(), 3) {
                        for pred in std::iter::once(None).chain(preds.iter().map(Some)) {
                            out.push(EmpShape {
                                view,
                                col,
                                less,
                                bind,
                                proj: proj.iter().map(|&i| cols[i]).collect(),
                                preds: pred.into_iter().copied().collect(),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    fn literal(p: EPred, rng: &mut StdRng) -> Value {
        Value::Int(match p {
            EPred::YearGt | EPred::YearLt => rng.gen_range(1970..1995),
            EPred::BonusGt => rng.gen_range(0..10_000),
            EPred::BudgetGt => rng.gen_range(100_000..1_000_000),
        })
    }

    fn sql(&self, d: &Dept, lits: &[Value]) -> String {
        let vcol = self.view.cols()[self.col];
        let cols: Vec<String> = self
            .proj
            .iter()
            .map(|c| match c {
                ECol::EmpNo => "e.empno".to_string(),
                ECol::EmpName => "e.empname".to_string(),
                ECol::Salary => "e.salary".to_string(),
                ECol::YearHired => "e.yearhired".to_string(),
                ECol::View => format!("v.{vcol}"),
            })
            .collect();
        let mut sql = format!(
            "SELECT {} FROM employee e, department d, {} v \
             WHERE e.workdept = d.deptno AND v.{} = e.workdept \
             AND e.salary {} v.{vcol} AND {}",
            cols.join(", "),
            self.view.name(),
            self.view.key(),
            if self.less { "<" } else { ">" },
            self.bind.sql(d)
        );
        for (p, v) in self.preds.iter().zip(lits) {
            let pred = match p {
                EPred::YearGt => "e.yearhired >",
                EPred::YearLt => "e.yearhired <",
                EPred::BonusGt => "e.bonus >",
                EPred::BudgetGt => "d.budget >",
            };
            let _ = write!(sql, " AND {pred} {v}");
        }
        sql
    }

    fn expected(&self, r: &Reference, d: &Dept, lits: &[Value]) -> Vec<Row> {
        let Some(vrow) = &self.view.rows(r)[d.deptno as usize] else {
            return Vec::new();
        };
        let target = &vrow[self.col];
        let Some(t) = num(target) else {
            return Vec::new();
        };
        let keep = |e: &Emp| {
            passes(e.salary, if self.less { "<" } else { ">" }, t)
                && self.preds.iter().zip(lits).all(|(p, v)| {
                    let x = num(v).unwrap_or(0.0);
                    match p {
                        EPred::YearGt => passes(e.yearhired.map(|y| y as f64), ">", x),
                        EPred::YearLt => passes(e.yearhired.map(|y| y as f64), "<", x),
                        EPred::BonusGt => passes(e.bonus, ">", x),
                        EPred::BudgetGt => d.budget > x,
                    }
                })
        };
        r.emps_by_dept[d.deptno as usize]
            .iter()
            .filter(|e| keep(e))
            .map(|e| {
                Row::new(
                    self.proj
                        .iter()
                        .map(|c| match c {
                            ECol::EmpNo => Value::Int(e.empno),
                            ECol::EmpName => Value::Str(Arc::clone(&e.empname)),
                            ECol::Salary => e.salary.map_or(Value::Null, Value::Double),
                            ECol::YearHired => e.yearhired.map_or(Value::Null, Value::Int),
                            ECol::View => target.clone(),
                        })
                        .collect(),
                )
            })
            .collect()
    }
}

// ---- Family T: a bound transitive closure -------------------------

/// An extra predicate on `dst`.
#[derive(Debug, Clone, Copy)]
enum TPred {
    Gt,
    Lt,
    Ne,
}

#[derive(Debug, Clone)]
struct ClosureShape {
    cte: &'static str,
    /// 0: `src, dst`; 1: `dst`; 2: `dst, src`.
    proj: usize,
    preds: Vec<TPred>,
}

impl ClosureShape {
    fn all() -> Vec<ClosureShape> {
        let preds = [TPred::Gt, TPred::Lt, TPred::Ne];
        let mut pred_sets = vec![Vec::new()];
        pred_sets.extend(subsets(preds.len(), 2));
        let mut out = Vec::new();
        for cte in ["tc", "reach", "walk", "hop"] {
            for proj in 0..3 {
                for ps in &pred_sets {
                    out.push(ClosureShape {
                        cte,
                        proj,
                        preds: ps.iter().map(|&i| preds[i]).collect(),
                    });
                }
            }
        }
        out
    }

    fn sql(&self, src: i64, lits: &[i64]) -> String {
        let c = self.cte;
        let proj = ["src, dst", "dst", "dst, src"][self.proj];
        let mut sql = format!(
            "WITH RECURSIVE {c} (src, dst) AS ( \
             SELECT src, dst FROM edge \
             UNION \
             SELECT {c}.src, e.dst FROM {c}, edge e WHERE e.src = {c}.dst) \
             SELECT {proj} FROM {c} WHERE src = {src}"
        );
        for (p, x) in self.preds.iter().zip(lits) {
            let op = match p {
                TPred::Gt => ">",
                TPred::Lt => "<",
                TPred::Ne => "<>",
            };
            let _ = write!(sql, " AND dst {op} {x}");
        }
        sql
    }

    fn expected(&self, r: &Reference, src: i64, lits: &[i64]) -> Vec<Row> {
        closure_rows(r, src, self.proj, |dst| {
            self.preds.iter().zip(lits).all(|(p, &x)| match p {
                TPred::Gt => dst > x,
                TPred::Lt => dst < x,
                TPred::Ne => dst != x,
            })
        })
    }
}

fn closure_rows(r: &Reference, src: i64, proj: usize, keep: impl Fn(i64) -> bool) -> Vec<Row> {
    r.reachable(src)
        .into_iter()
        .filter(|&d| keep(d))
        .map(|d| {
            Row::new(match proj {
                0 => vec![Value::Int(src), Value::Int(d)],
                1 => vec![Value::Int(d)],
                _ => vec![Value::Int(d), Value::Int(src)],
            })
        })
        .collect()
}

/// A bound source node in one of the `edge` graphs that reaches more
/// than itself: a non-leaf of the tree, any ring node, or the first
/// half of the chain.
fn closure_source(graph: usize, rng: &mut StdRng) -> i64 {
    let local = match graph {
        0 => rng.gen_range(0..80),
        1 => rng.gen_range(0..255),
        _ => rng.gen_range(0..4) * 100 + rng.gen_range(0..48),
    };
    GRAPH_OFFSETS[graph] + local
}

// ---- The workloads ----------------------------------------------

enum Shape {
    Point(PointShape),
    Emp(EmpShape),
    Closure(ClosureShape),
}

impl Shape {
    fn template(&self) -> &'static str {
        match self {
            Shape::Point(_) => "point",
            Shape::Emp(_) => "emp_vs_agg",
            Shape::Closure(_) => "closure",
        }
    }

    /// Draw bindings and render one request of this shape.
    fn request(&self, r: &Reference, rng: &mut StdRng) -> Op {
        let d = &r.depts[rng.gen_range(0..r.depts.len())];
        let (sql, rows) = match self {
            Shape::Point(s) => {
                let lits: Vec<Value> = s.preds.iter().map(|&p| s.literal(p, rng, r)).collect();
                (s.sql(d, &lits), s.expected(r, d, &lits))
            }
            Shape::Emp(s) => {
                let lits: Vec<Value> = s.preds.iter().map(|&p| EmpShape::literal(p, rng)).collect();
                (s.sql(d, &lits), s.expected(r, d, &lits))
            }
            Shape::Closure(s) => {
                // Ad-hoc closures run over the tree and the rings.
                let graph = rng.gen_range(1..3);
                let src = closure_source(graph, rng);
                let lits: Vec<i64> = s
                    .preds
                    .iter()
                    .map(|_| GRAPH_OFFSETS[graph] + rng.gen_range(0..512))
                    .collect();
                (s.sql(src, &lits), s.expected(r, src, &lits))
            }
        };
        Op::Read {
            sql,
            expected: Arc::new(canonical(rows)),
            template: self.template(),
        }
    }
}

/// `adhoc_compile`: a seeded pool of [`ADHOC_POOL`] distinct shapes —
/// every closure shape, then two point shapes to every
/// employee-vs-aggregate shape, each drawn from the full product of
/// views, projections and extra predicates — visited in one seeded
/// order, twice, with fresh bindings each visit. A shape recurs only
/// after the whole pool, so the 128-entry cache never holds it. Fixed
/// family counts keep the mix, and so the cost, the same across seeds.
pub fn adhoc(r: &Reference, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA0C);
    let mut pool: Vec<Shape> = ClosureShape::all()
        .into_iter()
        .map(Shape::Closure)
        .collect();
    let emps = (ADHOC_POOL - pool.len()) / 3;
    let points = ADHOC_POOL - pool.len() - emps;
    let mut sample = |mut shapes: Vec<Shape>, n: usize| {
        shuffle(&mut shapes, &mut rng);
        shapes.truncate(n);
        shapes
    };
    let point_shapes = sample(
        PointShape::all().into_iter().map(Shape::Point).collect(),
        points,
    );
    let emp_shapes = sample(EmpShape::all().into_iter().map(Shape::Emp).collect(), emps);
    pool.extend(point_shapes);
    pool.extend(emp_shapes);
    shuffle(&mut pool, &mut rng);
    (0..2)
        .flat_map(|_| pool.iter())
        .map(|s| s.request(r, &mut rng))
        .collect()
}

/// Replace the one occurrence of `from` in an experiment's SQL.
fn rebind(sql: &str, from: &str, to: &str) -> String {
    assert_eq!(
        sql.matches(from).count(),
        1,
        "{from:?} must occur once in {sql}"
    );
    sql.replace(from, to)
}

fn experiment_sql(id: char, correlated: bool) -> &'static str {
    let e = experiments()
        .into_iter()
        .find(|e| e.id == id)
        .expect("experiment exists");
    if correlated {
        e.correlated_sql
    } else {
        e.original_sql
    }
}

/// The report templates and their weights in the mix: Exp C, D, E and
/// H view queries, the correlated forms of E and H, and bound closures
/// on the chain and the rings. The two full-table rollups (C, D) get
/// weight 1 so they do not swamp the mix.
const REPORT_MIX: [(&str, u32); 8] = [
    ("C", 1),
    ("D", 1),
    ("E", 2),
    ("H", 2),
    ("E_corr", 2),
    ("H_corr", 2),
    ("chain", 2),
    ("cyclic", 2),
];

fn report_request(
    r: &Reference,
    template: &'static str,
    rng: &mut StdRng,
    memo: &mut HashMap<(&'static str, String), Arc<Vec<Row>>>,
) -> Op {
    let div = Arc::clone(&r.divisions[rng.gen_range(0..r.divisions.len())]);
    let in_div = || r.depts.iter().filter(|d| d.division == div);
    let total = |d: &Dept| {
        r.dept_act_hours[d.deptno as usize]
            .as_ref()
            .map(|v| v[0].clone())
    };
    let projects = |with: &dyn Fn(&Dept) -> Option<Vec<Value>>| -> Vec<Row> {
        in_div()
            .filter_map(|d| with(d).map(|vals| (d, vals)))
            .flat_map(|(d, vals)| {
                r.projects_by_dept[d.deptno as usize].iter().map(move |p| {
                    let mut row = vec![Value::Str(Arc::clone(p))];
                    row.extend(vals.iter().cloned());
                    Row::new(row)
                })
            })
            .collect()
    };
    let emps = |depts: &mut dyn Iterator<Item = &Dept>| -> Vec<Row> {
        depts
            .filter_map(|d| total(d).map(|t| (d, t)))
            .flat_map(|(d, t)| {
                r.emps_by_dept[d.deptno as usize]
                    .iter()
                    .map(move |e| Row::new(vec![Value::Int(e.empno), t.clone()]))
            })
            .collect()
    };
    let quoted = format!("'{div}'");
    let (sql, binding, rows): (String, String, Box<dyn FnOnce() -> Vec<Row> + '_>) = match template
    {
        "C" => (
            rebind(experiment_sql('C', false), "'Research'", &quoted),
            div.to_string(),
            Box::new(|| emps(&mut in_div())),
        ),
        "D" => (
            experiment_sql('D', false).to_string(),
            String::new(),
            Box::new(|| emps(&mut r.depts.iter())),
        ),
        "E" => (
            rebind(experiment_sql('E', false), "'Sales'", &quoted),
            div.to_string(),
            Box::new(|| projects(&|d| total(d).map(|t| vec![t]))),
        ),
        "E_corr" => (
            rebind(experiment_sql('E', true), "'Sales'", &quoted),
            div.to_string(),
            Box::new(|| projects(&|d| Some(vec![total(d).unwrap_or(Value::Null)]))),
        ),
        "H" => (
            rebind(experiment_sql('H', false), "'Legal'", &quoted),
            div.to_string(),
            Box::new(|| projects(&|d| r.dept_summary[d.deptno as usize].clone())),
        ),
        "H_corr" => (
            rebind(experiment_sql('H', true), "'Legal'", &quoted),
            div.to_string(),
            Box::new(|| {
                projects(&|d| {
                    Some(
                        r.dept_summary[d.deptno as usize]
                            .clone()
                            .unwrap_or_else(|| vec![Value::Null, Value::Null]),
                    )
                })
            }),
        ),
        graph => {
            let g = if graph == "chain" { 0 } else { 2 };
            let src = closure_source(g, rng);
            (
                format!("{RECURSION_SQL}{src}"),
                src.to_string(),
                Box::new(move || closure_rows(r, src, 0, |_| true)),
            )
        }
    };
    let expected = memo
        .entry((template, binding))
        .or_insert_with(|| Arc::new(canonical(rows())))
        .clone();
    Op::Read {
        sql,
        expected,
        template,
    }
}

/// `report_exec`: each template [`REPORT_MIX`]-weight × 16 times, in
/// a seeded order with seeded division and source bindings. Every pass
/// over the stream has the same mix, so the seed moves bindings and
/// order but not the share of heavy queries. Eight shapes in all, so
/// after one warm-up pass every request hits the plan cache.
pub fn report(r: &Reference, seed: u64) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4E9);
    let mut templates: Vec<&'static str> = REPORT_MIX
        .iter()
        .flat_map(|&(t, w)| std::iter::repeat_n(t, w as usize * 16))
        .collect();
    shuffle(&mut templates, &mut rng);
    let mut memo = HashMap::new();
    templates
        .into_iter()
        .map(|t| report_request(r, t, &mut rng, &mut memo))
        .collect()
}

/// The four selective experiments the server reads, each as an
/// `experiments()` text plus the point-shape semantics its answer is
/// computed from.
fn server_templates() -> Vec<(&'static str, String, &'static str, Shape)> {
    let point = |view, bind, proj, preds| {
        Shape::Point(PointShape {
            view,
            bind,
            proj,
            preds,
        })
    };
    vec![
        (
            "A",
            experiment_sql('A', false).to_string(),
            "d.deptno = 7",
            point(
                View::DeptAvgSal,
                DeptBinding::No,
                vec![PCol::Name, PCol::View(0)],
                vec![],
            ),
        ),
        (
            "B",
            experiment_sql('B', false).to_string(),
            "d.deptname = 'Planning'",
            Shape::Emp(EmpShape {
                view: View::DeptAvgSal,
                col: 0,
                less: false,
                bind: DeptBinding::Name,
                proj: vec![ECol::EmpNo],
                preds: vec![],
            }),
        ),
        (
            "F",
            experiment_sql('F', false).to_string(),
            "d.deptno = 3",
            point(
                View::ProjCount,
                DeptBinding::No,
                vec![PCol::Name],
                vec![PPred::ViewGt(0)],
            ),
        ),
        (
            "G",
            experiment_sql('G', false).to_string(),
            "d.deptname = 'Planning'",
            point(
                View::AvgMgrSal,
                DeptBinding::Name,
                vec![PCol::Name, PCol::ViewKey, PCol::View(0)],
                vec![],
            ),
        ),
    ]
}

/// `server_mixed`, one connection's stream: uniform draws over Exp A,
/// B, F and G with a seeded department, and in every block of 50
/// requests exactly one write at a seeded position (2%).
pub fn server(r: &Reference, seed: u64, conn: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x5E7 + conn));
    let templates = server_templates();
    let mut write_at = rng.gen_range(0..50);
    (0..len)
        .map(|i| {
            if i % 50 == 0 && i > 0 {
                write_at = rng.gen_range(0..50);
            }
            if i % 50 == write_at {
                return Op::Write {
                    empno: rng.gen_range(0..r.emp_count as i64),
                };
            }
            let (id, sql, bound, shape) = &templates[rng.gen_range(0..templates.len())];
            let d = &r.depts[rng.gen_range(0..r.depts.len())];
            let binding = if bound.contains("deptname") {
                DeptBinding::Name.sql(d)
            } else {
                DeptBinding::No.sql(d)
            };
            // F keeps its literal threshold `v.cnt > 2`.
            let lits = [Value::Int(2)];
            let rows = match shape {
                Shape::Point(s) => s.expected(r, d, &lits),
                Shape::Emp(s) => s.expected(r, d, &lits),
                Shape::Closure(_) => unreachable!("server reads are point queries"),
            };
            Op::Read {
                sql: rebind(sql, bound, &binding),
                expected: Arc::new(canonical(rows)),
                template: id,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_space_exceeds_the_pool() {
        let n = PointShape::all().len() + EmpShape::all().len();
        assert!(n + ClosureShape::all().len() > 2 * ADHOC_POOL, "{n}");
    }

    #[test]
    fn subsets_respect_the_size_cap() {
        let s = subsets(4, 2);
        assert_eq!(s.len(), 4 + 6);
        assert!(s.iter().all(|x| !x.is_empty() && x.len() <= 2));
    }
}
