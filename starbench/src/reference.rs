//! Independent reference answers.
//!
//! Every expected result is computed here in plain Rust, straight from
//! the generated catalog rows: a hash group-by per view the templates
//! read, and a breadth-first search per bound closure. No parser,
//! rewrite, planner or executor code runs on this side, so a wrong
//! answer from the engine cannot also be the reference.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use starmagic_catalog::Catalog;
use starmagic_common::{Row, Value};

/// Relative tolerance for comparing doubles: aggregates may sum in a
/// different order than the reference does.
pub const REL_TOL: f64 = 1e-9;

#[derive(Debug, Clone)]
pub struct Dept {
    pub deptno: i64,
    pub deptname: Arc<str>,
    pub mgrno: i64,
    pub division: Arc<str>,
    pub budget: f64,
}

#[derive(Debug, Clone)]
pub struct Emp {
    pub empno: i64,
    pub empname: Arc<str>,
    pub salary: Option<f64>,
    pub bonus: Option<f64>,
    pub yearhired: Option<i64>,
}

/// One view row's non-key columns, per department (`None`: the view
/// has no row for that department).
pub type ViewRows = Vec<Option<Vec<Value>>>;

/// The generated database, reduced to what the templates read.
pub struct Reference {
    /// Indexed by `deptno` (the generator numbers departments 0..n).
    pub depts: Vec<Dept>,
    pub emps_by_dept: Vec<Vec<Emp>>,
    pub projects_by_dept: Vec<Vec<Arc<str>>>,
    pub divisions: Vec<Arc<str>>,
    pub emp_count: usize,
    pub emp_act_rows: usize,
    /// `deptAvgSal (avgsal, headcount)`.
    pub dept_avg_sal: ViewRows,
    /// `topPay (maxsal)`.
    pub top_pay: ViewRows,
    /// `deptSummary (avgsal, maxsal)`.
    pub dept_summary: ViewRows,
    /// `avgMgrSal (avgsalary)`.
    pub avg_mgr_sal: ViewRows,
    /// `projCount (cnt)`.
    pub proj_count: ViewRows,
    /// `deptActHours (total)`.
    pub dept_act_hours: ViewRows,
    adjacency: HashMap<i64, Vec<i64>>,
}

fn int(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        _ => None,
    }
}

fn dbl(v: &Value) -> Option<f64> {
    match v {
        Value::Double(d) => Some(*d),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn text(v: &Value) -> Arc<str> {
    match v {
        Value::Str(s) => Arc::clone(s),
        other => panic!("expected a string column, found {other:?}"),
    }
}

fn key(v: &Value, what: &str) -> i64 {
    int(v).unwrap_or_else(|| panic!("{what} must be a non-NULL integer, found {v:?}"))
}

/// Running SUM / COUNT / MAX over one group's non-NULL doubles.
#[derive(Default, Clone, Copy)]
struct Acc {
    rows: i64,
    sum: f64,
    n: i64,
    max: Option<f64>,
}

impl Acc {
    fn add(&mut self, v: Option<f64>) {
        self.rows += 1;
        if let Some(x) = v {
            self.sum += x;
            self.n += 1;
            self.max = Some(self.max.map_or(x, |m| m.max(x)));
        }
    }
    fn avg(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Double(self.sum / self.n as f64)
        }
    }
    fn sum(&self) -> Value {
        if self.n == 0 {
            Value::Null
        } else {
            Value::Double(self.sum)
        }
    }
    fn max(&self) -> Value {
        self.max.map_or(Value::Null, Value::Double)
    }
}

fn opt_double(v: &Value) -> Option<f64> {
    match v {
        Value::Null => None,
        other => Some(dbl(other).unwrap_or_else(|| panic!("expected a number, found {other:?}"))),
    }
}

impl Reference {
    /// Reduce the catalog's stored rows to department-level group-bys
    /// and an adjacency list.
    pub fn build(catalog: &Catalog) -> Reference {
        let rows = |t: &str| {
            catalog
                .table(t)
                .unwrap_or_else(|e| panic!("table {t} missing: {e}"))
                .rows()
        };
        let mut depts: Vec<Dept> = rows("department")
            .iter()
            .map(|r| Dept {
                deptno: key(r.get(0), "deptno"),
                deptname: text(r.get(1)),
                mgrno: key(r.get(2), "mgrno"),
                division: text(r.get(3)),
                budget: dbl(r.get(4)).expect("budget is never NULL"),
            })
            .collect();
        depts.sort_by_key(|d| d.deptno);
        assert!(
            depts.iter().enumerate().all(|(i, d)| d.deptno == i as i64),
            "departments are numbered 0..n"
        );
        let n = depts.len();
        let mut divisions: Vec<Arc<str>> = depts.iter().map(|d| Arc::clone(&d.division)).collect();
        divisions.sort();
        divisions.dedup();

        let mut emps_by_dept = vec![Vec::new(); n];
        let mut emp_dept: HashMap<i64, (usize, Option<f64>)> = HashMap::new();
        let mut per_dept = vec![Acc::default(); n];
        let emps = rows("employee");
        for r in emps {
            let dept = usize::try_from(key(r.get(2), "workdept")).expect("workdept >= 0");
            let e = Emp {
                empno: key(r.get(0), "empno"),
                empname: text(r.get(1)),
                salary: opt_double(r.get(3)),
                bonus: opt_double(r.get(4)),
                yearhired: int(r.get(5)),
            };
            per_dept[dept].add(e.salary);
            emp_dept.insert(e.empno, (dept, e.salary));
            emps_by_dept[dept].push(e);
        }

        // mgrSal = employee ⋈ department on empno = mgrno; avgMgrSal
        // groups it by the manager's own department.
        let mut mgr = vec![Acc::default(); n];
        for d in &depts {
            if let Some(&(dept, salary)) = emp_dept.get(&d.mgrno) {
                mgr[dept].add(salary);
            }
        }

        let mut projects_by_dept = vec![Vec::new(); n];
        for r in rows("project") {
            let dept = usize::try_from(key(r.get(2), "project.deptno")).expect("deptno >= 0");
            projects_by_dept[dept].push(text(r.get(1)));
        }

        // deptActHours = employee ⋈ emp_act on empno, grouped by the
        // employee's department.
        let mut acts = vec![Acc::default(); n];
        let act_rows = rows("emp_act");
        for r in act_rows {
            if let Some(&(dept, _)) = emp_dept.get(&key(r.get(0), "emp_act.empno")) {
                acts[dept].add(opt_double(r.get(2)));
            }
        }

        let present = |acc: &Acc, f: &dyn Fn(&Acc) -> Vec<Value>| (acc.rows > 0).then(|| f(acc));
        let dept_avg_sal: ViewRows = per_dept
            .iter()
            .map(|a| present(a, &|a| vec![a.avg(), Value::Int(a.rows)]))
            .collect();
        let top_pay: ViewRows = per_dept
            .iter()
            .map(|a| present(a, &|a| vec![a.max()]))
            .collect();
        let dept_summary: ViewRows = per_dept
            .iter()
            .map(|a| present(a, &|a| vec![a.avg(), a.max()]))
            .collect();
        let avg_mgr_sal: ViewRows = mgr.iter().map(|a| present(a, &|a| vec![a.avg()])).collect();
        let proj_count: ViewRows = projects_by_dept
            .iter()
            .map(|p| (!p.is_empty()).then(|| vec![Value::Int(p.len() as i64)]))
            .collect();
        let dept_act_hours: ViewRows = acts
            .iter()
            .map(|a| present(a, &|a| vec![a.sum()]))
            .collect();

        let mut adjacency: HashMap<i64, Vec<i64>> = HashMap::new();
        if let Ok(edge) = catalog.table("edge") {
            for r in edge.rows() {
                adjacency
                    .entry(key(r.get(0), "edge.src"))
                    .or_default()
                    .push(key(r.get(1), "edge.dst"));
            }
        }

        Reference {
            depts,
            emps_by_dept,
            projects_by_dept,
            divisions,
            emp_count: emps.len(),
            emp_act_rows: act_rows.len(),
            dept_avg_sal,
            top_pay,
            dept_summary,
            avg_mgr_sal,
            proj_count,
            dept_act_hours,
            adjacency,
        }
    }

    /// Nodes reachable from `src` by one or more edges (what a
    /// `UNION` transitive closure bound on `src` returns).
    pub fn reachable(&self, src: i64) -> Vec<i64> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([src]);
        while let Some(n) = queue.pop_front() {
            for &m in self.adjacency.get(&n).map_or(&[][..], Vec::as_slice) {
                if seen.insert(m) {
                    queue.push_back(m);
                }
            }
        }
        let mut out: Vec<i64> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }
}

fn row_cmp(a: &Row, b: &Row) -> Ordering {
    a.values()
        .iter()
        .zip(b.values())
        .map(|(x, y)| x.group_cmp(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.arity().cmp(&b.arity()))
}

/// Sort rows into the canonical order answers are compared in.
pub fn canonical(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(row_cmp);
    rows
}

fn value_matches(actual: &Value, expected: &Value) -> bool {
    match (actual, expected) {
        (Value::Double(a), Value::Double(e)) => {
            a == e || (a - e).abs() <= REL_TOL * a.abs().max(e.abs())
        }
        (a, e) => a == e,
    }
}

/// Whether a result bag equals the (canonical) expected bag: same rows
/// in any order, doubles equal within [`REL_TOL`].
pub fn rows_match(actual: &[Row], expected: &[Row]) -> bool {
    if actual.len() != expected.len() {
        return false;
    }
    let mut actual: Vec<&Row> = actual.iter().collect();
    actual.sort_by(|a, b| row_cmp(a, b));
    actual.iter().zip(expected).all(|(a, e)| {
        a.arity() == e.arity()
            && a.values()
                .iter()
                .zip(e.values())
                .all(|(x, y)| value_matches(x, y))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_compare_within_tolerance() {
        let e = canonical(vec![Row::new(vec![Value::Int(1), Value::Double(3.0)])]);
        let close = [Row::new(vec![Value::Int(1), Value::Double(3.0 + 1e-12)])];
        let far = [Row::new(vec![Value::Int(1), Value::Double(3.001)])];
        assert!(rows_match(&close, &e));
        assert!(!rows_match(&far, &e));
    }

    #[test]
    fn bags_compare_in_any_order() {
        let a = [Row::new(vec![Value::Int(2)]), Row::new(vec![Value::Int(1)])];
        let e = canonical(a.to_vec());
        assert!(rows_match(&[a[1].clone(), a[0].clone()], &e));
        assert!(!rows_match(&a[..1], &e));
    }
}
