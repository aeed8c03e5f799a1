//! The cost-based access-path planner.
//!
//! A statement's predicate (an [`SqlExpr`] tree) is split into its
//! `AND`-conjuncts and analyzed for probes the table's secondary
//! indexes can answer: `col = const` becomes an **equality probe**,
//! `col < const` / `const <= col` (and friends) accumulate into a
//! **range probe**. Each candidate is costed with row-count statistics
//! — `rows / ndv` for an equality probe (ndv = distinct keys in the
//! index), a fixed fraction for a range — against the full-scan cost of
//! `rows`, and the cheapest access path wins.
//!
//! **Correctness over cleverness**: the chosen probe only produces a
//! *candidate* superset; the executor re-evaluates the full predicate
//! on every candidate row (predicate pushdown selects the probe, it
//! never skips the recheck). Planner-on and planner-off must therefore
//! return byte-identical result sets — the `db` bench and the property
//! tests gate on exactly that. Two deliberate fallbacks keep the
//! superset guarantee airtight:
//!
//! - **Floats**: SQL float comparison (`sql_eq`/`sql_cmp` on `f64`)
//!   disagrees with any total order a `BTreeMap` key can use (`-0.0`,
//!   `NaN`), and a comparison against `NaN` *errors* row-by-row, which
//!   a candidate-only evaluation could skip. Any float operand in the
//!   predicate forces a full scan.
//! - **`NULL` literals**: `col = NULL` never matches; the scan path
//!   handles it and a probe is pointless.
//!
//! Every planned statement emits a machine-readable `EXPLAIN` line
//! ([`Plan::explain`], a single JSON object) into the database's
//! bounded plan log, surfaced through the REPL `:db` command and the
//! serve `db` request.

use crate::expr::SqlExpr;
use crate::table::Table;
use crate::value::{ColTy, DbVal};
use ur_core::json::escape;

/// How a statement will read its table.
#[derive(Clone, Debug, PartialEq)]
pub enum Access {
    /// Evaluate the predicate on every row.
    FullScan,
    /// Probe one index key, then recheck the full predicate.
    IndexEq { index: String, column: String, key: DbVal },
    /// Walk one index key range, then recheck the full predicate.
    IndexRange {
        index: String,
        column: String,
        /// Lower bound (value, inclusive) — `None` = unbounded.
        lo: Option<(DbVal, bool)>,
        /// Upper bound (value, inclusive).
        hi: Option<(DbVal, bool)>,
    },
}

/// A planned access path with its statistics, ready to execute and to
/// render as an `EXPLAIN` line.
#[derive(Clone, Debug)]
pub struct Plan {
    pub table: String,
    pub access: Access,
    /// Rows in the table when planned.
    pub rows_total: u64,
    /// Estimated candidate rows the access path will touch.
    pub est_rows: u64,
    /// Cost in estimated row visits (the full-scan cost is `rows_total`).
    pub cost: u64,
    /// Why the planner fell back to a scan *despite* the table having
    /// indexes; `None` for a chosen probe or an unindexed table.
    pub fallback: Option<&'static str>,
}

/// Splits a predicate into its `AND`-conjuncts.
fn conjuncts<'a>(pred: &'a SqlExpr, out: &mut Vec<&'a SqlExpr>) {
    match pred {
        SqlExpr::And(a, b) => {
            conjuncts(a, out);
            conjuncts(b, out);
        }
        other => out.push(other),
    }
}

/// True when the predicate anywhere contains a float constant or a
/// reference to a float-typed column — see the module docs for why
/// those force a full scan.
fn mentions_float(pred: &SqlExpr, t: &Table) -> bool {
    match pred {
        SqlExpr::Const(DbVal::Float(_)) => true,
        SqlExpr::Const(_) => false,
        SqlExpr::Column(name) => t
            .schema
            .col_type(name)
            .is_some_and(|ty| matches!(ty.base(), ColTy::Float)),
        SqlExpr::Eq(a, b)
        | SqlExpr::Lt(a, b)
        | SqlExpr::Le(a, b)
        | SqlExpr::And(a, b)
        | SqlExpr::Or(a, b)
        | SqlExpr::Add(a, b)
        | SqlExpr::Mul(a, b) => mentions_float(a, t) || mentions_float(b, t),
        SqlExpr::Not(a) | SqlExpr::IsNull(a) => mentions_float(a, t),
    }
}

/// One accumulated range constraint on a column.
#[derive(Default)]
struct RangeAcc {
    lo: Option<(DbVal, bool)>,
    hi: Option<(DbVal, bool)>,
}

fn tighten_hi(acc: &mut RangeAcc, v: &DbVal, incl: bool) {
    let tighter = match &acc.hi {
        None => true,
        Some((cur, cur_incl)) => match v.sql_cmp(cur) {
            Some(std::cmp::Ordering::Less) => true,
            Some(std::cmp::Ordering::Equal) => *cur_incl && !incl,
            _ => false,
        },
    };
    if tighter {
        acc.hi = Some((v.clone(), incl));
    }
}

fn tighten_lo(acc: &mut RangeAcc, v: &DbVal, incl: bool) {
    let tighter = match &acc.lo {
        None => true,
        Some((cur, cur_incl)) => match v.sql_cmp(cur) {
            Some(std::cmp::Ordering::Greater) => true,
            Some(std::cmp::Ordering::Equal) => *cur_incl && !incl,
            _ => false,
        },
    };
    if tighter {
        acc.lo = Some((v.clone(), incl));
    }
}

/// The trivial plan: scan everything. Used for unpredicated paths and
/// as the planner-off baseline.
pub(crate) fn scan_plan(table: &str, t: &Table) -> Plan {
    let rows = t.rows.len() as u64;
    Plan {
        table: table.to_string(),
        access: Access::FullScan,
        rows_total: rows,
        est_rows: rows,
        cost: rows,
        fallback: None,
    }
}

/// Plans the access path for `pred` over table `t`.
pub(crate) fn plan(table: &str, t: &Table, pred: &SqlExpr) -> Plan {
    let rows = t.rows.len() as u64;
    let mut best = scan_plan(table, t);
    let has_indexes = !t.indexes.is_empty();
    if !has_indexes {
        return best;
    }
    if mentions_float(pred, t) {
        best.fallback = Some("float operand: order/equality semantics force a scan");
        return best;
    }

    let mut cs = Vec::new();
    conjuncts(pred, &mut cs);

    // Equality probes.
    for c in &cs {
        let (col, key) = match c {
            SqlExpr::Eq(a, b) => match (a.as_ref(), b.as_ref()) {
                (SqlExpr::Column(c), SqlExpr::Const(v))
                | (SqlExpr::Const(v), SqlExpr::Column(c)) => (c, v),
                _ => continue,
            },
            _ => continue,
        };
        if matches!(key, DbVal::Null) {
            continue; // `col = NULL` never matches; the scan handles it
        }
        let Some(idx) = t.index_on(col) else { continue };
        let est = (rows / (idx.ndv().max(1) as u64)).max(1);
        if est < best.cost {
            best = Plan {
                table: table.to_string(),
                access: Access::IndexEq {
                    index: idx.def.name.clone(),
                    column: col.clone(),
                    key: key.clone(),
                },
                rows_total: rows,
                est_rows: est,
                cost: est,
                fallback: None,
            };
        }
    }

    // Range probes: accumulate bounds per column, tightest wins.
    let mut ranges: Vec<(String, RangeAcc)> = Vec::new();
    for c in &cs {
        let (col, v, lo_side, incl) = match c {
            SqlExpr::Lt(a, b) => match (a.as_ref(), b.as_ref()) {
                (SqlExpr::Column(c), SqlExpr::Const(v)) => (c, v, false, false),
                (SqlExpr::Const(v), SqlExpr::Column(c)) => (c, v, true, false),
                _ => continue,
            },
            SqlExpr::Le(a, b) => match (a.as_ref(), b.as_ref()) {
                (SqlExpr::Column(c), SqlExpr::Const(v)) => (c, v, false, true),
                (SqlExpr::Const(v), SqlExpr::Column(c)) => (c, v, true, true),
                _ => continue,
            },
            _ => continue,
        };
        if matches!(v, DbVal::Null) {
            continue;
        }
        let pos = match ranges.iter().position(|(n, _)| n == col) {
            Some(p) => p,
            None => {
                ranges.push((col.clone(), RangeAcc::default()));
                ranges.len() - 1
            }
        };
        let acc = &mut ranges[pos].1;
        if lo_side {
            tighten_lo(acc, v, incl);
        } else {
            tighten_hi(acc, v, incl);
        }
    }
    for (col, acc) in ranges {
        let Some(idx) = t.index_on(&col) else { continue };
        let bounded_both = acc.lo.is_some() && acc.hi.is_some();
        let est = if bounded_both {
            (rows / 4).max(1)
        } else {
            (rows / 3).max(1)
        };
        if est < best.cost {
            best = Plan {
                table: table.to_string(),
                access: Access::IndexRange {
                    index: idx.def.name.clone(),
                    column: col,
                    lo: acc.lo,
                    hi: acc.hi,
                },
                rows_total: rows,
                est_rows: est,
                cost: est,
                fallback: None,
            };
        }
    }

    if matches!(best.access, Access::FullScan) {
        best.fallback = Some("no probeable conjunct for the declared indexes");
    }
    best
}

fn bound_str(side: &str, b: &Option<(DbVal, bool)>, lo: bool) -> String {
    match b {
        None => format!("\"{side}\":null"),
        Some((v, incl)) => {
            let op = match (lo, incl) {
                (true, true) => ">=",
                (true, false) => ">",
                (false, true) => "<=",
                (false, false) => "<",
            };
            format!("\"{side}\":\"{} {}\"", op, escape(&v.to_sql()))
        }
    }
}

impl Plan {
    /// Renders the plan as one machine-readable JSON object — the
    /// `EXPLAIN` output surfaced by `:db` and the serve `db` command.
    pub fn explain(&self) -> String {
        let head = format!(
            "\"table\":\"{}\",\"rows\":{},\"est_rows\":{},\"cost\":{}",
            escape(&self.table),
            self.rows_total,
            self.est_rows,
            self.cost
        );
        let fallback = match self.fallback {
            Some(f) => format!("\"fallback\":\"{}\"", escape(f)),
            None => "\"fallback\":null".to_string(),
        };
        match &self.access {
            Access::FullScan => {
                format!("{{\"access\":\"full_scan\",{head},{fallback}}}")
            }
            Access::IndexEq { index, column, key } => format!(
                "{{\"access\":\"index_eq\",\"index\":\"{}\",\"column\":\"{}\",\"key\":\"{}\",{head},{fallback}}}",
                escape(index),
                escape(column),
                escape(&key.to_sql()),
            ),
            Access::IndexRange {
                index,
                column,
                lo,
                hi,
            } => format!(
                "{{\"access\":\"index_range\",\"index\":\"{}\",\"column\":\"{}\",{},{},{head},{fallback}}}",
                escape(index),
                escape(column),
                bound_str("lo", lo, true),
                bound_str("hi", hi, false),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Schema;
    use std::sync::Arc;

    fn table_with_index(n: i64) -> Table {
        let schema = Schema::new(vec![
            ("A".into(), ColTy::Int),
            ("B".into(), ColTy::Str),
            ("F".into(), ColTy::Float),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.insert_row(Arc::from(vec![
                DbVal::Int(i % 100),
                DbVal::Str(format!("s{i}")),
                DbVal::Float(i as f64),
            ]));
        }
        t.create_index("t_a", "A").unwrap();
        t
    }

    #[test]
    fn eq_probe_beats_scan() {
        let t = table_with_index(1000);
        let pred = SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(7)));
        let p = plan("t", &t, &pred);
        assert!(matches!(p.access, Access::IndexEq { .. }), "{p:?}");
        assert!(p.cost < p.rows_total);
        assert!(p.fallback.is_none());
        let e = p.explain();
        assert!(e.contains("\"access\":\"index_eq\""), "{e}");
        assert!(e.contains("\"index\":\"t_a\""), "{e}");
        assert!(e.contains("\"fallback\":null"), "{e}");
    }

    #[test]
    fn range_bounds_accumulate() {
        let t = table_with_index(1000);
        // 3 <= A AND A < 10 AND A < 50 — the tighter upper bound wins.
        let pred = SqlExpr::and(
            SqlExpr::Le(
                Box::new(SqlExpr::lit(DbVal::Int(3))),
                Box::new(SqlExpr::col("A")),
            ),
            SqlExpr::and(
                SqlExpr::Lt(
                    Box::new(SqlExpr::col("A")),
                    Box::new(SqlExpr::lit(DbVal::Int(10))),
                ),
                SqlExpr::Lt(
                    Box::new(SqlExpr::col("A")),
                    Box::new(SqlExpr::lit(DbVal::Int(50))),
                ),
            ),
        );
        let p = plan("t", &t, &pred);
        match &p.access {
            Access::IndexRange { lo, hi, .. } => {
                assert_eq!(lo, &Some((DbVal::Int(3), true)));
                assert_eq!(hi, &Some((DbVal::Int(10), false)));
            }
            other => panic!("expected range, got {other:?}"),
        }
        let e = p.explain();
        assert!(e.contains("\"lo\":\">= 3\""), "{e}");
        assert!(e.contains("\"hi\":\"< 10\""), "{e}");
    }

    #[test]
    fn float_operand_forces_scan_with_reason() {
        let t = table_with_index(1000);
        let pred = SqlExpr::and(
            SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(7))),
            SqlExpr::Lt(
                Box::new(SqlExpr::col("F")),
                Box::new(SqlExpr::lit(DbVal::Float(2.5))),
            ),
        );
        let p = plan("t", &t, &pred);
        assert!(matches!(p.access, Access::FullScan));
        assert!(p.fallback.unwrap().contains("float"));
    }

    #[test]
    fn unindexed_conjunct_falls_back_with_reason() {
        let t = table_with_index(100);
        let pred = SqlExpr::eq(SqlExpr::col("B"), SqlExpr::lit(DbVal::Str("s1".into())));
        let p = plan("t", &t, &pred);
        assert!(matches!(p.access, Access::FullScan));
        assert!(p.fallback.is_some());
    }

    #[test]
    fn unindexed_table_scans_without_fallback() {
        let schema = Schema::new(vec![("A".into(), ColTy::Int)]).unwrap();
        let t = Table::new(schema);
        let pred = SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Int(1)));
        let p = plan("t", &t, &pred);
        assert!(matches!(p.access, Access::FullScan));
        assert!(p.fallback.is_none(), "a scan of an unindexed table is not a fallback");
    }

    #[test]
    fn null_literal_eq_is_not_probed() {
        let t = table_with_index(100);
        let pred = SqlExpr::eq(SqlExpr::col("A"), SqlExpr::lit(DbVal::Null));
        let p = plan("t", &t, &pred);
        assert!(matches!(p.access, Access::FullScan));
    }

    #[test]
    fn explain_escapes_names() {
        let schema = Schema::new(vec![("A\"B".into(), ColTy::Int)]).unwrap();
        let mut t = Table::new(schema);
        t.create_index("i\"x", "A\"B").unwrap();
        let pred = SqlExpr::eq(SqlExpr::col("A\"B"), SqlExpr::lit(DbVal::Int(1)));
        let p = plan("t\"q", &t, &pred);
        let e = p.explain();
        assert!(e.contains("\\\""), "quotes escaped: {e}");
        assert!(!e.contains(":\"t\"q\""), "no raw quote breaks the JSON: {e}");
    }
}
