//! Query descriptions (the public "SQL" surface of the substrate).
//!
//! §4.2: "the exact same commands and datasets were used for all the DBMSs,
//! with no vendor-specific SQL extensions" — queries are declarative values;
//! each engine profile plans them its own way (System A ignores indexes for
//! range selections, evaluation strategy differs, etc.).

use crate::expr::Expr;

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum AggKind {
    Avg,
    Sum,
    Count,
    Min,
    Max,
}

/// An aggregate over a named column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggSpec {
    /// Function.
    pub kind: AggKind,
    /// Column name (ignored for `Count` when empty).
    pub col: String,
}

impl AggSpec {
    /// `avg(col)` — the paper's aggregate of choice (§3.3).
    pub fn avg(col: &str) -> AggSpec {
        AggSpec {
            kind: AggKind::Avg,
            col: col.to_string(),
        }
    }

    /// `sum(col)`.
    pub fn sum(col: &str) -> AggSpec {
        AggSpec {
            kind: AggKind::Sum,
            col: col.to_string(),
        }
    }

    /// `count(*)`.
    pub fn count() -> AggSpec {
        AggSpec {
            kind: AggKind::Count,
            col: String::new(),
        }
    }
}

/// A selection predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryPredicate {
    /// `lo < col AND col < hi` (both bounds exclusive, like the paper's
    /// `where a2 < Hi and a2 > Lo`).
    Range {
        /// Column name.
        col: String,
        /// Exclusive lower bound.
        lo: i32,
        /// Exclusive upper bound.
        hi: i32,
    },
    /// Arbitrary expression over the table's columns (by index).
    Expr(Expr),
}

/// A query, as submitted identically to every system.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `select AGG(col) from table [where predicate]`.
    SelectAgg {
        /// Table name.
        table: String,
        /// Optional predicate.
        predicate: Option<QueryPredicate>,
        /// Aggregate to compute.
        agg: AggSpec,
    },
    /// `select AGG(left.col) from left, right where left.lc = right.rc`.
    JoinAgg {
        /// Probe-side table (R in the paper's join).
        left: String,
        /// Build-side table (S).
        right: String,
        /// Join column on the left table.
        left_col: String,
        /// Join column on the right table.
        right_col: String,
        /// Aggregate over a left-table column.
        agg: AggSpec,
    },
    /// Point lookup through an index: returns `read_col` of the first match.
    PointSelect {
        /// Table name.
        table: String,
        /// Indexed column to match.
        key_col: String,
        /// Key value.
        key: i32,
        /// Column to read.
        read_col: String,
    },
    /// `update table set set_col = set_col + delta where key_col = key`.
    UpdateAdd {
        /// Table name.
        table: String,
        /// Indexed column to match.
        key_col: String,
        /// Key value.
        key: i32,
        /// Column to update.
        set_col: String,
        /// Amount added.
        delta: i32,
    },
    /// Single-row insert.
    InsertRow {
        /// Table name.
        table: String,
        /// Values (must match schema arity).
        values: Vec<i32>,
    },
}

impl Query {
    /// The paper's sequential/indexed range selection:
    /// `select avg(a3) from R where a2 < hi and a2 > lo` (query 1, §3.3).
    /// Whether it runs sequentially or over an index depends on the engine
    /// and on whether an index on `a2` exists.
    pub fn range_select_avg(table: &str, lo: i32, hi: i32) -> Query {
        Query::SelectAgg {
            table: table.to_string(),
            predicate: Some(QueryPredicate::Range {
                col: "a2".into(),
                lo,
                hi,
            }),
            agg: AggSpec::avg("a3"),
        }
    }

    /// The paper's sequential join:
    /// `select avg(R.a3) from R, S where R.a2 = S.a1` (query 2, §3.3).
    pub fn join_avg(left: &str, right: &str) -> Query {
        Query::JoinAgg {
            left: left.to_string(),
            right: right.to_string(),
            left_col: "a2".into(),
            right_col: "a1".into(),
            agg: AggSpec::avg("a3"),
        }
    }
}

/// A statement after name resolution ([`crate::sql::bind`]): a query in the
/// executor's native form, or a grouped aggregate — the single-table
/// aggregate plus a group key, answered with one row per group.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundStatement {
    /// A query returning one [`QueryResult`].
    Scalar(Query),
    /// `SELECT g, AGG(x) FROM t [WHERE …] GROUP BY g`.
    Grouped {
        /// Table name.
        table: String,
        /// Grouping column name.
        group_col: String,
        /// Optional predicate (a range or an expression, as for
        /// [`Query::SelectAgg`]).
        predicate: Option<QueryPredicate>,
        /// Aggregate.
        agg: AggSpec,
    },
}

impl BoundStatement {
    /// `SELECT group_col, AGG(..) FROM table [WHERE predicate] GROUP BY
    /// group_col`, from the parts the grouped entry points take.
    pub(crate) fn grouped(
        table: &str,
        group_col: &str,
        predicate: Option<&QueryPredicate>,
        agg: &AggSpec,
    ) -> BoundStatement {
        BoundStatement::Grouped {
            table: table.to_string(),
            group_col: group_col.to_string(),
            predicate: predicate.cloned(),
            agg: agg.clone(),
        }
    }

    /// A single-table aggregate's table, predicate, aggregate and group key
    /// (`None` unless grouped); `None` for joins and point statements.
    #[allow(clippy::type_complexity)]
    pub(crate) fn scan_parts(
        &self,
    ) -> Option<(&str, Option<&QueryPredicate>, &AggSpec, Option<&str>)> {
        match self {
            BoundStatement::Scalar(Query::SelectAgg {
                table,
                predicate,
                agg,
            }) => Some((table, predicate.as_ref(), agg, None)),
            BoundStatement::Grouped {
                table,
                group_col,
                predicate,
                agg,
            } => Some((table, predicate.as_ref(), agg, Some(group_col))),
            BoundStatement::Scalar(_) => None,
        }
    }
}

/// Result of a query: the scalar value plus how many rows contributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryResult {
    /// Aggregate (or read) value.
    pub value: f64,
    /// Rows aggregated / matched / changed.
    pub rows: u64,
}
