//! Binder: resolves a parsed [`Statement`] against a database catalog into
//! a bound query the executor understands.
//!
//! Name resolution errors are [`DbError::BindError`](crate::error::DbError::BindError)s carrying the source
//! span of the offending name. The binder also classifies plan shape:
//!
//! * two tables → [`Query::JoinAgg`] (sides oriented so the aggregate's
//!   table is the probe side);
//! * one table + aggregate → [`Query::SelectAgg`], with the WHERE conjuncts
//!   collapsed to the native range predicate when they form exactly
//!   `lo < col AND col < hi`, and to an [`Expr`] tree otherwise;
//! * `key, AGG(x) ... GROUP BY key` → the same single-table aggregate with
//!   a group key ([`BoundStatement::Grouped`]), its WHERE bound the same way;
//! * one bare column + `key = k` → [`Query::PointSelect`].

use crate::db::Database;
use crate::error::DbResult;
use crate::expr::{CmpOp, Expr};
use crate::query::{AggKind, AggSpec, BoundStatement, Query, QueryPredicate};
use crate::schema::Schema;

use super::ast::{CmpKind, ColRef, Projection, SelectStmt, Statement, WhereAtom};
use super::token::bind_err;

/// Minimal catalog view the binder needs; implemented by [`Database`] and by
/// shard 0 of a sharded database (all shards share one catalog).
pub trait CatalogView {
    /// The schema of `table`, if it exists.
    fn table_schema(&self, table: &str) -> Option<&Schema>;
}

impl CatalogView for Database {
    fn table_schema(&self, table: &str) -> Option<&Schema> {
        self.table(table).ok().map(|t| &t.schema)
    }
}

/// Parses and binds `src` against `catalog` without planning or executing —
/// the compile-only path benches use to express workloads as SQL strings.
pub fn compile(catalog: &impl CatalogView, src: &str) -> DbResult<BoundStatement> {
    bind(catalog, src, &super::parser::parse(src)?)
}

/// Binds a parsed statement. `src` is the original text, for error spans.
pub fn bind(catalog: &impl CatalogView, src: &str, stmt: &Statement) -> DbResult<BoundStatement> {
    match stmt {
        Statement::Select(sel) => bind_select(catalog, src, sel),
        Statement::Insert { table, values } => {
            let schema = lookup_table(catalog, src, table)?;
            let vals = values
                .iter()
                .map(|(v, span)| int32(src, *v, *span))
                .collect::<DbResult<Vec<i32>>>()?;
            if vals.len() != schema.arity() {
                return Err(bind_err(
                    src,
                    table.1,
                    format!(
                        "INSERT supplies {} values but `{}` has {} columns",
                        vals.len(),
                        table.0,
                        schema.arity()
                    ),
                ));
            }
            Ok(BoundStatement::Scalar(Query::InsertRow {
                table: table.0.clone(),
                values: vals,
            }))
        }
        Statement::Update {
            table,
            set_col,
            read_col,
            delta,
            key_col,
            key,
        } => {
            let schema = lookup_table(catalog, src, table)?;
            let set = resolve_col(src, schema, &table.0, set_col)?;
            let read = resolve_col(src, schema, &table.0, read_col)?;
            if set != read {
                return Err(bind_err(
                    src,
                    read_col.span,
                    format!(
                        "UPDATE increments must read the assigned column \
                         (`SET {c} = {c} + n`)",
                        c = set_col.col
                    ),
                ));
            }
            resolve_col(src, schema, &table.0, key_col)?;
            Ok(BoundStatement::Scalar(Query::UpdateAdd {
                table: table.0.clone(),
                key_col: key_col.col.clone(),
                key: int32(src, *key, key_col.span)?,
                set_col: set_col.col.clone(),
                delta: int32(src, *delta, set_col.span)?,
            }))
        }
    }
}

fn lookup_table<'a>(
    catalog: &'a impl CatalogView,
    src: &str,
    table: &(String, (usize, usize)),
) -> DbResult<&'a Schema> {
    catalog
        .table_schema(&table.0)
        .ok_or_else(|| bind_err(src, table.1, format!("unknown table `{}`", table.0)))
}

/// Checks `c` names a column of `table` (and its qualifier, if any, names
/// `table`); returns the column index.
fn resolve_col(src: &str, schema: &Schema, table: &str, c: &ColRef) -> DbResult<usize> {
    if let Some(q) = &c.table {
        if q != table {
            return Err(bind_err(
                src,
                c.span,
                format!("`{}` does not name a table in FROM", q),
            ));
        }
    }
    schema.col(&c.col).map_err(|_| {
        bind_err(
            src,
            c.span,
            format!("unknown column `{}` in table `{table}`", c.col),
        )
    })
}

fn int32(src: &str, v: i64, span: (usize, usize)) -> DbResult<i32> {
    i32::try_from(v).map_err(|_| {
        bind_err(
            src,
            span,
            format!("literal {v} does not fit in a 32-bit column"),
        )
    })
}

fn cmp_op(k: CmpKind) -> CmpOp {
    match k {
        CmpKind::Lt => CmpOp::Lt,
        CmpKind::Le => CmpOp::Le,
        CmpKind::Gt => CmpOp::Gt,
        CmpKind::Ge => CmpOp::Ge,
        CmpKind::Eq => CmpOp::Eq,
        CmpKind::Ne => CmpOp::Ne,
    }
}

fn bind_select(
    catalog: &impl CatalogView,
    src: &str,
    sel: &SelectStmt,
) -> DbResult<BoundStatement> {
    match sel.tables.len() {
        1 => bind_single_table(catalog, src, sel),
        2 => bind_join(catalog, src, sel),
        n => Err(bind_err(
            src,
            sel.tables[2].1,
            format!("at most two tables are supported, FROM lists {n}"),
        )),
    }
}

/// Extracts the single aggregate projection, or `None` when the SELECT list
/// is not of the `[key,] AGG(x)` shape.
fn the_agg(projs: &[Projection]) -> Option<(&AggKind, Option<&ColRef>, (usize, usize))> {
    let aggs: Vec<_> = projs
        .iter()
        .filter_map(|p| match p {
            Projection::Agg { kind, col, span } => Some((kind, col.as_ref(), *span)),
            Projection::Col(_) => None,
        })
        .collect();
    match aggs.as_slice() {
        [one] => Some(*one),
        _ => None,
    }
}

fn agg_spec(
    src: &str,
    schema: &Schema,
    table: &str,
    kind: AggKind,
    col: Option<&ColRef>,
) -> DbResult<AggSpec> {
    match col {
        None => Ok(AggSpec::count()),
        Some(c) => {
            resolve_col(src, schema, table, c)?;
            Ok(AggSpec {
                kind,
                col: c.col.clone(),
            })
        }
    }
}

fn bind_single_table(
    catalog: &impl CatalogView,
    src: &str,
    sel: &SelectStmt,
) -> DbResult<BoundStatement> {
    let (tname, tspan) = (&sel.tables[0].0, sel.tables[0].1);
    let schema = lookup_table(catalog, src, &sel.tables[0])?;

    // Every WHERE conjunct must be a column-vs-literal comparison here; a
    // join condition with one table in FROM is a bind error.
    let mut cmps: Vec<(&ColRef, CmpKind, i64, (usize, usize))> = Vec::new();
    for atom in &sel.where_atoms {
        match atom {
            WhereAtom::Cmp {
                col,
                op,
                value,
                span,
            } => {
                resolve_col(src, schema, tname, col)?;
                cmps.push((col, *op, *value, *span));
            }
            WhereAtom::ColEq { span, .. } => {
                return Err(bind_err(
                    src,
                    *span,
                    "join condition needs two tables in FROM",
                ))
            }
        }
    }

    // Point select: `SELECT read_col FROM t WHERE key_col = k`.
    if sel.group_by.is_none() && sel.projections.len() == 1 {
        if let Projection::Col(read) = &sel.projections[0] {
            let [(key_col, CmpKind::Eq, key, span)] = cmps.as_slice() else {
                return Err(bind_err(
                    src,
                    read.span,
                    "a bare column projection is a point select: \
                     `SELECT col FROM t WHERE key_col = k` (aggregate otherwise)",
                ));
            };
            resolve_col(src, schema, tname, read)?;
            return Ok(BoundStatement::Scalar(Query::PointSelect {
                table: tname.clone(),
                key_col: key_col.col.clone(),
                key: int32(src, *key, *span)?,
                read_col: read.col.clone(),
            }));
        }
    }

    let Some((kind, agg_col, _)) = the_agg(&sel.projections) else {
        return Err(bind_err(
            src,
            tspan,
            "SELECT list must contain exactly one aggregate \
             (plus the GROUP BY key, if grouping)",
        ));
    };
    let agg = agg_spec(src, schema, tname, *kind, agg_col)?;
    let predicate = predicate_from_cmps(src, schema, &cmps)?;

    if let Some(g) = &sel.group_by {
        resolve_col(src, schema, tname, g)?;
        // The other projection (if any) must be the grouping key itself.
        for p in &sel.projections {
            if let Projection::Col(c) = p {
                if c.col != g.col {
                    return Err(bind_err(
                        src,
                        c.span,
                        format!("`{}` is not the GROUP BY key `{}`", c.display(), g.col),
                    ));
                }
            }
        }
        return Ok(BoundStatement::Grouped {
            table: tname.clone(),
            group_col: g.col.clone(),
            predicate,
            agg,
        });
    }
    // A bare-column projection without GROUP BY slipped past the point-
    // select shape above (e.g. two projections); refuse it explicitly.
    if let Some(Projection::Col(c)) = sel
        .projections
        .iter()
        .find(|p| matches!(p, Projection::Col(_)))
    {
        return Err(bind_err(
            src,
            c.span,
            format!("bare column `{}` requires GROUP BY {}", c.display(), c.col),
        ));
    }
    Ok(BoundStatement::Scalar(Query::SelectAgg {
        table: tname.clone(),
        predicate,
        agg,
    }))
}

/// Collapses WHERE conjuncts to the native exclusive range when they form
/// exactly `col > lo AND col < hi` on one column, else builds an [`Expr`]
/// conjunction over column indexes. `None` for an empty WHERE.
fn predicate_from_cmps(
    src: &str,
    schema: &Schema,
    cmps: &[(&ColRef, CmpKind, i64, (usize, usize))],
) -> DbResult<Option<QueryPredicate>> {
    match cmps {
        [] => Ok(None),
        [(c1, CmpKind::Gt, lo, s1), (c2, CmpKind::Lt, hi, s2)]
        | [(c2, CmpKind::Lt, hi, s2), (c1, CmpKind::Gt, lo, s1)]
            if c1.col == c2.col =>
        {
            Ok(Some(QueryPredicate::Range {
                col: c1.col.clone(),
                lo: int32(src, *lo, *s1)?,
                hi: int32(src, *hi, *s2)?,
            }))
        }
        _ => {
            let mut expr: Option<Expr> = None;
            for (col, op, value, span) in cmps {
                let ci = schema.col(&col.col).map_err(|_| {
                    bind_err(src, col.span, format!("unknown column `{}`", col.col))
                })?;
                let atom = Expr::Cmp(
                    cmp_op(*op),
                    Box::new(Expr::Col(ci)),
                    Box::new(Expr::Const(int32(src, *value, *span)?)),
                );
                expr = Some(match expr {
                    None => atom,
                    Some(e) => Expr::And(Box::new(e), Box::new(atom)),
                });
            }
            Ok(expr.map(QueryPredicate::Expr))
        }
    }
}

fn bind_join(catalog: &impl CatalogView, src: &str, sel: &SelectStmt) -> DbResult<BoundStatement> {
    let (t1, t2) = (&sel.tables[0], &sel.tables[1]);
    let s1 = lookup_table(catalog, src, t1)?;
    let s2 = lookup_table(catalog, src, t2)?;
    if let Some(g) = &sel.group_by {
        return Err(bind_err(
            src,
            g.span,
            "GROUP BY over a join is not supported",
        ));
    }

    // Exactly one equi-join conjunct; no residual filters in this dialect.
    let mut eq: Option<(&ColRef, &ColRef)> = None;
    for atom in &sel.where_atoms {
        match atom {
            WhereAtom::ColEq { left, right, span } => {
                if eq.is_some() {
                    return Err(bind_err(src, *span, "only one join condition is supported"));
                }
                eq = Some((left, right));
            }
            WhereAtom::Cmp { span, .. } => {
                return Err(bind_err(
                    src,
                    *span,
                    "joins take the equi-join condition only (no residual filters)",
                ))
            }
        }
    }
    let Some((l, r)) = eq else {
        return Err(bind_err(
            src,
            t2.1,
            format!(
                "two-table FROM needs a join condition `{}.c = {}.c`",
                t1.0, t2.0
            ),
        ));
    };

    // Columns in a join must be table-qualified; orient the condition's
    // sides to (t1, t2) order first.
    let side_of = |c: &ColRef| -> DbResult<usize> {
        match &c.table {
            Some(q) if *q == t1.0 => Ok(0),
            Some(q) if *q == t2.0 => Ok(1),
            Some(q) => Err(bind_err(
                src,
                c.span,
                format!("`{q}` does not name a table in FROM"),
            )),
            None => Err(bind_err(
                src,
                c.span,
                format!("`{}` must be table-qualified in a join", c.col),
            )),
        }
    };
    let (c1, c2) = match (side_of(l)?, side_of(r)?) {
        (0, 1) => (l, r),
        (1, 0) => (r, l),
        _ => {
            return Err(bind_err(
                src,
                l.span,
                "join condition must reference both tables",
            ))
        }
    };
    resolve_col(src, s1, &t1.0, c1)?;
    resolve_col(src, s2, &t2.0, c2)?;

    let Some((kind, agg_col, agg_span)) = the_agg(&sel.projections) else {
        return Err(bind_err(
            src,
            t1.1,
            "join SELECT list must be exactly one aggregate",
        ));
    };
    if sel.projections.len() != 1 {
        return Err(bind_err(
            src,
            agg_span,
            "join SELECT list must be exactly one aggregate",
        ));
    }

    // The executor aggregates a probe-side (left) column: orient the join so
    // the aggregate's table is the probe side. COUNT(*) defaults to t1.
    let (probe, probe_schema, probe_key, build, build_key) = match agg_col {
        Some(c) if side_of(c)? == 1 => (t2, s2, c2, t1, c1),
        _ => (t1, s1, c1, t2, c2),
    };
    let agg = match agg_col {
        // The join executor reads its aggregate column from the probe side;
        // COUNT(*) counts matches, so count over the (always-read) probe key.
        None => AggSpec {
            kind: AggKind::Count,
            col: probe_key.col.clone(),
        },
        Some(c) => {
            resolve_col(src, probe_schema, &probe.0, c)?;
            AggSpec {
                kind: *kind,
                col: c.col.clone(),
            }
        }
    };
    Ok(BoundStatement::Scalar(Query::JoinAgg {
        left: probe.0.clone(),
        right: build.0.clone(),
        left_col: probe_key.col.clone(),
        right_col: build_key.col.clone(),
        agg,
    }))
}
