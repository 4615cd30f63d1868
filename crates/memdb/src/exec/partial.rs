//! Mergeable partial-aggregate state.
//!
//! Scalar and grouped aggregation both accumulate the same four exact
//! quantities — integer sum, count, min, max — and only render them into a
//! float at the very end ([`AggState::value`]). Keeping the accumulator
//! public and mergeable is what makes sharded execution exact: each shard
//! aggregates its partition into an [`AggState`], the shard router merges
//! the partials with integer arithmetic ([`AggState::merge`]), and the final
//! value is computed *once*, by the same code a single-shard run uses — so
//! an N-shard answer is bit-identical to the 1-shard answer, not merely
//! close up to float re-association.
//!
//! What one aggregate plan accumulates is a `Partial`: one [`AggState`],
//! or one per group key. Morsels, shards and the router all merge that one
//! value.

use std::collections::BTreeMap;

use crate::query::{AggKind, QueryResult};

/// An aggregate plan's exact accumulation: the scalar aggregate's one
/// [`AggState`], or a grouped aggregate's [`AggState`] per key in ascending
/// key order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Partial {
    Scalar(AggState),
    Grouped(BTreeMap<i32, AggState>),
}

impl Partial {
    /// The empty accumulation, grouped or not.
    pub(crate) fn new(grouped: bool) -> Partial {
        if grouped {
            Partial::Grouped(BTreeMap::new())
        } else {
            Partial::Scalar(AggState::new())
        }
    }

    /// Folds another partial of the same shape in, key by key. Exact, like
    /// [`AggState::merge`].
    pub(crate) fn merge(&mut self, other: Partial) {
        match (self, other) {
            (Partial::Scalar(a), Partial::Scalar(b)) => a.merge(&b),
            (Partial::Grouped(a), Partial::Grouped(b)) => {
                for (key, state) in b {
                    a.entry(key).or_default().merge(&state);
                }
            }
            _ => unreachable!("partials of one statement have one shape"),
        }
    }

    /// Renders the answer as `kind`: a scalar aggregate's result (`Ok`), or
    /// a grouped aggregate's `(key, value)` rows in ascending key order
    /// (`Err`).
    pub(crate) fn render(&self, kind: AggKind) -> Result<QueryResult, Vec<(i32, f64)>> {
        match self {
            Partial::Scalar(state) => Ok(state.result(kind)),
            Partial::Grouped(groups) => Err(groups
                .iter()
                .map(|(&key, state)| (key, state.value(kind)))
                .collect()),
        }
    }
}

/// The scalar half of a [`Partial::render`]-shaped answer: what a scalar
/// statement is answered with.
pub(crate) fn scalar(answer: Result<QueryResult, Vec<(i32, f64)>>) -> QueryResult {
    answer.expect("a scalar statement has a scalar answer")
}

/// The grouped half of a [`Partial::render`]-shaped answer: what a grouped
/// statement is answered with.
pub(crate) fn groups(answer: Result<QueryResult, Vec<(i32, f64)>>) -> Vec<(i32, f64)> {
    answer.expect_err("a grouped statement is answered per group")
}

/// Exact, mergeable accumulator for one aggregate (or one group of a
/// grouped aggregate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggState {
    /// Integer sum of the aggregated column.
    pub sum: i64,
    /// Rows accumulated.
    pub count: u64,
    /// Minimum value seen ([`i32::MAX`] while empty).
    pub min: i32,
    /// Maximum value seen ([`i32::MIN`] while empty).
    pub max: i32,
}

impl Default for AggState {
    fn default() -> Self {
        Self::new()
    }
}

impl AggState {
    /// The empty accumulator (identity of [`AggState::merge`]).
    pub fn new() -> AggState {
        AggState {
            sum: 0,
            count: 0,
            min: i32::MAX,
            max: i32::MIN,
        }
    }

    /// Folds one value in.
    #[inline]
    pub fn update(&mut self, v: i32) {
        self.sum += v as i64;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another partial in (shard merge). Exact: integer sums and
    /// min/max are associative and commutative, so merge order cannot
    /// change the result.
    #[inline]
    pub fn merge(&mut self, other: &AggState) {
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Renders the accumulator as `kind`'s final value (0.0 when empty,
    /// matching the engine's historical behaviour for aggregates over no
    /// rows).
    pub fn value(&self, kind: AggKind) -> f64 {
        match kind {
            AggKind::Avg => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum as f64 / self.count as f64
                }
            }
            AggKind::Sum => self.sum as f64,
            AggKind::Count => self.count as f64,
            AggKind::Min => {
                if self.count == 0 {
                    0.0
                } else {
                    self.min as f64
                }
            }
            AggKind::Max => {
                if self.count == 0 {
                    0.0
                } else {
                    self.max as f64
                }
            }
        }
    }

    /// The accumulator as a [`QueryResult`] for `kind`.
    pub fn result(&self, kind: AggKind) -> QueryResult {
        QueryResult {
            value: self.value(kind),
            rows: self.count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_equals_sequential_update() {
        let vals = [5, -3, 12, 0, 7, -3, 9];
        let mut whole = AggState::new();
        for v in vals {
            whole.update(v);
        }
        let (a_vals, b_vals) = vals.split_at(3);
        let mut a = AggState::new();
        let mut b = AggState::new();
        for &v in a_vals {
            a.update(v);
        }
        for &v in b_vals {
            b.update(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        for kind in [
            AggKind::Avg,
            AggKind::Sum,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
        ] {
            assert_eq!(a.value(kind), whole.value(kind));
        }
    }

    #[test]
    fn empty_state_is_merge_identity_and_renders_zero() {
        let mut s = AggState::new();
        assert_eq!(s.value(AggKind::Avg), 0.0);
        assert_eq!(s.value(AggKind::Min), 0.0);
        let mut one = AggState::new();
        one.update(42);
        s.merge(&one);
        assert_eq!(s, one);
    }
}
