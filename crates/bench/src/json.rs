//! The one writer of the `BENCH_*.json` documents.
//!
//! A report builds a [`Json`] tree and `Display` lays it out the way the
//! committed baselines are written, so regenerating a baseline is a byte
//! diff: the top-level object holds one member per line; its member objects
//! are inline unless they hold objects themselves; anything deeper is
//! inline; an array holds one element per line.

use std::fmt::{self, Display, Formatter};

/// A JSON value as the `BENCH_*.json` documents write it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number with a fixed count of decimals, or with `f64`'s shortest
    /// `Display` form (`0`, `0.0001`) when `None`.
    Num(f64, Option<usize>),
    /// An integer — also the `1`/`0` some documents write for a flag.
    Int(u64),
    /// `true` or `false`.
    Bool(bool),
    /// A string, escaped as Rust escapes it (the same as JSON for the
    /// printable-ASCII labels and SQL text the reports carry).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in insertion order.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// `x` printed with `decimals` fixed decimals.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::Num(x, Some(decimals))
    }

    /// An object from its members.
    pub fn obj<const N: usize>(members: [(&'static str, Json); N]) -> Json {
        Json::Obj(members.into())
    }

    fn fmt_at(&self, f: &mut Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = |n: usize| "  ".repeat(n);
        match self {
            Json::Num(x, Some(d)) => write!(f, "{x:.d$}"),
            Json::Num(x, None) => write!(f, "{x}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(items) => {
                writeln!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    f.write_str(if i == 0 { "" } else { ",\n" })?;
                    f.write_str(&pad(depth + 1))?;
                    v.fmt_at(f, depth + 1)?;
                }
                write!(f, "\n{}]", pad(depth))
            }
            Json::Obj(members) => {
                let block = depth == 0
                    || depth == 1 && members.iter().any(|(_, v)| matches!(v, Json::Obj(_)));
                f.write_str(if block { "{\n" } else { "{ " })?;
                for (i, (k, v)) in members.iter().enumerate() {
                    let sep = if block { ",\n" } else { ", " };
                    f.write_str(if i == 0 { "" } else { sep })?;
                    if block {
                        f.write_str(&pad(depth + 1))?;
                    }
                    write!(f, "\"{k}\": ")?;
                    v.fmt_at(f, depth + 1)?;
                }
                if block {
                    write!(f, "\n{}}}", pad(depth))
                } else {
                    f.write_str(" }")
                }
            }
        }
    }
}

impl Display for Json {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        self.fmt_at(f, 0)
    }
}

// `From` for the integer, bool and string values the reports write, so a
// member reads `("rows", rows.into())`.
macro_rules! json_from {
    ($($t:ty => $variant:ident($conv:expr)),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant($conv(v))
            }
        })*
    };
}

json_from! {
    u64 => Int(|n| n),
    u32 => Int(u64::from),
    usize => Int(|n| n as u64),
    bool => Bool(|b| b),
    &str => Str(String::from),
    String => Str(|s| s),
}
