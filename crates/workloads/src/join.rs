//! The join chapter's workload: the paper's two-table equijoin (§3.3,
//! query 2: `select avg(R.a3) from R, S where R.a2 = S.a1`) with its own
//! scale knobs, so join experiments can size the build side against the L2
//! independently of the selection experiments' [`crate::scale::Scale`].
//!
//! * **Build side** `S`: `a1` is the primary key `1..=build_rows`.
//! * **Probe side** `R`: `a2` is the join key. A `match_rate` fraction of
//!   probe rows draw `a2` uniformly from S's key domain (each finds exactly
//!   one match); the rest draw from a disjoint negative domain and find
//!   none — the workload's join-selectivity knob.
//!
//! The default spec sizes the build side so a naive join's hash table
//! (≈32 bytes/row of directory + entry pool) is ~3× the 512 KB L2 — the
//! regime where the paper finds the join memory-bound and where the
//! radix-partitioned join has something to win.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wdtg_memdb::{Database, DbResult, PageLayout, Query, Schema};

use crate::micro::DEFAULT_SEED;

/// Sizing and selectivity of one join experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSpec {
    /// Rows in the build relation S (= the join-key domain).
    pub build_rows: u64,
    /// Rows in the probe relation R.
    pub probe_rows: u64,
    /// Record size of both relations in bytes (multiple of 4).
    pub record_bytes: u32,
    /// Fraction of probe rows whose key lands in S's domain (0.0..=1.0).
    pub match_rate: f64,
}

impl Default for JoinSpec {
    /// The bench default: build side ≈3× the 512 KB L2 as a hash table,
    /// probe side 3× the build side (the paper's R:S shape, compressed),
    /// 20-byte records so loading stays fast, every probe matching.
    fn default() -> JoinSpec {
        JoinSpec {
            build_rows: 30_000,
            probe_rows: 90_000,
            record_bytes: 20,
            match_rate: 1.0,
        }
    }
}

impl JoinSpec {
    /// A CI/test-sized spec that keeps the default's cache regime (naive
    /// build table still past the L2) at a fraction of the runtime.
    pub fn test_scale() -> JoinSpec {
        JoinSpec {
            build_rows: 20_000,
            probe_rows: 40_000,
            record_bytes: 20,
            match_rate: 1.0,
        }
    }

    /// Same spec with a different match rate.
    pub fn with_match_rate(mut self, rate: f64) -> JoinSpec {
        self.match_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Expected join cardinality: matching probe rows find exactly one
    /// partner (S.a1 is unique). The striping in [`probe_rows`] telescopes
    /// to exactly `floor(probe_rows * match_rate)` matches.
    pub fn expected_rows(&self) -> u64 {
        (self.probe_rows as f64 * self.match_rate).floor() as u64
    }
}

/// Generates S's rows: `a1` the primary key `1..=build_rows`, the rest
/// filler.
pub fn build_rows(spec: JoinSpec, seed: u64) -> impl Iterator<Item = Vec<i32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5353_5353);
    let ncols = (spec.record_bytes / 4) as usize;
    (0..spec.build_rows).map(move |i| {
        let mut row = vec![0i32; ncols];
        row[0] = i as i32 + 1;
        for c in row.iter_mut().skip(1) {
            *c = rng.random_range(0..1_000_000);
        }
        row
    })
}

/// Generates R's rows: `a1` sequential, `a2` the join key (in-domain with
/// probability `match_rate`, out-of-domain — negative — otherwise), `a3`
/// the aggregated value.
pub fn probe_rows(spec: JoinSpec, seed: u64) -> impl Iterator<Item = Vec<i32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ncols = (spec.record_bytes / 4) as usize;
    let domain = spec.build_rows.max(1) as i32;
    (0..spec.probe_rows).map(move |i| {
        let mut row = vec![0i32; ncols];
        row[0] = i as i32;
        // Deterministic striping hits the match rate exactly; the key draw
        // itself stays random.
        let matches =
            (i as f64 * spec.match_rate).floor() < ((i + 1) as f64 * spec.match_rate).floor();
        row[1] = if matches {
            rng.random_range(1..=domain)
        } else {
            -rng.random_range(1..=domain)
        };
        row[2] = rng.random_range(0..10_000);
        for c in row.iter_mut().skip(3) {
            *c = rng.random_range(0..1_000_000);
        }
        row
    })
}

/// Loads R and S into `db` at the given spec (uninstrumented, both in
/// `layout` pages) and optionally builds the non-clustered index on `S.a1`
/// the index-nested-loop strategy probes. Hash strategies ignore the index,
/// so building it keeps one dataset comparable across all three join
/// algorithms.
pub fn prepare(
    db: &mut Database,
    spec: JoinSpec,
    index_inner: bool,
    layout: PageLayout,
) -> DbResult<()> {
    let schema = Schema::paper_relation(spec.record_bytes);
    db.create_table_with_layout("R", schema.clone(), layout)?;
    db.load_rows("R", probe_rows(spec, DEFAULT_SEED))?;
    db.create_table_with_layout("S", schema, layout)?;
    db.load_rows("S", build_rows(spec, DEFAULT_SEED))?;
    if index_inner {
        db.create_index("S", "a1")?;
    }
    Ok(())
}

/// The join query (identical for every system and strategy).
pub fn query() -> Query {
    Query::join_avg("R", "S")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdtg_memdb::testutil::quiet;
    use wdtg_memdb::{EngineProfile, JoinAlgo, SystemId};

    fn tiny_spec() -> JoinSpec {
        JoinSpec {
            build_rows: 400,
            probe_rows: 3_000,
            record_bytes: 20,
            match_rate: 1.0,
        }
    }

    #[test]
    fn every_probe_row_matches_at_full_match_rate() {
        let spec = tiny_spec();
        let mut db = Database::new(EngineProfile::system(SystemId::C), quiet());
        prepare(&mut db, spec, false, PageLayout::Nsm).unwrap();
        let res = db.run(&query()).unwrap();
        assert_eq!(res.rows, spec.probe_rows);
        assert_eq!(res.rows, spec.expected_rows());
    }

    #[test]
    fn match_rate_prunes_the_join_cardinality() {
        for rate in [0.0, 0.25, 0.5] {
            let spec = tiny_spec().with_match_rate(rate);
            let mut db = Database::new(EngineProfile::system(SystemId::A), quiet());
            prepare(&mut db, spec, false, PageLayout::Nsm).unwrap();
            let res = db.run(&query()).unwrap();
            assert_eq!(
                res.rows,
                spec.expected_rows(),
                "match rate {rate}: got {} rows",
                res.rows
            );
        }
    }

    #[test]
    fn strategies_agree_on_the_workload() {
        let spec = tiny_spec().with_match_rate(0.7);
        let mut results = Vec::new();
        for algo in [
            JoinAlgo::Hash,
            JoinAlgo::PartitionedHash,
            JoinAlgo::IndexNestedLoop,
        ] {
            let mut db = Database::new(EngineProfile::system(SystemId::B), quiet());
            db.set_join_algo(algo);
            prepare(&mut db, spec, true, PageLayout::Nsm).unwrap();
            results.push(db.run(&query()).unwrap());
        }
        assert_eq!(results[0].rows, results[1].rows);
        assert_eq!(results[0].rows, results[2].rows);
        assert!((results[0].value - results[1].value).abs() < 1e-9);
        assert!((results[0].value - results[2].value).abs() < 1e-9);
    }

    #[test]
    fn expected_rows_matches_the_striping_count() {
        // Rates where probe_rows * rate is inexact must still agree with
        // the telescoped stripe count probe_rows() actually produces.
        for &(n, rate) in &[(10u64, 0.55), (7, 0.5), (9, 0.77), (3_000, 1.0 / 3.0)] {
            let spec = JoinSpec {
                build_rows: 10,
                probe_rows: n,
                record_bytes: 20,
                match_rate: rate,
            };
            let stripes = (0..n)
                .filter(|&i| (i as f64 * rate).floor() < ((i + 1) as f64 * rate).floor())
                .count() as u64;
            assert_eq!(spec.expected_rows(), stripes, "n={n} rate={rate}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = tiny_spec();
        let a: Vec<Vec<i32>> = probe_rows(spec, 7).take(50).collect();
        let b: Vec<Vec<i32>> = probe_rows(spec, 7).take(50).collect();
        assert_eq!(a, b);
    }
}
