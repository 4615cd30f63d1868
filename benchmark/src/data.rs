//! Seed-derived tables and the databases built from them. The engine sees
//! only the generated rows; the oracle keeps its own copy.

use wdtg_memdb::{Database, EngineProfile, Schema, SystemId};
use wdtg_sim::{CpuConfig, InterruptCfg};
use wdtg_workloads::{micro, Scale};

use crate::oracle::Row;

/// Bytes per record of R, S and T (the paper's 100-byte record).
const RECORD_BYTES: u32 = 100;
/// Distinct values of the `a4` group key.
pub const GROUPS: i32 = 64;

/// Row counts. `a2` of R is uniform over `1..=s`, S's key `a1` is `1..=s`
/// and T's is `1..=t`, so with `t >= s` every R row joins exactly one row
/// of either.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub r: u64,
    pub s: u64,
    pub t: u64,
}

impl Sizes {
    /// The workloads' data: R ≈ 10 MB (20× the simulated 512 KB L2),
    /// S ≈ 0.33 MB (fits L2), T ≈ 3.3 MB (6× L2).
    pub const FULL: Sizes = Sizes {
        r: 100_020,
        s: 3_334,
        t: 33_340,
    };
    /// The layer probes' data: a third of `FULL`, so the row-mode probes
    /// cost a third; R and T still exceed L2 and S still fits.
    pub const PROBE: Sizes = Sizes {
        r: 30_000,
        s: 1_000,
        t: 10_000,
    };

    fn scale(&self) -> Scale {
        Scale {
            r_records: self.r,
            s_records: self.s,
            record_bytes: RECORD_BYTES,
        }
    }

    /// `(lo, hi)` of `a2 > lo AND a2 < hi` selecting `share` of R, the
    /// window starting `offset` (0..=1) of the way through the free room.
    pub fn a2_window(&self, share: f64, offset: f64) -> (i32, i32) {
        let domain = self.s as i32;
        let width = ((share * domain as f64).round() as i32).clamp(1, domain);
        let lo = ((domain - width) as f64 * offset) as i32;
        (lo, lo + width + 1)
    }
}

#[derive(Debug, Clone)]
pub struct Tables {
    pub sizes: Sizes,
    pub r: Vec<Row>,
    pub s: Vec<Row>,
    pub t: Vec<Row>,
}

/// Generates R, S and T for `seed`. R's `a4` is reduced to a 64-value group key.
pub fn generate(seed: u64, sizes: Sizes) -> Tables {
    let r = micro::r_rows(sizes.scale(), seed)
        .map(|mut row| {
            row[3] %= GROUPS;
            row
        })
        .collect();
    let s = micro::s_rows(sizes.scale(), seed).collect();
    let t_scale = Scale {
        s_records: sizes.t,
        ..sizes.scale()
    };
    let t = micro::s_rows(t_scale, seed.wrapping_add(0x5454)).collect();
    Tables { sizes, r, s, t }
}

pub fn cpu_config() -> CpuConfig {
    CpuConfig::pentium_ii_xeon().with_interrupts(InterruptCfg::disabled())
}

fn empty_db(expected_rows: u64) -> Database {
    let mut db = Database::with_capacity(
        EngineProfile::system(SystemId::C),
        cpu_config(),
        expected_rows / 40 + 1024,
    );
    db.ctx.instrument = false;
    db
}

fn load(db: &mut Database, name: &str, rows: &[Row]) {
    db.create_table(name, Schema::paper_relation(RECORD_BYTES))
        .expect("fresh table name");
    db.load_rows(name, rows.iter().cloned())
        .expect("generated rows match the schema");
}

/// System C over R, S and T, loaded uninstrumented like the paper's bulk load.
pub fn build_olap(t: &Tables) -> Database {
    let mut db = empty_db(t.sizes.r + t.sizes.s + t.sizes.t);
    load(&mut db, "R", &t.r);
    load(&mut db, "S", &t.s);
    load(&mut db, "T", &t.t);
    db.ctx.instrument = true;
    db
}

/// System C over R with a unique index on `a1`, plus the empty 20-byte
/// history table H.
pub fn build_oltp(t: &Tables) -> Database {
    let mut db = empty_db(t.sizes.r * 2);
    load(&mut db, "R", &t.r);
    db.create_index("R", "a1").expect("R.a1 exists");
    db.create_table("H", Schema::paper_relation(20))
        .expect("fresh table name");
    db.ctx.instrument = true;
    db
}
