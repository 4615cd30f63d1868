//! Translation look-aside buffers.
//!
//! The ITLB and DTLB are small set-associative caches of page translations
//! (4 KB pages under NT 4.0). Table 4.2 measures T_ITLB as misses × 32 cycles;
//! T_DTLB had no event code on the Pentium II, so the paper could not measure
//! it — the simulator models it anyway and exposes it as ground truth.

use crate::cache::Cache;
use crate::config::{CacheGeom, TlbGeom};

/// A TLB, implemented as a set-associative cache of page numbers.
#[derive(Debug, Clone)]
pub struct Tlb {
    inner: Cache,
    page_shift: u32,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    /// Panics if `entries / assoc` is not a power of two or `assoc` is zero
    /// (the geometry check of [`Cache::new`]).
    pub fn new(geom: TlbGeom) -> Self {
        // Reuse the cache model: one "line" per page translation. The page
        // shift is applied here, so configure the inner cache with
        // single-byte lines over page numbers.
        let inner = Cache::new(CacheGeom {
            size_bytes: geom.entries,
            line_bytes: 1,
            assoc: geom.assoc,
        });
        Tlb {
            inner,
            page_shift: geom.page_bytes.trailing_zeros(),
        }
    }

    /// Looks up the page containing `addr`; returns true on a TLB hit.
    /// A miss installs the translation (hardware page walk).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.inner.access_line(addr >> self.page_shift, false).hit
    }

    /// Number of lookups performed.
    pub fn accesses(&self) -> u64 {
        self.inner.accesses()
    }

    /// Number of misses (page walks).
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Clears statistics but keeps translations.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Drops every translation and the statistics, in place.
    pub(crate) fn clear(&mut self) {
        self.inner.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbGeom {
            entries: 8,
            assoc: 2,
            page_bytes: 4096,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = tlb();
        assert!(!t.access(0x1000));
        assert!(t.access(0x1fff), "same 4 KB page");
        assert!(!t.access(0x2000), "next page");
        assert_eq!(t.misses(), 2);
    }

    #[test]
    fn capacity_misses_when_touching_many_pages() {
        let mut t = tlb();
        // 32 distinct pages through an 8-entry TLB, twice: second pass still misses.
        for _ in 0..2 {
            for p in 0..32u64 {
                t.access(p * 4096);
            }
        }
        assert!(t.misses() > 32, "reuse distance exceeds capacity");
    }

    #[test]
    fn small_working_set_stays_resident() {
        let mut t = tlb();
        for _ in 0..10 {
            for p in 0..4u64 {
                t.access(p * 4096);
            }
        }
        t.reset_stats();
        for p in 0..4u64 {
            assert!(t.access(p * 4096));
        }
    }
}
