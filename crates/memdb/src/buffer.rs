//! Buffer-pool page table.
//!
//! The database is memory resident (§4.2), so frames never get evicted —
//! but commercial systems still go through buffer-pool logic on every page
//! boundary: hash the page id, probe the page table, latch the frame. That
//! per-page code and its data traffic are exactly the "buffer pool
//! management instructions" the paper's third hypothesis (§5.2.2) blames for
//! extra L1I misses with larger records, so the page table is simulated
//! memory and the lookup is an instrumented code path.
//!
//! # Table layout and stall accounting
//!
//! The table is open-addressed (Fibonacci hash, linear probing) at a fixed
//! load factor ≤ 0.5, stored in the MISC segment as 16-byte entries:
//!
//! ```text
//! entry  +0            +8
//!        +-------------+---------------+
//!        | page_id + 1 | frame address |   (key 0 = empty slot)
//!        +-------------+---------------+
//! ```
//!
//! [`BufferPool::lookup_into`] itself reads host memory only; the caller
//! (`ExecEnv::lookup_page`) charges one instrumented 16-byte touch per
//! *probed* entry, with the access's [`wdtg_sim::MemDep`] class deciding how
//! a miss stalls the pipeline: sequential scans probe with `Demand`
//! (overlappable), rid fetches with `Chase` (serialized pointer chase).
//! Registration happens at load time and is deliberately uninstrumented,
//! matching the paper's pre-measurement loading phase (§4.3).
//!
//! The lookup cost is identical under both page layouts
//! ([`crate::heap::PageLayout`]): PAX reorganizes bytes *within* a frame,
//! not the page-id → frame mapping.

use crate::arena::SimArena;

/// Open-addressed page table mapping page id → frame address, stored in
/// simulated memory (MISC segment).
#[derive(Debug, Clone)]
pub struct BufferPool {
    table_base: u64,
    slots: u64,
    entries: u64,
}

/// Bytes per page-table entry: page id (8) + frame address (8).
const ENTRY_BYTES: u64 = 16;

impl BufferPool {
    /// Creates a page table sized for `expected_pages` registrations.
    pub fn new(misc: &mut SimArena, expected_pages: u64) -> Self {
        let slots = (expected_pages * 2).next_power_of_two().max(64);
        let table_base = misc.alloc(slots * ENTRY_BYTES, 64);
        BufferPool {
            table_base,
            slots,
            entries: 0,
        }
    }

    fn slot_of(&self, page_id: u64, probe: u64) -> u64 {
        // Fibonacci hashing; linear probing.
        let h = page_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - self.slots.trailing_zeros());
        (h + probe) & (self.slots - 1)
    }

    /// Registers a page (uninstrumented — done at load time).
    /// Panics if the table fills up; size it correctly at creation.
    pub fn register(&mut self, misc: &mut SimArena, page_id: u64, frame_addr: u64) {
        assert!(self.entries < self.slots, "page table full");
        for probe in 0..self.slots {
            let slot = self.slot_of(page_id, probe);
            let entry = self.table_base + slot * ENTRY_BYTES;
            let existing = misc.read_u64(entry);
            if existing == 0 || existing == page_id + 1 {
                if existing == 0 {
                    self.entries += 1;
                }
                // Keys are stored +1 so 0 means empty.
                misc.write_u64(entry, page_id + 1);
                misc.write_u64(entry + 8, frame_addr);
                return;
            }
        }
        unreachable!("probed every slot");
    }

    /// Looks up a page id, appending the probed entry addresses to a
    /// caller-owned buffer (the executor hot path reuses one buffer per
    /// query instead of allocating per page). The caller issues the
    /// instrumented loads for each probed entry — the data traffic of the
    /// lookup is part of the measured workload.
    pub fn lookup_into(&self, misc: &SimArena, page_id: u64, probed: &mut Vec<u64>) -> Option<u64> {
        for probe in 0..self.slots {
            let slot = self.slot_of(page_id, probe);
            let entry = self.table_base + slot * ENTRY_BYTES;
            probed.push(entry);
            let key = misc.read_u64(entry);
            if key == 0 {
                return None;
            }
            if key == page_id + 1 {
                return Some(misc.read_u64(entry + 8));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdtg_sim::segment;

    fn lookup(bp: &BufferPool, misc: &SimArena, page_id: u64) -> Option<(u64, Vec<u64>)> {
        let mut probed = Vec::new();
        let frame = bp.lookup_into(misc, page_id, &mut probed)?;
        Some((frame, probed))
    }

    #[test]
    fn register_and_lookup() {
        let mut misc = SimArena::new(segment::MISC, 1 << 20);
        let mut bp = BufferPool::new(&mut misc, 100);
        for i in 0..100u64 {
            bp.register(&mut misc, i, 0x1000_0000 + i * 8192);
        }
        for i in 0..100u64 {
            let (addr, probed) = lookup(&bp, &misc, i).expect("registered");
            assert_eq!(addr, 0x1000_0000 + i * 8192);
            assert!(!probed.is_empty());
        }
        assert!(lookup(&bp, &misc, 999).is_none());
    }

    #[test]
    fn reregistering_updates_in_place() {
        let mut misc = SimArena::new(segment::MISC, 1 << 20);
        let mut bp = BufferPool::new(&mut misc, 8);
        bp.register(&mut misc, 7, 0xaaaa0000);
        bp.register(&mut misc, 7, 0xbbbb0000);
        let (addr, _) = lookup(&bp, &misc, 7).unwrap();
        assert_eq!(addr, 0xbbbb0000);
    }

    #[test]
    fn lookup_into_reuses_the_caller_buffer() {
        let mut misc = SimArena::new(segment::MISC, 1 << 20);
        let mut bp = BufferPool::new(&mut misc, 8);
        bp.register(&mut misc, 1, 0x1000);
        bp.register(&mut misc, 2, 0x2000);
        let mut probed = Vec::new();
        assert_eq!(bp.lookup_into(&misc, 1, &mut probed), Some(0x1000));
        let first_len = probed.len();
        probed.clear();
        assert_eq!(bp.lookup_into(&misc, 2, &mut probed), Some(0x2000));
        assert!(
            !probed.is_empty() && first_len > 0,
            "probe addresses are appended"
        );
    }

    #[test]
    fn lookups_usually_probe_once() {
        let mut misc = SimArena::new(segment::MISC, 1 << 20);
        let mut bp = BufferPool::new(&mut misc, 1000);
        for i in 0..1000u64 {
            bp.register(&mut misc, i, 0x1000 + i);
        }
        let total: usize = (0..1000u64)
            .map(|i| lookup(&bp, &misc, i).unwrap().1.len())
            .sum();
        assert!(
            total < 1600,
            "load factor 0.5 should keep probes short, got {total}"
        );
    }
}
