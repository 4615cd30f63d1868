//! Backing storage for the simulated address space.
//!
//! Every page, index node and hash bucket lives in a [`SimArena`]: a byte
//! vector mapped at a fixed simulated base address. Reading or writing
//! through the instrumented accessors in [`crate::db::DbCtx`] both performs
//! the real byte access (so query answers are real) and drives the cache
//! simulator at the same address (so stall behaviour is real too).

use wdtg_sim::Region;

/// A growable byte arena pinned at a simulated base address.
#[derive(Debug)]
pub struct SimArena {
    region: Region,
    bytes: Vec<u8>,
    next: u64,
}

impl Clone for SimArena {
    fn clone(&self) -> Self {
        SimArena {
            region: self.region,
            bytes: self.bytes.clone(),
            next: self.next,
        }
    }

    /// Overwrites `self` with `source`'s bytes and bump cursor *in its own
    /// allocation* when that is large enough (`Vec::clone_from`). The SQL
    /// planner resets a pilot database from its image this way between
    /// candidates, on a worker thread, without that thread allocating.
    fn clone_from(&mut self, source: &Self) {
        self.region = source.region;
        self.bytes.clone_from(&source.bytes);
        self.next = source.next;
    }
}

impl SimArena {
    /// Creates an arena at `base` that may grow up to `capacity` bytes.
    pub fn new(base: u64, capacity: u64) -> Self {
        SimArena {
            region: Region {
                base,
                len: capacity,
            },
            bytes: Vec::new(),
            next: 0,
        }
    }

    /// The simulated address range reserved for this arena.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.next
    }

    /// Allocates `len` zeroed bytes aligned to `align`; returns the simulated
    /// address. Panics when the arena is exhausted — use [`SimArena::try_alloc`]
    /// where exhaustion must surface as an observable failure instead.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        match self.try_alloc(len, align) {
            Some(addr) => addr,
            None => panic!("arena at {:#x} exhausted", self.region.base),
        }
    }

    /// Fallible allocation: `None` when `len` bytes at `align` do not fit in
    /// the remaining capacity, leaving the arena untouched so callers can
    /// degrade (switch join strategy, fail one query) rather than abort.
    pub fn try_alloc(&mut self, len: u64, align: u64) -> Option<u64> {
        debug_assert!(align.is_power_of_two());
        let start = (self.next + align - 1) & !(align - 1);
        let end = start.checked_add(len)?;
        if end > self.region.len {
            return None;
        }
        if end as usize > self.bytes.len() {
            self.bytes.resize(end as usize, 0);
        }
        self.next = end;
        Some(self.region.base + start)
    }

    #[inline]
    fn off(&self, addr: u64) -> usize {
        debug_assert!(
            addr >= self.region.base && addr < self.region.base + self.next,
            "address {addr:#x} outside arena"
        );
        (addr - self.region.base) as usize
    }

    /// Raw (uninstrumented) 4-byte read.
    #[inline]
    pub fn read_i32(&self, addr: u64) -> i32 {
        let o = self.off(addr);
        i32::from_le_bytes(self.bytes[o..o + 4].try_into().expect("in bounds"))
    }

    /// Raw (uninstrumented) 4-byte write.
    #[inline]
    pub fn write_i32(&mut self, addr: u64, v: i32) {
        let o = self.off(addr);
        self.bytes[o..o + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Raw 8-byte read.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let o = self.off(addr);
        u64::from_le_bytes(self.bytes[o..o + 8].try_into().expect("in bounds"))
    }

    /// Raw 8-byte write.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        let o = self.off(addr);
        self.bytes[o..o + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Raw byte-slice read.
    pub fn read_bytes(&self, addr: u64, len: u32) -> &[u8] {
        let o = self.off(addr);
        &self.bytes[o..o + len as usize]
    }

    /// Raw byte-slice write.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let o = self.off(addr);
        self.bytes[o..o + data.len()].copy_from_slice(data);
    }

    /// Whether `addr` falls inside this arena's reserved range.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.region.contains(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_round_trip() {
        let mut a = SimArena::new(0x1000_0000, 1 << 20);
        let p = a.alloc(128, 64);
        assert_eq!(p % 64, 0);
        a.write_i32(p, -42);
        a.write_i32(p + 4, 7);
        a.write_u64(p + 8, 0xdead_beef);
        assert_eq!(a.read_i32(p), -42);
        assert_eq!(a.read_i32(p + 4), 7);
        assert_eq!(a.read_u64(p + 8), 0xdead_beef);
    }

    #[test]
    fn allocations_are_disjoint() {
        let mut a = SimArena::new(0x1000_0000, 1 << 20);
        let p1 = a.alloc(100, 8);
        let p2 = a.alloc(100, 8);
        assert!(p2 >= p1 + 100);
        a.write_bytes(p1, &[1u8; 100]);
        a.write_bytes(p2, &[2u8; 100]);
        assert!(a.read_bytes(p1, 100).iter().all(|&b| b == 1));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overflow_panics() {
        let mut a = SimArena::new(0x1000_0000, 256);
        a.alloc(512, 8);
    }

    #[test]
    fn try_alloc_fails_cleanly_and_leaves_arena_usable() {
        let mut a = SimArena::new(0x1000_0000, 256);
        assert_eq!(a.try_alloc(512, 8), None);
        assert_eq!(a.used(), 0);
        let p = a.try_alloc(128, 64).expect("fits");
        assert_eq!(p % 64, 0);
        a.write_i32(p, 9);
        assert_eq!(a.read_i32(p), 9);
        // Alignment padding counts against capacity.
        assert_eq!(a.try_alloc(256, 64), None);
    }
}
