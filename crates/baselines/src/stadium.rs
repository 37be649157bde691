//! Stadium hashing (Khorasani et al., PACT 2015 — paper ref. 15), the other
//! §II related-work baseline.
//!
//! Stadium hashing splits the structure in two: a compact **ticket board**
//! (a bit per slot, fitting in fast memory) plus the main key–value table.
//! Insertion claims a slot by atomically setting its ticket bit — "an
//! insertion in this method requires one atomic operation and a regular
//! memory write" — and probes by double hashing on collisions. A search
//! first consults the ticket board and only then reads the table slot —
//! "a search operation in stadium hashing requires at least two memory
//! reads", which is exactly why the paper concludes it cannot compete with
//! CUDPP's single-read searches.
//!
//! One simplification (documented in DESIGN.md §7): the original is
//! built for out-of-core tables and adds ticket *info bits* that prune
//! out-of-core accesses; in-core, the board degenerates to the occupancy
//! bit per slot modeled here.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use simt::{pack_pair, unpack_pair, Grid, LaunchReport, PerfCounters};

const EMPTY_SLOT: u64 = u64::MAX;
const P: u64 = 4_294_967_291;

/// Smallest prime ≥ n (trial division; used once at construction).
fn next_prime(mut n: usize) -> usize {
    fn is_prime(x: usize) -> bool {
        if x < 4 {
            return x >= 2;
        }
        if x.is_multiple_of(2) {
            return false;
        }
        let mut d = 3;
        while d * d <= x {
            if x.is_multiple_of(d) {
                return false;
            }
            d += 2;
        }
        true
    }
    while !is_prime(n) {
        n += 1;
    }
    n
}

/// The stadium hash table: ticket board + main table.
pub struct StadiumHash {
    tickets: Vec<AtomicU32>,
    slots: Vec<AtomicU64>,
    a1: u64,
    b1: u64,
    a2: u64,
    max_probes: u32,
}

impl StadiumHash {
    /// A table sized for `n` elements at `load_factor`. The slot count is
    /// rounded up to a prime so the double-hashing step is always coprime
    /// to it (every probe sequence covers the whole table).
    pub fn new(n: usize, load_factor: f64, seed: u64) -> Self {
        assert!(n > 0 && load_factor > 0.0 && load_factor < 1.0);
        let size = next_prime(((n as f64 / load_factor).ceil() as usize).max(8));
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        Self {
            tickets: (0..size.div_ceil(32)).map(|_| AtomicU32::new(0)).collect(),
            slots: (0..size).map(|_| AtomicU64::new(EMPTY_SLOT)).collect(),
            a1: 1 + next() % (P - 1),
            b1: next() % P,
            // Double-hash step must be odd/non-zero to cover the table.
            a2: 1 + next() % (P - 1),
            max_probes: (size as u32).max(64),
        }
    }

    /// Table slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Device bytes (board + table).
    pub fn device_bytes(&self) -> u64 {
        (self.tickets.len() * 4 + self.slots.len() * 8) as u64
    }

    /// The compact ticket board's bytes alone (it is the part the original
    /// keeps in fast/in-core memory).
    pub fn ticket_board_bytes(&self) -> u64 {
        (self.tickets.len() * 4) as u64
    }

    /// Stored elements (host-side scan of the board).
    pub fn len(&self) -> usize {
        self.tickets
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// True when no element is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn start(&self, key: u32) -> usize {
        (((self.a1 * key as u64 + self.b1) % P) % self.slots.len() as u64) as usize
    }

    /// Double-hashing step (made odd so every slot is eventually visited in
    /// a power-of-two-free table; we also force ≥ 1).
    #[inline]
    fn step(&self, key: u32) -> usize {
        1 + (((self.a2 * key as u64) % P) % (self.slots.len() as u64 - 1)) as usize
    }

    /// Claims `slot`'s ticket bit. `Ok` means the slot is ours to write.
    #[inline]
    fn claim_ticket(&self, slot: usize, c: &mut PerfCounters) -> bool {
        let word = &self.tickets[slot / 32];
        let bit = 1u32 << (slot % 32);
        c.atomics += 1;
        word.fetch_or(bit, Ordering::AcqRel) & bit == 0
    }

    #[inline]
    fn ticket_set(&self, slot: usize, c: &mut PerfCounters) -> bool {
        // The board is tiny; still a memory access the search must make.
        c.sector_reads += 1;
        self.tickets[slot / 32].load(Ordering::Acquire) & (1 << (slot % 32)) != 0
    }

    /// Per-thread insertion: probe via double hashing, claim the first free
    /// ticket, then plainly write the pair ("one atomic operation and a
    /// regular memory write").
    fn insert_one(&self, key: u32, value: u32, c: &mut PerfCounters) -> Result<(), ()> {
        let size = self.slots.len();
        let mut pos = self.start(key);
        let step = self.step(key);
        for _ in 0..self.max_probes {
            if !self.ticket_set(pos, c) && self.claim_ticket(pos, c) {
                c.sector_writes += 1;
                self.slots[pos].store(pack_pair(key, value), Ordering::Release);
                return Ok(());
            }
            // Lost the ticket race: fall through and keep probing.
            pos = (pos + step) % size;
        }
        Err(())
    }

    /// Bulk build, one element per thread.
    pub fn bulk_build(
        &self,
        pairs: &[(u32, u32)],
        grid: &Grid,
    ) -> Result<LaunchReport, &'static str> {
        assert!(pairs.len() <= self.slots.len(), "over capacity");
        let failed = std::sync::atomic::AtomicUsize::new(0);
        let mut items = pairs.to_vec();
        let report = grid.launch(&mut items, |ctx, chunk| {
            for &mut (k, v) in chunk {
                if self.insert_one(k, v, &mut ctx.counters).is_err() {
                    failed.fetch_add(1, Ordering::Relaxed);
                }
                ctx.counters.ops += 1;
            }
        });
        if failed.load(Ordering::Acquire) == 0 {
            Ok(report)
        } else {
            Err("stadium probe budget exhausted")
        }
    }

    /// Searches one key: per probe, one ticket-board read + (when the
    /// ticket is set) one table read — the "at least two memory reads".
    ///
    /// Because insertion writes the pair *after* the ticket (two separate
    /// plain accesses), a concurrent reader can observe a claimed ticket
    /// with the pair still empty; we treat that as "keep probing", which is
    /// also what the original's two-phase (build, then search) usage model
    /// guarantees never happens.
    pub fn search_one(&self, key: u32, c: &mut PerfCounters) -> Option<u32> {
        let size = self.slots.len();
        let mut pos = self.start(key);
        let step = self.step(key);
        for _ in 0..self.max_probes {
            if !self.ticket_set(pos, c) {
                return None; // unclaimed ticket terminates the probe chain
            }
            c.sector_reads += 1;
            let slot = self.slots[pos].load(Ordering::Acquire);
            if slot != EMPTY_SLOT {
                let (k, v) = unpack_pair(slot);
                if k == key {
                    return Some(v);
                }
            }
            pos = (pos + step) % size;
        }
        None
    }

    /// Bulk search, one query per thread.
    pub fn bulk_search(&self, keys: &[u32], grid: &Grid) -> (Vec<Option<u32>>, LaunchReport) {
        let mut items: Vec<(u32, Option<u32>)> = keys.iter().map(|&k| (k, None)).collect();
        let report = grid.launch(&mut items, |ctx, chunk| {
            for (k, out) in chunk.iter_mut() {
                *out = self.search_one(*k, &mut ctx.counters);
                ctx.counters.ops += 1;
            }
        });
        (items.into_iter().map(|(_, r)| r).collect(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_keys(n: u32) -> Vec<u32> {
        (0..n)
            .map(|mut x| {
                x ^= x >> 16;
                x = x.wrapping_mul(0x7feb_352d);
                x ^= x >> 15;
                x.wrapping_mul(0x846c_a68b) & 0x7FFF_FFFF
            })
            .collect()
    }

    #[test]
    fn build_and_search_roundtrip() {
        let grid = Grid::new(4);
        let keys = mixed_keys(10_000);
        let pairs: Vec<(u32, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        let t = StadiumHash::new(pairs.len(), 0.6, 11);
        t.bulk_build(&pairs, &grid).expect("build");
        assert_eq!(t.len(), pairs.len());
        let (res, _) = t.bulk_search(&keys, &grid);
        for (i, r) in res.iter().enumerate() {
            assert_eq!(*r, Some(i as u32), "key {}", keys[i]);
        }
    }

    #[test]
    fn misses_terminate_at_unclaimed_tickets() {
        let grid = Grid::new(2);
        let keys = mixed_keys(4_000);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, 1)).collect();
        let t = StadiumHash::new(pairs.len(), 0.5, 3);
        t.bulk_build(&pairs, &grid).unwrap();
        let absent: Vec<u32> = (0..4_000u32).map(|k| k | 0x4000_0000).collect();
        let (res, rep) = t.bulk_search(&absent, &grid);
        let present: std::collections::HashSet<u32> = keys.into_iter().collect();
        for (q, r) in absent.iter().zip(&res) {
            if !present.contains(q) {
                assert_eq!(*r, None);
            }
        }
        // At 50 % load a miss costs ~2 probes = ~2 board reads + ~1 table
        // read: the "at least two memory reads" signature.
        let per_miss = rep.counters.sector_reads as f64 / absent.len() as f64;
        assert!(per_miss >= 2.0, "reads/miss = {per_miss}");
    }

    #[test]
    fn insertion_cost_is_one_atomic_plus_one_write() {
        let grid = Grid::sequential();
        let keys = mixed_keys(2_000);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k)).collect();
        let t = StadiumHash::new(pairs.len(), 0.2, 5);
        let report = t.bulk_build(&pairs, &grid).unwrap();
        let atomics = report.counters.atomics as f64 / pairs.len() as f64;
        let writes = report.counters.sector_writes as f64 / pairs.len() as f64;
        assert!((1.0..1.3).contains(&atomics), "atomics/insert = {atomics}");
        assert!((writes - 1.0).abs() < 1e-9, "writes/insert = {writes}");
    }

    #[test]
    fn survives_high_load() {
        let grid = Grid::new(4);
        let keys = mixed_keys(20_000);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k)).collect();
        let t = StadiumHash::new(pairs.len(), 0.9, 1);
        t.bulk_build(&pairs, &grid).expect("stadium at 90%");
        assert_eq!(t.len(), pairs.len());
        let (res, _) = t.bulk_search(&keys, &grid);
        assert!(res.iter().all(|r| r.is_some()));
    }

    #[test]
    fn ticket_board_is_compact() {
        let t = StadiumHash::new(100_000, 0.6, 2);
        // One bit per slot: board ≈ table/64.
        assert!(t.ticket_board_bytes() * 32 <= t.device_bytes());
    }

    #[test]
    fn concurrent_build_no_lost_elements() {
        let grid = Grid::new(8);
        let _chaos = simt::ChaosGuard::new(0.05);
        let keys = mixed_keys(30_000);
        let pairs: Vec<(u32, u32)> = keys.iter().map(|&k| (k, k ^ 5)).collect();
        let t = StadiumHash::new(pairs.len(), 0.8, 77);
        t.bulk_build(&pairs, &grid).expect("build");
        assert_eq!(t.len(), pairs.len());
        let (res, _) = t.bulk_search(&keys, &grid);
        assert!(res.iter().all(|r| r.is_some()));
    }
}
