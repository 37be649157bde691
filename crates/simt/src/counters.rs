//! Performance counters collected during simulated kernel execution.
//!
//! Every memory transaction the algorithms issue is counted with the
//! granularity GPUs bill them at: coalesced 128 B slab reads, scattered 32 B
//! sectors, and atomic RMWs. The counts feed the roofline model
//! ([`crate::model::GpuModel`]) that estimates what the same transaction
//! stream would cost on the paper's Tesla K40c; they are also invaluable in
//! tests (e.g. "an unsuccessful search at β=0.2 touches ~1.2 slabs").

/// Counter block. One instance lives in each [`crate::grid::WarpCtx`] (so
/// incrementing is a plain add on thread-local state) and blocks are merged
/// after a launch completes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PerfCounters {
    /// Warp-coalesced 128-byte slab reads (`ReadSlab()`).
    pub slab_reads: u64,
    /// Scattered 32-byte sector reads (per-thread probes: cuckoo, Misra,
    /// single-lane reads).
    pub sector_reads: u64,
    /// Scattered 32-byte sector writes.
    pub sector_writes: u64,
    /// Atomic compare-and-swap class RMWs (CAS / and / or) — the expensive
    /// class: a failed compare costs a full round-trip and a retry.
    pub atomics: u64,
    /// Atomic exchange/add class RMWs — cheaper on hardware (no compare, no
    /// retry loop); cuckoo hashing's eviction step lives here.
    pub atomic_exchanges: u64,
    /// Iterations of a warp's work-sharing loop (one round = one ballot +
    /// shuffle + branch sequence; proxies instruction-issue cost).
    pub warp_rounds: u64,
    /// Lane-scoped operations retired (inserts, deletes, searches, allocs —
    /// whatever the kernel counts as its unit of work).
    pub ops: u64,
    /// Dynamic slab allocations served.
    pub allocations: u64,
    /// Dynamic slab deallocations.
    pub deallocations: u64,
    /// Allocator resident-block changes (each costs one coalesced bitmap read).
    pub resident_changes: u64,
    /// CAS attempts that failed and were retried (contention measure).
    pub cas_failures: u64,
    /// Divergent per-thread traversal steps (per-thread baselines execute
    /// lanes serially within a warp; each serialized step is billed here).
    pub divergent_steps: u64,
    /// Shared-memory address decodes: the regular SlabAlloc stores each super
    /// block's 64-bit base pointer in shared memory, so every slab resolution
    /// costs one shared-memory lookup; SlabAlloc-light skips it (paper §V).
    pub shared_lookups: u64,
    /// Acquisitions of a device-wide serializing lock (only the CUDA-malloc
    /// baseline allocator uses one; billed at the paper's measured cost).
    pub lock_acquisitions: u64,
    /// Operations that burned through their bounded retry budget and were
    /// failed with `RetryBudgetExhausted` instead of spinning forever
    /// (livelock detector; normally 0).
    pub retry_exhaustions: u64,
    /// Deallocations of a slab that was not currently allocated, detected
    /// and refused by the allocator in all build profiles (normally 0; a
    /// nonzero count means a reclamation bug upstream).
    pub double_frees: u64,
    /// Requests refused by admission control (queue bounds, memory-pressure
    /// write shedding) instead of executed. Billed by the ingress broker,
    /// not by kernels.
    pub shed: u64,
    /// Requests that exceeded their deadline budget before completing and
    /// were answered with a timeout error. Billed by the ingress broker.
    pub timed_out: u64,
    /// Always 0: nothing in the workspace reads a per-slab tag vector any
    /// more (DESIGN.md §16). Kept because the benchmark's
    /// `slab.tag_reads_per_op` reads it.
    pub tag_reads: u64,
    /// Live elements a compaction (FLUSH) warp kept in its bucket. Billed
    /// only by the compaction kernel, which reports the sum as
    /// `FlushReport::elements_kept`.
    pub elements_kept: u64,
}

impl PerfCounters {
    /// Merges another counter block into this one.
    ///
    /// Implemented by exhaustively destructuring `other`: adding a counter
    /// field without accumulating it here is a compile error, not a
    /// silently-dropped statistic.
    #[inline]
    pub fn merge(&mut self, other: &PerfCounters) {
        let PerfCounters {
            slab_reads,
            sector_reads,
            sector_writes,
            atomics,
            atomic_exchanges,
            warp_rounds,
            ops,
            allocations,
            deallocations,
            resident_changes,
            cas_failures,
            divergent_steps,
            shared_lookups,
            lock_acquisitions,
            retry_exhaustions,
            double_frees,
            shed,
            timed_out,
            tag_reads,
            elements_kept,
        } = *other;
        self.slab_reads += slab_reads;
        self.sector_reads += sector_reads;
        self.sector_writes += sector_writes;
        self.atomics += atomics;
        self.atomic_exchanges += atomic_exchanges;
        self.warp_rounds += warp_rounds;
        self.ops += ops;
        self.allocations += allocations;
        self.deallocations += deallocations;
        self.resident_changes += resident_changes;
        self.cas_failures += cas_failures;
        self.divergent_steps += divergent_steps;
        self.shared_lookups += shared_lookups;
        self.lock_acquisitions += lock_acquisitions;
        self.retry_exhaustions += retry_exhaustions;
        self.double_frees += double_frees;
        self.shed += shed;
        self.timed_out += timed_out;
        self.tag_reads += tag_reads;
        self.elements_kept += elements_kept;
    }

    /// Total bytes moved through the memory system under the transaction
    /// accounting rules in DESIGN.md §1.
    #[inline]
    pub fn bytes_moved(&self) -> u64 {
        self.slab_reads * 128
            + (self.sector_reads + self.sector_writes + self.atomics + self.atomic_exchanges) * 32
    }

    /// Memory transactions of any size.
    #[inline]
    pub fn transactions(&self) -> u64 {
        self.slab_reads
            + self.sector_reads
            + self.sector_writes
            + self.atomics
            + self.atomic_exchanges
    }

    /// Average coalesced slab reads per retired operation.
    pub fn slab_reads_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.slab_reads as f64 / self.ops as f64
        }
    }

    /// Average atomics per retired operation.
    pub fn atomics_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.atomics as f64 / self.ops as f64
        }
    }
}

impl std::ops::Add for PerfCounters {
    type Output = PerfCounters;
    fn add(mut self, rhs: PerfCounters) -> PerfCounters {
        self.merge(&rhs);
        self
    }
}

impl std::iter::Sum for PerfCounters {
    fn sum<I: Iterator<Item = PerfCounters>>(iter: I) -> Self {
        let mut acc = PerfCounters::default();
        for c in iter {
            acc.merge(&c);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let a = PerfCounters {
            slab_reads: 1,
            sector_reads: 2,
            sector_writes: 3,
            atomics: 4,
            atomic_exchanges: 14,
            warp_rounds: 5,
            ops: 6,
            allocations: 7,
            deallocations: 8,
            resident_changes: 9,
            cas_failures: 10,
            divergent_steps: 11,
            shared_lookups: 12,
            lock_acquisitions: 13,
            retry_exhaustions: 15,
            double_frees: 16,
            shed: 17,
            timed_out: 18,
            tag_reads: 20,
            elements_kept: 21,
        };
        let doubled = a + a;
        // Exhaustive by construction: both the input literal above and this
        // expected literal name every field (no `..Default::default()`), so
        // adding a counter without extending this test fails to compile,
        // and the whole-struct equality checks every field's merge.
        let expected = PerfCounters {
            slab_reads: 2,
            sector_reads: 4,
            sector_writes: 6,
            atomics: 8,
            atomic_exchanges: 28,
            warp_rounds: 10,
            ops: 12,
            allocations: 14,
            deallocations: 16,
            resident_changes: 18,
            cas_failures: 20,
            divergent_steps: 22,
            shared_lookups: 24,
            lock_acquisitions: 26,
            retry_exhaustions: 30,
            double_frees: 32,
            shed: 34,
            timed_out: 36,
            tag_reads: 40,
            elements_kept: 42,
        };
        assert_eq!(doubled, expected);
    }

    #[test]
    fn bytes_moved_accounting() {
        let c = PerfCounters {
            slab_reads: 2,
            sector_reads: 1,
            sector_writes: 1,
            atomics: 1,
            ..Default::default()
        };
        assert_eq!(c.bytes_moved(), 2 * 128 + 3 * 32);
        assert_eq!(c.transactions(), 5);
    }

    #[test]
    fn per_op_rates_handle_zero_ops() {
        let c = PerfCounters::default();
        assert_eq!(c.slab_reads_per_op(), 0.0);
        let c = PerfCounters {
            ops: 4,
            slab_reads: 6,
            atomics: 2,
            ..Default::default()
        };
        assert!((c.slab_reads_per_op() - 1.5).abs() < 1e-12);
        assert!((c.atomics_per_op() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let blocks = vec![
            PerfCounters {
                ops: 1,
                ..Default::default()
            };
            5
        ];
        let total: PerfCounters = blocks.into_iter().sum();
        assert_eq!(total.ops, 5);
    }
}
