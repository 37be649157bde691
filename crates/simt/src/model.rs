//! Roofline timing model for the paper's evaluation GPU (Tesla K40c).
//!
//! The simulation counts, exactly, the memory transactions / atomics / warp
//! rounds every algorithm issues ([`PerfCounters`]). This module converts a
//! counter block into an *estimated* execution time on the paper's hardware
//! by treating the GPU as a set of independently saturable resources and
//! charging the transaction stream against each:
//!
//! * **coalesced bandwidth** — 128 B slab transactions against achievable
//!   DRAM bandwidth;
//! * **scattered bandwidth** — 32 B sector transactions against the (much
//!   lower) effective random-access bandwidth;
//! * **atomic throughput** — RMWs against the sustained device-wide atomic
//!   rate;
//! * **issue throughput** — warp-cooperative rounds and divergent per-thread
//!   steps against the aggregate warp-instruction issue rate.
//!
//! The estimate is `max` over the resources (a classic roofline). Two
//! constants (`atomic_rate`, `round_rate`) are calibrated once so the slab
//! hash's best configuration reproduces the paper's peaks (512 M updates/s,
//! 937 M queries/s); every other data point then follows from counted work.
//! `EXPERIMENTS.md` documents the calibration and compares shapes, not
//! absolute numbers.

use crate::counters::PerfCounters;

/// Hardware/calibration parameters for the roofline estimate.
#[derive(Debug, Clone, Copy)]
pub struct GpuModel {
    /// Display name for reports.
    pub name: &'static str,
    /// Achievable bandwidth for warp-coalesced 128 B transactions (bytes/s).
    /// K40c peak is 288 GB/s; ~85 % is achievable in streaming kernels.
    pub coalesced_bw: f64,
    /// Effective bandwidth for scattered 32 B sector traffic (bytes/s).
    /// Random sector access on Kepler lands far below peak.
    pub scattered_bw: f64,
    /// Device-wide sustained rate for compare-class atomics (64-bit
    /// `atomicCAS`) to distinct addresses, ops/s.
    pub atomic_rate: f64,
    /// Device-wide sustained rate for exchange-class atomics
    /// (`atomicExch`/`atomicAdd`, no compare/retry), ops/s. Measurably
    /// higher than CAS on Kepler — this is what lets cuckoo's bulk build
    /// outrun the slab hash's CAS-based insertion (paper §VI-A's 1.33×).
    pub exchange_rate: f64,
    /// Aggregate rate at which the device retires warp-cooperative rounds
    /// (ballot + shuffle + branch sequences), ops/s.
    pub round_rate: f64,
    /// Rate for serialized divergent per-thread steps (ops/s). Divergent
    /// lanes issue one at a time, so this is roughly `round_rate`.
    pub divergent_rate: f64,
    /// Rate of shared-memory address decodes (ops/s). Shared memory is fast
    /// but the decode sits on every lookup's critical path; calibrated so the
    /// regular SlabAlloc loses up to ~25 % of search throughput to it (§V).
    pub shared_lookup_rate: f64,
    /// Cost of one acquisition of a device-wide serializing heap lock, in
    /// seconds. Taken from the paper's CUDA-malloc measurement (1 M × 128 B
    /// allocations in 1.2 s ⇒ ~1.2 µs per serialized allocation).
    pub lock_cost_s: f64,
    /// L2 cache size in bytes; working sets below this get boosted rates.
    pub l2_bytes: u64,
    /// Multiplier applied to `scattered_bw` and `exchange_rate` when the
    /// working set fits in L2 (fire-and-forget atomics and scattered reads
    /// resolve in L2 on Kepler — "most of the atomic operations can be done
    /// in cache level", §VI-A). Compare-class atomics do *not* benefit:
    /// their read–compare–conditional-write round trip is latency-bound
    /// even when the line is L2-resident.
    pub l2_boost: f64,
}

impl GpuModel {
    /// The paper's evaluation GPU: Tesla K40c (Kepler, ECC off, 12 GB GDDR5,
    /// 288 GB/s peak, 15 SMX @ 745 MHz, 1.5 MB L2).
    pub fn tesla_k40c() -> Self {
        Self {
            name: "Tesla K40c (modeled)",
            coalesced_bw: 245e9,
            scattered_bw: 55e9,
            atomic_rate: 0.55e9,
            exchange_rate: 0.78e9,
            round_rate: 1.0e9,
            divergent_rate: 1.15e9,
            shared_lookup_rate: 3.5e9,
            lock_cost_s: 1.2e-6,
            l2_bytes: 1_536 * 1024,
            l2_boost: 2.5,
        }
    }

    /// The GTX 970 used by the GFSL comparison in §VI-C (224 GB/s).
    pub fn gtx_970() -> Self {
        Self {
            name: "GeForce GTX 970 (modeled)",
            coalesced_bw: 190e9,
            scattered_bw: 62e9,
            atomic_rate: 0.7e9,
            exchange_rate: 0.95e9,
            round_rate: 1.3e9,
            divergent_rate: 1.3e9,
            shared_lookup_rate: 4.0e9,
            lock_cost_s: 1.0e-6,
            l2_bytes: 1_792 * 1024,
            l2_boost: 2.5,
        }
    }

    /// Estimates device time for a counted transaction stream.
    ///
    /// `working_set_bytes` is the size of the memory the kernel touches
    /// repeatedly (the table itself); it selects the L2-resident boost the
    /// way a real cache would.
    pub fn estimate(&self, c: &PerfCounters, working_set_bytes: u64) -> GpuEstimate {
        let in_l2 = working_set_bytes > 0 && working_set_bytes <= self.l2_bytes;
        let boost = if in_l2 { self.l2_boost } else { 1.0 };

        let coalesced_bytes = c.slab_reads as f64 * 128.0;
        let scattered_bytes = (c.sector_reads + c.sector_writes) as f64 * 32.0;

        let t_coalesced = coalesced_bytes / self.coalesced_bw;
        let t_scattered = scattered_bytes / (self.scattered_bw * boost);
        let t_atomic = c.atomics as f64 / self.atomic_rate
            + c.atomic_exchanges as f64 / (self.exchange_rate * boost);
        let t_issue =
            c.warp_rounds as f64 / self.round_rate + c.divergent_steps as f64 / self.divergent_rate;
        let t_shared = c.shared_lookups as f64 / self.shared_lookup_rate;
        let t_lock = c.lock_acquisitions as f64 * self.lock_cost_s;

        // The roofline max keeps its historical five components: shared-
        // memory decodes sit on the issue pipeline's critical path, so they
        // fold into "issue" for bounding purposes. The breakdown below
        // splits them back out for attribution.
        let components = [
            ("coalesced-bw", t_coalesced),
            ("scattered-bw", t_scattered),
            ("atomics", t_atomic),
            ("issue", t_issue + t_shared),
            ("serial-lock", t_lock),
        ];
        let (bound, time_s) = components
            .iter()
            .copied()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();

        GpuEstimate {
            time_s,
            bound,
            ops: c.ops,
            in_l2,
            breakdown: ResourceBreakdown {
                coalesced_s: t_coalesced,
                scattered_s: t_scattered,
                atomic_s: t_atomic,
                issue_s: t_issue,
                shared_s: t_shared,
                lock_s: t_lock,
            },
        }
    }

    /// Convenience: modeled throughput in operations per second.
    pub fn ops_per_sec(&self, c: &PerfCounters, working_set_bytes: u64) -> f64 {
        self.estimate(c, working_set_bytes).mops() * 1e6
    }
}

/// Per-resource time demands behind a roofline estimate.
///
/// Each field is the time the counted transaction stream would need if the
/// named resource were the only constraint. The roofline takes the max;
/// the breakdown keeps all six so reports can attribute *where* the
/// modeled time goes. [`ResourceBreakdown::fractions`] normalizes them to
/// shares of the total demand (summing to 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceBreakdown {
    /// Coalesced 128 B slab traffic vs. streaming bandwidth.
    pub coalesced_s: f64,
    /// Scattered 32 B sector traffic vs. random-access bandwidth.
    pub scattered_s: f64,
    /// Compare- and exchange-class atomics vs. their sustained rates.
    pub atomic_s: f64,
    /// Warp-cooperative rounds and divergent steps vs. issue throughput.
    pub issue_s: f64,
    /// Shared-memory address decodes (billed under "issue" in the roofline
    /// max, split out here).
    pub shared_s: f64,
    /// Serialized device-wide lock acquisitions.
    pub lock_s: f64,
}

impl ResourceBreakdown {
    /// The six `(name, seconds)` components, in fixed report order.
    pub fn times(&self) -> [(&'static str, f64); 6] {
        [
            ("coalesced", self.coalesced_s),
            ("scattered", self.scattered_s),
            ("atomic", self.atomic_s),
            ("issue", self.issue_s),
            ("shared", self.shared_s),
            ("lock", self.lock_s),
        ]
    }

    /// Sum of all per-resource demands (≥ the roofline time, since the
    /// roofline takes the max, not the sum).
    pub fn total_demand(&self) -> f64 {
        self.times().iter().map(|(_, t)| t).sum()
    }

    /// Each resource's share of the total demand, in [`Self::times`] order.
    /// Sums to exactly 1 when any work was counted; all zeros otherwise.
    pub fn fractions(&self) -> [(&'static str, f64); 6] {
        let total = self.total_demand();
        let mut out = self.times();
        for (_, t) in out.iter_mut() {
            *t = if total > 0.0 { *t / total } else { 0.0 };
        }
        out
    }
}

/// Output of [`GpuModel::estimate`].
#[derive(Debug, Clone, Copy)]
pub struct GpuEstimate {
    /// Estimated device time in seconds.
    pub time_s: f64,
    /// Which resource bound the kernel ("coalesced-bw", "scattered-bw",
    /// "atomics" or "issue").
    pub bound: &'static str,
    /// Operations retired, copied from the counters.
    pub ops: u64,
    /// Whether the L2-resident boost applied.
    pub in_l2: bool,
    /// Full per-resource time attribution behind the roofline max.
    pub breakdown: ResourceBreakdown,
}

impl GpuEstimate {
    /// Modeled throughput in millions of operations per second — the unit
    /// every figure in the paper reports.
    pub fn mops(&self) -> f64 {
        if self.time_s <= 0.0 {
            0.0
        } else {
            self.ops as f64 / self.time_s / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GpuModel {
        GpuModel::tesla_k40c()
    }

    /// Calibration check: a search-like stream (one coalesced slab read and
    /// ~1.05 warp rounds per query, no atomics) must land near the paper's
    /// 937 M queries/s peak.
    #[test]
    fn search_peak_calibration() {
        let n = 1u64 << 22;
        let c = PerfCounters {
            ops: n,
            slab_reads: n + n / 20,
            warp_rounds: n + n / 20,
            ..Default::default()
        };
        // 4M queries over a ~33 MB table: not L2 resident.
        let est = model().estimate(&c, 64 << 20);
        let mops = est.mops();
        assert!(
            (800.0..1200.0).contains(&mops),
            "modeled search peak {mops} M q/s out of range"
        );
    }

    /// Calibration check: an insert-like stream (slab read + one 64-bit CAS
    /// per insert) must land near the paper's 512 M updates/s peak.
    #[test]
    fn insert_peak_calibration() {
        let n = 1u64 << 22;
        let c = PerfCounters {
            ops: n,
            slab_reads: n + n / 10,
            warp_rounds: n + n / 10,
            atomics: n,
            ..Default::default()
        };
        let est = model().estimate(&c, 64 << 20);
        let mops = est.mops();
        assert!(
            (400.0..650.0).contains(&mops),
            "modeled insert peak {mops} M ops/s out of range"
        );
        assert_eq!(est.bound, "atomics");
    }

    #[test]
    fn more_slabs_per_query_is_slower() {
        let n = 1u64 << 20;
        let one_slab = PerfCounters {
            ops: n,
            slab_reads: n,
            warp_rounds: n,
            ..Default::default()
        };
        let two_slabs = PerfCounters {
            ops: n,
            slab_reads: 2 * n,
            warp_rounds: 2 * n,
            ..Default::default()
        };
        let m = model();
        assert!(m.estimate(&one_slab, u64::MAX).time_s < m.estimate(&two_slabs, u64::MAX).time_s);
    }

    #[test]
    fn l2_boost_applies_only_to_small_working_sets() {
        let c = PerfCounters {
            ops: 1 << 20,
            atomic_exchanges: 1 << 20,
            ..Default::default()
        };
        let m = model();
        let small = m.estimate(&c, 256 * 1024);
        let large = m.estimate(&c, 64 << 20);
        assert!(small.in_l2 && !large.in_l2);
        assert!(small.time_s < large.time_s);
    }

    #[test]
    fn cas_class_atomics_do_not_benefit_from_l2() {
        let c = PerfCounters {
            ops: 1 << 20,
            atomics: 1 << 20,
            ..Default::default()
        };
        let m = model();
        let small = m.estimate(&c, 256 * 1024);
        let large = m.estimate(&c, 64 << 20);
        assert_eq!(small.time_s, large.time_s);
    }

    #[test]
    fn exchange_class_is_cheaper_than_cas_class() {
        let n = 1u64 << 20;
        let cas = PerfCounters {
            ops: n,
            atomics: n,
            ..Default::default()
        };
        let exch = PerfCounters {
            ops: n,
            atomic_exchanges: n,
            ..Default::default()
        };
        let m = model();
        assert!(m.estimate(&exch, u64::MAX).time_s < m.estimate(&cas, u64::MAX).time_s);
    }

    #[test]
    fn divergent_steps_dominate_per_thread_traversal() {
        // Misra-style traversal: every lane walks its own chain serially.
        let n = 1u64 << 20;
        let misra = PerfCounters {
            ops: n,
            sector_reads: 3 * n,
            divergent_steps: 3 * n,
            ..Default::default()
        };
        let slab = PerfCounters {
            ops: n,
            slab_reads: n,
            warp_rounds: n,
            ..Default::default()
        };
        let m = model();
        let t_misra = m.estimate(&misra, u64::MAX).time_s;
        let t_slab = m.estimate(&slab, u64::MAX).time_s;
        assert!(
            t_misra > 2.0 * t_slab,
            "per-thread traversal should be much slower: {t_misra} vs {t_slab}"
        );
    }

    #[test]
    fn shared_lookups_tax_issue_bound_searches() {
        // A search stream that is issue-bound: adding one shared-memory
        // decode per query (regular SlabAlloc vs -light) must cost roughly
        // 25 % throughput, the paper's §V observation.
        let n = 1u64 << 22;
        let light = PerfCounters {
            ops: n,
            slab_reads: n,
            warp_rounds: n,
            ..Default::default()
        };
        let regular = PerfCounters {
            shared_lookups: n,
            ..light
        };
        let m = model();
        let t_light = m.estimate(&light, u64::MAX).time_s;
        let t_regular = m.estimate(&regular, u64::MAX).time_s;
        let overhead = t_regular / t_light - 1.0;
        assert!(
            (0.15..0.45).contains(&overhead),
            "shared-lookup overhead {overhead} outside the paper's ~25 % band"
        );
    }

    #[test]
    fn serialized_lock_dominates_malloc_baseline() {
        // 1 M allocations through a device-wide lock ⇒ ~1.2 s (paper's CUDA
        // malloc measurement: 0.8 M slabs/s).
        let c = PerfCounters {
            ops: 1_000_000,
            lock_acquisitions: 1_000_000,
            atomics: 4_000_000,
            ..Default::default()
        };
        let est = model().estimate(&c, u64::MAX);
        assert_eq!(est.bound, "serial-lock");
        let mops = est.mops();
        assert!(
            (0.5..1.2).contains(&mops),
            "modeled CUDA-malloc rate {mops} M/s should be ~0.8 M/s"
        );
    }

    #[test]
    fn zero_counters_zero_time() {
        let est = model().estimate(&PerfCounters::default(), 0);
        assert_eq!(est.time_s, 0.0);
        assert_eq!(est.mops(), 0.0);
        assert_eq!(est.breakdown.total_demand(), 0.0);
        assert!(est.breakdown.fractions().iter().all(|&(_, f)| f == 0.0));
    }

    #[test]
    fn breakdown_fractions_sum_to_one_and_rank_sensibly() {
        let n = 1u64 << 22;
        let c = PerfCounters {
            ops: n,
            slab_reads: n,
            warp_rounds: n,
            atomics: n,
            shared_lookups: n,
            ..Default::default()
        };
        let est = model().estimate(&c, 64 << 20);
        let fractions = est.breakdown.fractions();
        let sum: f64 = fractions.iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-12, "fractions sum to {sum}");
        let get = |name: &str| {
            fractions
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, f)| f)
                .unwrap()
        };
        // CAS atomics are the slowest resource in this stream.
        assert!(get("atomic") > get("issue"));
        assert!(get("atomic") > get("coalesced"));
        assert!(get("shared") > 0.0 && get("scattered") == 0.0 && get("lock") == 0.0);
    }

    #[test]
    fn breakdown_is_consistent_with_roofline_max() {
        let n = 1u64 << 20;
        let c = PerfCounters {
            ops: n,
            slab_reads: n,
            warp_rounds: n,
            shared_lookups: n,
            atomics: n / 4,
            ..Default::default()
        };
        let est = model().estimate(&c, u64::MAX);
        let b = est.breakdown;
        // The roofline time is the max over the five bounding components,
        // with shared folded into issue.
        let bounding = [
            b.coalesced_s,
            b.scattered_s,
            b.atomic_s,
            b.issue_s + b.shared_s,
            b.lock_s,
        ];
        let max = bounding.iter().copied().fold(0.0f64, f64::max);
        assert!((est.time_s - max).abs() < 1e-18);
        assert!(b.total_demand() >= est.time_s);
    }
}
