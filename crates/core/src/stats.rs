//! Host-side statistics and structural audits of a slab hash.
//!
//! Memory utilization — the x-axis of the paper's Fig. 4 — is defined in
//! §III-C as the bytes of stored data over the total bytes of slabs in use
//! (base + chained, including pointers and empty slots). β, the average slab
//! count, is n/(M·B).

use std::collections::HashSet;

use simt::telemetry::{BucketStat, Heatmap, Trace};
use simt::WarpCtx;
use slab_alloc::{is_allocated_ptr, SlabAllocator, BASE_SLAB, EMPTY_PTR};

use crate::entry::{EntryLayout, ADDRESS_LANE, AUX_LANE, DELETED_KEY, EMPTY_KEY};
use crate::hash_table::SlabHash;

/// Summary of a structural audit (see [`SlabHash::audit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Live (non-empty, non-tombstoned) elements found.
    pub live_elements: u64,
    /// Tombstoned slots found.
    pub tombstones: u64,
    /// Chained slabs reachable from bucket heads.
    pub chained_slabs: u64,
    /// Slabs the allocator reports as handed out. Equal to
    /// `chained_slabs` iff nothing leaked (every allocation is reachable).
    pub allocator_slabs: u64,
    /// Bytes the allocator has committed
    /// ([`SlabAllocator::committed_bytes`]): every materialized slab, handed
    /// out or not, with bitmaps. The memory the chains actually
    /// cost, where `allocator_slabs` counts only what they use.
    pub committed_bytes: u64,
    /// Longest bucket chain (in slabs, counting the base slab).
    pub max_chain: usize,
    /// Double frees the allocator refused (host-side total).
    pub double_frees: u64,
    /// Per-bucket occupancy observed during the walk, in bucket order.
    /// Feeds [`SlabHash::contention_heatmap`].
    pub bucket_stats: Vec<BucketStat>,
    /// Lane census by chain depth: entry `d` sums every bucket's slab at
    /// depth `d` (0 is the base slab), so its length is `max_chain`.
    pub lanes_by_depth: Vec<LaneCensus>,
}

/// The data lanes of every bucket's slab at one chain depth (see
/// [`AuditReport::lanes_by_depth`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCensus {
    /// Slabs at this depth: one per bucket whose chain reaches it.
    pub slabs: u64,
    /// Lanes holding a live element.
    pub live: u64,
    /// Tombstoned lanes.
    pub tombstones: u64,
    /// Empty lanes.
    pub empty: u64,
}

impl AuditReport {
    /// True when every allocated slab is reachable from some bucket.
    pub fn no_leaks(&self) -> bool {
        self.chained_slabs == self.allocator_slabs
    }

    /// Empty slots found: the census's empty lanes summed over depths.
    pub fn empty_lanes(&self) -> u64 {
        self.lanes_by_depth.iter().map(|c| c.empty).sum()
    }

    /// Always true: slabs carry no fingerprint tags (DESIGN.md §16). Kept
    /// because the benchmark's kernel audit calls it.
    pub fn tags_consistent(&self) -> bool {
        true
    }
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// Walks the chain of `bucket`, invoking `f` with each slab's pointer
    /// (`BASE_SLAB` first) and contents. Host-side; transaction counts go to
    /// a scratch context.
    pub(crate) fn walk_bucket(&self, bucket: u32, mut f: impl FnMut(u32, &[u32; 32])) {
        // Pin the epoch so no compaction pass rewrites the chain under this
        // walk.
        let _pin = self.epoch_pin();
        let mut ctx = WarpCtx::for_test(usize::MAX);
        let mut ptr = BASE_SLAB;
        // Cycle guard: a well-formed chain cannot exceed every slab in
        // existence.
        let max_steps = self.allocator().allocated_slabs() + 2;
        for _ in 0..max_steps {
            let data = self.read_slab(bucket, ptr, &mut ctx);
            f(ptr, &data);
            let next = data[ADDRESS_LANE];
            if next == EMPTY_PTR {
                return;
            }
            ptr = next;
        }
        panic!("cycle detected in bucket {bucket} chain");
    }

    /// The chained slab pointers of `bucket` (excluding the base slab).
    pub fn bucket_chain(&self, bucket: u32) -> Vec<u32> {
        let mut chain = Vec::new();
        self.walk_bucket(bucket, |ptr, _| {
            if ptr != BASE_SLAB {
                chain.push(ptr);
            }
        });
        chain
    }

    /// Slabs used by `bucket`, counting its base slab.
    pub fn bucket_slab_count(&self, bucket: u32) -> usize {
        1 + self.bucket_chain(bucket).len()
    }

    /// Live elements stored in `bucket`.
    pub fn bucket_len(&self, bucket: u32) -> usize {
        let mut n = 0;
        self.walk_bucket(bucket, |_, data| {
            n += live_keys_in_slab::<L>(data);
        });
        n
    }

    /// Total slabs in use: B base slabs plus every chained slab.
    pub fn total_slabs(&self) -> u64 {
        self.num_buckets() as u64 + self.allocator().allocated_slabs()
    }

    /// Live elements in the whole table (full scan).
    pub fn len(&self) -> usize {
        (0..self.num_buckets())
            .map(|b| self.bucket_len(b))
            .sum()
    }

    /// True when no live element is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory utilization per §III-C: stored bytes over total slab bytes.
    pub fn memory_utilization(&self) -> f64 {
        let stored = self.len() as f64 * L::ELEM_BYTES as f64;
        stored / (self.total_slabs() as f64 * 128.0)
    }

    /// The paper's average slab count β = n/(M·B).
    pub fn beta(&self) -> f64 {
        self.len() as f64 / (L::ELEMS_PER_SLAB as f64 * self.num_buckets() as f64)
    }

    /// Mean slabs per bucket, measured by traversal (≥ 1 by definition).
    pub fn mean_slabs_per_bucket(&self) -> f64 {
        let total: usize = (0..self.num_buckets())
            .map(|b| self.bucket_slab_count(b))
            .sum();
        total as f64 / self.num_buckets() as f64
    }

    /// Every live (key, value) element (key-only layout: value = key).
    /// Traversal order within buckets, bucket-major.
    pub fn collect_elements(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for b in 0..self.num_buckets() {
            self.walk_bucket(b, |_, data| collect_live::<L>(data, &mut out));
        }
        out
    }

    /// Structural audit: chains terminate, every chained pointer is a real
    /// allocation, no slab is linked twice, aux lanes are untouched.
    ///
    /// # Errors
    /// Returns a description of the first structural violation found.
    pub fn audit(&self) -> Result<AuditReport, String> {
        let mut seen = HashSet::new();
        let mut live = 0u64;
        let mut tombstones = 0u64;
        let mut lanes_by_depth: Vec<LaneCensus> = Vec::new();
        let mut chained = 0u64;
        let mut max_chain = 0usize;
        let mut bucket_stats = Vec::with_capacity(self.num_buckets() as usize);
        for b in 0..self.num_buckets() {
            let mut chain_len = 0usize;
            let mut violation = None;
            let mut bucket_live = 0u32;
            let mut bucket_tombstones = 0u32;
            self.walk_bucket(b, |ptr, data| {
                if lanes_by_depth.len() == chain_len {
                    lanes_by_depth.push(LaneCensus::default());
                }
                let census = &mut lanes_by_depth[chain_len];
                census.slabs += 1;
                chain_len += 1;
                if ptr != BASE_SLAB {
                    chained += 1;
                    if !is_allocated_ptr(ptr) {
                        violation = Some(format!("bucket {b}: sentinel pointer {ptr:#x} in chain"));
                    }
                    if !seen.insert(ptr) {
                        violation = Some(format!("bucket {b}: slab {ptr:#x} linked twice"));
                    }
                }
                // No slab, base or chained, carries aux metadata.
                if data[AUX_LANE] != EMPTY_KEY {
                    violation = Some(format!(
                        "bucket {b}: slab {ptr:#x} aux lane corrupted ({:#x})",
                        data[AUX_LANE]
                    ));
                }
                for e in 0..L::ELEMS_PER_SLAB as usize {
                    match data[L::key_lane(e)] {
                        EMPTY_KEY => census.empty += 1,
                        DELETED_KEY => {
                            census.tombstones += 1;
                            bucket_tombstones += 1;
                        }
                        _ => {
                            census.live += 1;
                            bucket_live += 1;
                        }
                    }
                }
            });
            live += u64::from(bucket_live);
            tombstones += u64::from(bucket_tombstones);
            if let Some(v) = violation {
                return Err(v);
            }
            max_chain = max_chain.max(chain_len);
            bucket_stats.push(BucketStat {
                bucket: b,
                live: bucket_live,
                tombstones: bucket_tombstones,
                chain_slabs: chain_len as u32,
            });
        }
        Ok(AuditReport {
            live_elements: live,
            tombstones,
            chained_slabs: chained,
            allocator_slabs: self.allocator().allocated_slabs(),
            committed_bytes: self.allocator().committed_bytes(),
            max_chain,
            double_frees: self.allocator().double_frees(),
            bucket_stats,
            lanes_by_depth,
        })
    }

    /// Builds a per-bucket contention heatmap from an audit's structural
    /// occupancy, optionally attributing each bucket's observed CAS failures
    /// from a launch [`Trace`] recorded against this table.
    ///
    /// The audit contributes the static component (live keys, tombstones,
    /// chain depth); the trace contributes the dynamic one (retries per
    /// bucket). See DESIGN.md §9 for the scoring formula.
    pub fn contention_heatmap(&self, audit: &AuditReport, trace: Option<&Trace>) -> Heatmap {
        let mut heatmap = Heatmap::new(&audit.bucket_stats);
        if let Some(trace) = trace {
            heatmap.attribute_cas_failures(&trace.cas_failures_by_bucket());
        }
        heatmap
    }
}

/// Counts live keys in one slab's lanes.
pub(crate) fn live_keys_in_slab<L: EntryLayout>(data: &[u32; 32]) -> usize {
    (0..L::ELEMS_PER_SLAB as usize)
        .filter(|&e| {
            let k = data[L::key_lane(e)];
            k != EMPTY_KEY && k != DELETED_KEY
        })
        .count()
}

/// Appends every live (key, value) element of one slab to `out`.
pub(crate) fn collect_live<L: EntryLayout>(data: &[u32; 32], out: &mut Vec<(u32, u32)>) {
    for e in 0..L::ELEMS_PER_SLAB as usize {
        let lane = L::key_lane(e);
        let k = data[lane];
        if k != EMPTY_KEY && k != DELETED_KEY {
            out.push((k, data[L::value_lane(lane)]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeyOnly, KeyValue};
    use crate::hash_table::{SlabHash, SlabHashConfig};
    use crate::WarpDriver;
    use simt::Grid;

    #[test]
    fn len_and_utilization_track_contents() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.memory_utilization(), 0.0);
        let mut w = WarpDriver::new(&t);
        for k in 0..30 {
            w.replace(k, k);
        }
        assert_eq!(t.len(), 30);
        // 30 pairs × 8 B over 4+chained slabs × 128 B.
        let expected = 240.0 / (t.total_slabs() as f64 * 128.0);
        assert!((t.memory_utilization() - expected).abs() < 1e-12);
    }

    #[test]
    fn beta_matches_definition() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(10));
        let mut w = WarpDriver::new(&t);
        for k in 0..150 {
            w.replace(k, 0);
        }
        // beta = n / (M*B) = 150 / (15*10) = 1.0
        assert!((t.beta() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collect_elements_returns_exactly_live_set() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
        let mut w = WarpDriver::new(&t);
        for k in 0..100 {
            w.replace(k, k * 2);
        }
        for k in 0..50 {
            w.delete(k);
        }
        let mut got = t.collect_elements();
        got.sort_unstable();
        let expected: Vec<(u32, u32)> = (50..100).map(|k| (k, k * 2)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn audit_reports_tombstones_and_chains() {
        let t = SlabHash::<KeyOnly>::new(SlabHashConfig::with_buckets(2));
        let mut w = WarpDriver::new(&t);
        for k in 0..100 {
            w.replace(k, 0);
        }
        for k in 0..10 {
            w.delete(k);
        }
        let a = t.audit().unwrap();
        assert_eq!(a.live_elements, 90);
        assert_eq!(a.tombstones, 10);
        assert!(a.no_leaks());
        assert!(a.max_chain >= 2);
        // The census partitions every data lane of every slab by depth.
        assert_eq!(a.lanes_by_depth.len(), a.max_chain);
        assert_eq!(a.lanes_by_depth[0].slabs, 2, "one base slab per bucket");
        let slabs: u64 = a.lanes_by_depth.iter().map(|c| c.slabs).sum();
        assert_eq!(slabs, 2 + a.chained_slabs);
        let live: u64 = a.lanes_by_depth.iter().map(|c| c.live).sum();
        let dead: u64 = a.lanes_by_depth.iter().map(|c| c.tombstones).sum();
        assert_eq!((live, dead), (90, 10));
        assert_eq!(live + dead + a.empty_lanes(), slabs * u64::from(KeyOnly::ELEMS_PER_SLAB));
    }

    #[test]
    fn audit_rejects_a_written_base_slab_aux_lane() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2));
        let mut w = WarpDriver::new(&t);
        for k in 0..40 {
            w.replace(k, k);
        }
        t.audit().unwrap();
        let mut ctx = simt::WarpCtx::for_test(0);
        let base = t.slab_loc(1, BASE_SLAB, &mut ctx);
        base.storage
            .write_lane(base.slab, AUX_LANE, 7, &mut ctx.counters);
        let err = t
            .audit()
            .expect_err("a non-EMPTY base aux lane is a violation");
        assert!(err.contains("aux lane"), "{err}");
    }

    #[test]
    fn mean_slabs_per_bucket_at_least_one() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(64));
        assert_eq!(t.mean_slabs_per_bucket(), 1.0);
        let mut w = WarpDriver::new(&t);
        for k in 0..2000 {
            w.replace(k, 0);
        }
        assert!(t.mean_slabs_per_bucket() > 1.0);
    }

    #[test]
    fn bucket_len_sums_to_len() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(16));
        let grid = Grid::new(4);
        let pairs: Vec<(u32, u32)> = (0..1234).map(|k| (k, k)).collect();
        t.bulk_build(&pairs, &grid);
        let sum: usize = (0..16).map(|b| t.bucket_len(b)).sum();
        assert_eq!(sum, t.len());
        assert_eq!(sum, 1234);
    }

    #[test]
    fn device_bytes_grows_with_chains() {
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(2));
        let base = t.device_bytes();
        let mut w = WarpDriver::new(&t);
        for k in 0..100 {
            w.replace(k, 0);
        }
        assert!(t.device_bytes() > base);
        assert_eq!(
            t.device_bytes(),
            (2 + t.allocator().allocated_slabs()) * 128
        );
    }
}
