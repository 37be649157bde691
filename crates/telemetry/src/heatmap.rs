//! Per-bucket contention attribution: which buckets are hot, and why.
//!
//! A [`Heatmap`] fuses two sources: structural per-bucket statistics from a
//! table audit ([`BucketStat`]: live elements, tombstones, chain depth) and
//! behavioural CAS-retry attribution from a launch trace
//! ([`crate::Trace::cas_failures_by_bucket`]). Each bucket gets a scalar
//! *heat score*:
//!
//! ```text
//! score = cas_failures + tombstones + 16 · (chain_slabs − 1)
//! ```
//!
//! Chain depth dominates by design — every extra slab in a chain costs
//! another 128-byte coalesced read per probing round for every operation
//! that hashes there, whereas a tombstone merely pollutes one lane of a
//! scan and a CAS failure costs one retried atomic. The weights make one
//! extra chained slab comparable to sixteen retried CASes, roughly the
//! cost ratio in the calibrated roofline model.

use crate::histogram::LogHistogram;

/// Structural statistics for one bucket, produced by a table audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketStat {
    /// Bucket index.
    pub bucket: u32,
    /// Live (non-tombstone) elements stored in the bucket's chain.
    pub live: u32,
    /// Tombstoned slots awaiting reuse.
    pub tombstones: u32,
    /// Slabs in the chain, including the base slab (≥ 1 for a valid
    /// bucket).
    pub chain_slabs: u32,
}

/// One heatmap row: a bucket's structure, its attributed CAS failures, and
/// the combined heat score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotBucket {
    /// The bucket's structural statistics.
    pub stat: BucketStat,
    /// CAS failures attributed to this bucket by the trace (0 when no
    /// trace was supplied).
    pub cas_failures: u64,
    /// Combined heat score (see module docs).
    pub score: u64,
}

impl HotBucket {
    fn scored(stat: BucketStat, cas_failures: u64) -> Self {
        let score =
            cas_failures + stat.tombstones as u64 + 16 * stat.chain_slabs.saturating_sub(1) as u64;
        Self {
            stat,
            cas_failures,
            score,
        }
    }
}

/// A per-bucket contention heatmap.
#[derive(Debug, Clone, Default)]
pub struct Heatmap {
    rows: Vec<HotBucket>,
}

impl Heatmap {
    /// Builds a heatmap from audit statistics alone (no CAS attribution —
    /// add it with [`Heatmap::attribute_cas_failures`]).
    pub fn new(stats: &[BucketStat]) -> Self {
        Self {
            rows: stats.iter().map(|&s| HotBucket::scored(s, 0)).collect(),
        }
    }

    /// Folds trace-side per-bucket CAS-retry totals (as returned by
    /// [`crate::Trace::cas_failures_by_bucket`]) into the scores.
    /// Buckets outside the audited range are ignored.
    pub fn attribute_cas_failures(&mut self, by_bucket: &[(u32, u64)]) {
        for &(bucket, n) in by_bucket {
            if let Some(row) = self.rows.iter_mut().find(|r| r.stat.bucket == bucket) {
                *row = HotBucket::scored(row.stat, row.cas_failures + n);
            }
        }
    }

    /// All rows, in bucket order.
    pub fn rows(&self) -> &[HotBucket] {
        &self.rows
    }

    /// The `k` hottest buckets, hottest first (ties broken by bucket id
    /// for determinism).
    pub fn top_k(&self, k: usize) -> Vec<HotBucket> {
        let mut sorted = self.rows.clone();
        sorted.sort_by(|a, b| {
            b.score
                .cmp(&a.score)
                .then(a.stat.bucket.cmp(&b.stat.bucket))
        });
        sorted.truncate(k);
        sorted
    }

    /// Total CAS failures attributed across all buckets.
    pub fn total_cas_failures(&self) -> u64 {
        self.rows.iter().map(|r| r.cas_failures).sum()
    }

    /// Distribution of chain depths across all buckets.
    pub fn chain_histogram(&self) -> LogHistogram {
        let mut h = LogHistogram::new();
        for r in &self.rows {
            h.record(r.stat.chain_slabs as u64);
        }
        h
    }

    /// Renders the top-`k` hottest buckets as an aligned table.
    pub fn render_top_k(&self, k: usize) -> String {
        let mut out = String::from("  bucket       score   cas-fail     live     tomb    chain\n");
        for row in self.top_k(k) {
            out.push_str(&format!(
                "  {:>6}  {:>10}  {:>9}  {:>7}  {:>7}  {:>7}\n",
                row.stat.bucket,
                row.score,
                row.cas_failures,
                row.stat.live,
                row.stat.tombstones,
                row.stat.chain_slabs
            ));
        }
        out
    }

    /// Renders the whole table as a one-line intensity strip of `width`
    /// cells: buckets are grouped into cells, each cell showing the *max*
    /// heat score of its group on a 9-level scale (`" "` cold → `"█"`
    /// hottest, scaled to the global max).
    pub fn render_strip(&self, width: usize) -> String {
        const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.rows.is_empty() || width == 0 {
            return String::new();
        }
        let peak = self.rows.iter().map(|r| r.score).max().unwrap_or(0);
        let width = width.min(self.rows.len());
        let per_cell = self.rows.len().div_ceil(width);
        let mut out = String::with_capacity(width);
        for cell in self.rows.chunks(per_cell) {
            let m = cell.iter().map(|r| r.score).max().unwrap_or(0);
            let level = if peak == 0 {
                0
            } else {
                ((m as f64 / peak as f64) * (LEVELS.len() - 1) as f64).round() as usize
            };
            out.push(LEVELS[level.min(LEVELS.len() - 1)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> Vec<BucketStat> {
        vec![
            BucketStat {
                bucket: 0,
                live: 10,
                tombstones: 0,
                chain_slabs: 1,
            },
            BucketStat {
                bucket: 1,
                live: 40,
                tombstones: 5,
                chain_slabs: 3,
            },
            BucketStat {
                bucket: 2,
                live: 12,
                tombstones: 2,
                chain_slabs: 1,
            },
        ]
    }

    #[test]
    fn score_formula_matches_docs() {
        let h = Heatmap::new(&stats());
        // bucket 1: 0 cas + 5 tombstones + 16·(3−1) = 37
        assert_eq!(h.rows()[1].score, 37);
        // bucket 0: base slab only, no tombstones → 0
        assert_eq!(h.rows()[0].score, 0);
    }

    #[test]
    fn cas_attribution_raises_scores() {
        let mut h = Heatmap::new(&stats());
        h.attribute_cas_failures(&[(0, 100), (2, 1), (99, 5)]);
        assert_eq!(h.rows()[0].cas_failures, 100);
        assert_eq!(h.rows()[0].score, 100);
        assert_eq!(h.total_cas_failures(), 101);
        let top = h.top_k(2);
        assert_eq!(top[0].stat.bucket, 0);
        assert_eq!(top[1].stat.bucket, 1);
    }

    #[test]
    fn top_k_breaks_ties_by_bucket_id() {
        let h = Heatmap::new(&[
            BucketStat {
                bucket: 5,
                live: 0,
                tombstones: 1,
                chain_slabs: 1,
            },
            BucketStat {
                bucket: 2,
                live: 0,
                tombstones: 1,
                chain_slabs: 1,
            },
        ]);
        let top = h.top_k(2);
        assert_eq!(top[0].stat.bucket, 2);
        assert_eq!(top[1].stat.bucket, 5);
    }

    #[test]
    fn renderings_are_shaped_sensibly() {
        let mut h = Heatmap::new(&stats());
        h.attribute_cas_failures(&[(1, 50)]);
        let table = h.render_top_k(2);
        assert_eq!(table.lines().count(), 3, "header + 2 rows");
        assert!(table.contains("cas-fail"));
        let strip = h.render_strip(3);
        assert_eq!(strip.chars().count(), 3);
        assert_eq!(strip.chars().nth(1), Some('█'), "bucket 1 is hottest");
        assert_eq!(Heatmap::default().render_strip(8), "");
    }

    #[test]
    fn chain_histogram_counts_buckets() {
        let h = Heatmap::new(&stats());
        let ch = h.chain_histogram();
        assert_eq!(ch.count(), 3);
        assert_eq!(ch.max(), 3);
    }
}
