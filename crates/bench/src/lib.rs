//! # slab-bench — the experiment harness
//!
//! One binary per figure/table of the paper's evaluation (see DESIGN.md §3
//! for the full index):
//!
//! | binary      | reproduces |
//! |-------------|------------|
//! | `fig4`      | Fig. 4a/4b/4c — build & search rate vs memory utilization, utilization vs β |
//! | `fig5`      | Fig. 5a/5b — build & search rate vs table size |
//! | `fig6`      | Fig. 6 — incremental batch updates vs rebuild-from-scratch |
//! | `fig7`      | Fig. 7a/7b — concurrent mixed benchmark; comparison vs Misra |
//! | `alloc_cmp` | §V — SlabAlloc vs Halloc-like vs CUDA-malloc-like; -light variant |
//! | `ablation`  | design-choice ablations (WCWS vs per-thread, slab size, allocator policy) |
//!
//! Every binary prints two throughput columns: `sim` (the roofline-modeled
//! Tesla K40c number, comparable to the paper's y-axes) and `cpu` (the
//! wall-clock throughput of the simulation itself). Pass `--csv <dir>` to
//! also write CSV, `--threads N` to pin the warp-scheduler width, `--quick`
//! to shrink workloads, and `--full` for the paper's largest sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod workloads;

use simt::{GpuModel, Grid};
use slab_hash::{KeyValue, SlabHash};

pub use report::{geomean, mops, roofline_summary, Args, Measurement, Table};
pub use workloads::{
    concurrent_workload, distinct_keys, queries_all_exist, queries_none_exist, random_pairs,
    ConcurrentOp, ConcurrentWorkload, Gamma,
};

/// The model every experiment reports against (the paper's GPU).
pub fn paper_model() -> GpuModel {
    GpuModel::tesla_k40c()
}

/// The memory-utilization sweep of Figs. 4 and 7a.
pub const UTILIZATION_SWEEP: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.65, 0.8, 0.9];

/// Builds a key–value slab hash sized for `n` elements at `utilization` and
/// bulk-builds it from `pairs`. Returns the table and its build measurement.
pub fn build_slab_hash_at(
    pairs: &[(u32, u32)],
    utilization: f64,
    grid: &Grid,
    model: &GpuModel,
) -> (SlabHash<KeyValue>, Measurement) {
    let table = SlabHash::<KeyValue>::for_expected_elements(pairs.len(), utilization, 0x5eed);
    let report = table.bulk_build(pairs, grid);
    let m = Measurement::from_report(&report, model, table.device_bytes());
    (table, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_slab_hash_lands_near_target_utilization() {
        let grid = Grid::new(4);
        let pairs = random_pairs(1 << 16, 0);
        for target in [0.2, 0.5, 0.8] {
            let (table, m) = build_slab_hash_at(&pairs, target, &grid, &paper_model());
            let achieved = table.memory_utilization();
            assert!(
                (achieved - target).abs() < 0.08,
                "target {target}, achieved {achieved}"
            );
            assert!(m.sim_mops > 0.0 && m.cpu_mops > 0.0);
        }
    }

    #[test]
    fn utilization_sweep_is_sorted_and_sane() {
        assert!(UTILIZATION_SWEEP.windows(2).all(|w| w[0] < w[1]));
        assert!(UTILIZATION_SWEEP.iter().all(|&u| (0.0..0.94).contains(&u)));
    }
}
