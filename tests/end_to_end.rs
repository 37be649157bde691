//! End-to-end scenarios spanning all crates: utilization planning,
//! incremental-vs-bulk equivalence, alternative allocator backends, and
//! sustained churn with periodic flushes.

use simt::Grid;
use slab_alloc::{HallocSim, SerialHeapSim, SlabAlloc, SlabAllocConfig};
use slab_hash::{KeyValue, SlabHash, SlabHashConfig, WarpDriver, EMPTY_KEY};

fn pairs(n: usize) -> Vec<(u32, u32)> {
    (0..n as u32)
        .map(|k| (k.wrapping_mul(2_654_435_761) >> 3, k))
        .collect()
}

/// The Fig. 4c planning loop: `for_expected_elements` must land measured
/// utilization near the target across the paper's sweep.
#[test]
fn utilization_targeting_tracks_fig4c_model() {
    let grid = Grid::new(2);
    let data = pairs(60_000);
    for target in [0.15, 0.35, 0.55, 0.75, 0.9] {
        let t = SlabHash::<KeyValue>::for_expected_elements(data.len(), target, 0xE2E);
        t.bulk_build(&data, &grid);
        let achieved = t.memory_utilization();
        assert!(
            (achieved - target).abs() < 0.09,
            "target {target}: achieved {achieved}"
        );
        t.audit().unwrap();
    }
}

/// "There is no difference between a bulk build operation and incremental
/// insertions of a batch of key-value pairs" (§VI-A, footnote 3): same
/// final contents either way.
#[test]
fn incremental_equals_bulk() {
    let grid = Grid::new(2);
    let data = pairs(20_000);

    let bulk = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(512));
    bulk.bulk_build(&data, &grid);

    let incremental = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(512));
    for chunk in data.chunks(1_000) {
        incremental.bulk_build(chunk, &grid);
    }

    assert_eq!(bulk.len(), incremental.len());
    let mut a = bulk.collect_elements();
    let mut b = incremental.collect_elements();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}

/// The hash table is generic over its allocator: the full workload must
/// pass over the baseline allocators too (the §V comparison requires the
/// table to run on all of them).
#[test]
fn table_works_over_every_allocator_backend() {
    let grid = Grid::new(2);
    let data = pairs(5_000);
    let config = SlabHashConfig::with_buckets(64);

    fn exercise<A: slab_alloc::SlabAllocator>(
        t: &SlabHash<KeyValue, A>,
        data: &[(u32, u32)],
        grid: &Grid,
    ) {
        t.bulk_build(data, grid);
        assert_eq!(t.len(), data.len());
        let keys: Vec<u32> = data.iter().map(|p| p.0).collect();
        let (hits, _) = t.bulk_search(&keys, grid);
        assert!(hits.iter().all(|h| h.is_some()));
        let (deleted, _) = t.bulk_delete(&keys[..1000], grid);
        assert!(deleted.iter().all(|&d| d));
        assert_eq!(t.len(), data.len() - 1000);
    }

    exercise(
        &SlabHash::<KeyValue, _>::with_allocator(
            config,
            SlabAlloc::new(SlabAllocConfig::small(2, 8)),
        ),
        &data,
        &grid,
    );
    exercise(
        &SlabHash::<KeyValue, _>::with_allocator(config, SerialHeapSim::new(4_096, EMPTY_KEY)),
        &data,
        &grid,
    );
    exercise(
        &SlabHash::<KeyValue, _>::with_allocator(config, HallocSim::new(8, 4_096, EMPTY_KEY)),
        &data,
        &grid,
    );
}

/// Light vs regular addressing must be behaviourally identical (only the
/// modeled decode cost differs).
#[test]
fn light_and_regular_slaballoc_same_contents() {
    let grid = Grid::new(2);
    let data = pairs(8_000);
    let mut tables = Vec::new();
    for light in [false, true] {
        let alloc = SlabAlloc::new(SlabAllocConfig {
            light,
            fill: EMPTY_KEY,
            ..SlabAllocConfig::small(2, 8)
        });
        let t = SlabHash::<KeyValue, _>::with_allocator(SlabHashConfig::with_buckets(64), alloc);
        t.bulk_build(&data, &grid);
        let mut elems = t.collect_elements();
        elems.sort_unstable();
        tables.push(elems);
    }
    assert_eq!(tables[0], tables[1]);
}

/// Sustained churn: repeated insert/delete waves with periodic FLUSH must
/// neither leak slabs nor lose elements, and utilization must recover after
/// each flush.
#[test]
fn sustained_churn_with_periodic_flush() {
    let grid = Grid::new(2);
    let mut table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(32));
    let mut generation = 0u32;

    for wave in 0..8 {
        // Insert a fresh generation of 3000 keys.
        let fresh: Vec<(u32, u32)> = (0..3_000)
            .map(|i| (generation * 10_000 + i, wave))
            .collect();
        table.bulk_build(&fresh, &grid);

        // Delete the previous generation entirely.
        if generation > 0 {
            let old: Vec<u32> = (0..3_000).map(|i| (generation - 1) * 10_000 + i).collect();
            let (deleted, _) = table.bulk_delete(&old, &grid);
            assert!(deleted.iter().all(|&d| d), "wave {wave}: delete misses");
        }
        generation += 1;

        if wave % 2 == 1 {
            let before = table.total_slabs();
            table.flush(&grid);
            assert!(table.total_slabs() <= before);
            let audit = table.audit().unwrap();
            assert_eq!(audit.tombstones, 0);
            assert!(audit.no_leaks());
        }
        assert_eq!(table.len(), 3_000, "wave {wave}: live set drifted");
    }

    // Only the last generation remains searchable.
    let mut warp = WarpDriver::new(&table);
    assert_eq!(warp.search((generation - 1) * 10_000), Some(7));
    assert_eq!(warp.search((generation - 2) * 10_000), None);
}

/// A zero-sized and a one-element table behave.
#[test]
fn degenerate_sizes() {
    let grid = Grid::sequential();
    let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
    t.bulk_build(&[], &grid);
    assert!(t.is_empty());
    t.bulk_build(&[(5, 50)], &grid);
    assert_eq!(t.len(), 1);
    let (r, _) = t.bulk_search(&[5, 6], &grid);
    assert_eq!(r, vec![Some(50), None]);
}
