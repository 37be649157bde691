//! Self-healing under memory pressure: a churning table living
//! indefinitely on an allocator far too small for its cumulative demand.
//!
//! Three mechanisms cooperate (DESIGN.md §10):
//! 1. compaction: `maintain` runs the paper's FLUSH whenever no operation
//!    is in flight, rebuilding every bucket without its tombstones and
//!    freeing the surplus slabs;
//! 2. the allocator's free-headroom watermark activates reserve super
//!    blocks *before* pressure turns into `OutOfSlabs`;
//! 3. a `MaintenancePolicy` turns residual failures into heal-and-retry
//!    (block) or heal-and-report (shed) in the caller's retry loop.
//!
//! Run with: `cargo run --release --example self_healing`

use simt::Grid;
use slab_alloc::{SlabAlloc, SlabAllocConfig, SlabAllocator};
use slab_hash::{
    KeyValue, MaintenancePolicy, SlabHash, SlabHashConfig, TableError, WarpDriver, EMPTY_KEY,
};

fn main() {
    // One active super block = 1024 slabs. The 50-cycle churn below chains
    // ~80 fresh slabs per cycle (~4000 total): without compaction the
    // allocator would exhaust by cycle ~13 even after growing to all four
    // super blocks.
    let alloc = SlabAlloc::new(SlabAllocConfig {
        super_blocks: 4,
        initial_active: 1,
        blocks_per_super: 1,
        fill: EMPTY_KEY,
        low_free_watermark: 128,
        ..SlabAllocConfig::default()
    });
    let table = SlabHash::<KeyValue, _>::with_allocator(
        SlabHashConfig {
            seed: 0x5E1F,
            ..SlabHashConfig::with_buckets(64)
        },
        alloc,
    );
    let grid = Grid::default();

    println!(
        "churning {} buckets on {} active super block(s) of 1024 slabs \
         (capacity {}; watermark 128)\n",
        table.num_buckets(),
        table.allocator().active_super_blocks(),
        table.allocator().capacity_slabs(),
    );
    println!("cycle  allocated   peak  released  active-SB");

    // A pinned resident set that must survive every cycle of churn.
    let pinned: Vec<(u32, u32)> = (0..500).map(|i| (2_000_000 + i, i)).collect();
    table.bulk_build(&pinned, &grid);

    let mut total_released = 0u64;
    for cycle in 0..50u32 {
        // Insert a 2 000-key batch, then delete it: pure churn.
        let base = cycle * 10_000;
        let pairs: Vec<(u32, u32)> = (0..2_000).map(|k| (base + k, k)).collect();
        table.bulk_build(&pairs, &grid);
        let peak = table.allocator().allocated_slabs();
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        table.bulk_delete(&keys, &grid);

        // One idempotent maintenance pass: compact + grow-if-low. It rides
        // the cycle boundary, where no operation is in flight.
        let report = table.maintain(&grid);
        let released = report.flushed.map_or(0, |f| f.slabs_released);
        total_released += released;
        if cycle % 5 == 0 {
            println!(
                "{cycle:>5}  {:>9}  {peak:>5}  {released:>8}  {:>9}",
                table.allocator().allocated_slabs(),
                table.allocator().active_super_blocks(),
            );
        }

        // The resident set must be untouched by 50 generations of churn.
        let (found, _) = table.bulk_search(&pinned.iter().map(|p| p.0).collect::<Vec<_>>(), &grid);
        assert!(
            found.iter().all(|f| f.is_some()),
            "cycle {cycle}: compaction lost a pinned key"
        );
    }

    println!(
        "\n50 cycles: {total_released} slabs released, \
         allocator never exceeded {} of {} slabs",
        table.allocator().peak_outstanding_slabs(),
        table.allocator().capacity_slabs(),
    );

    // --- Flash crowd: live demand outgrows the active super block -----------
    // ~1 270 chained slabs of *live* data cannot be compacted away; the
    // free-headroom gauge sinks through the watermark and the allocator
    // activates reserve super blocks before traffic sees `OutOfSlabs`.
    let crowd: Vec<(u32, u32)> = (0..20_000).map(|i| (3_000_000 + i, i)).collect();
    table.bulk_build(&crowd, &grid);
    println!(
        "\nflash crowd: +{} live keys -> {} slabs allocated, {} active super blocks, \
         {} watermark breaches",
        crowd.len(),
        table.allocator().allocated_slabs(),
        table.allocator().active_super_blocks(),
        table.allocator().low_free_breaches(),
    );
    assert!(
        table.allocator().active_super_blocks() > 1,
        "the watermark must have grown the allocator"
    );
    assert!(table.allocator().low_free_breaches() > 0);

    // The crowd leaves; churn maintenance shrinks the table back down.
    table.bulk_delete(&crowd.iter().map(|p| p.0).collect::<Vec<_>>(), &grid);
    let report = table.maintain(&grid);
    println!(
        "crowd gone: released {} slabs, {} still allocated",
        report.flushed.map_or(0, |f| f.slabs_released),
        table.allocator().allocated_slabs(),
    );

    for gauge in table.allocator().pressure_gauges() {
        println!("gauge {gauge}");
    }
    println!(
        "watermark breaches: {} (pressure was seen and acted on before OutOfSlabs)",
        table.allocator().low_free_breaches(),
    );

    let audit = table.audit().expect("audit after churn");
    println!(
        "audit: live {}, chained slabs {}, double frees {}, no_leaks {}",
        audit.live_elements,
        audit.chained_slabs,
        audit.double_frees,
        audit.no_leaks(),
    );
    assert_eq!(audit.live_elements, pinned.len() as u64);
    assert!(audit.no_leaks());

    // --- Backpressure policies on a retry loop ------------------------------
    // `recover` is the call the ingress broker makes for a failed retry
    // cohort: block = compact/grow/retry, shed = one heal pass, then the
    // caller decides what to drop.
    let maint_grid = Grid::sequential();
    let map = SlabHash::<KeyValue>::for_expected_elements(10_000, 0.6, 0x0005_ABA4);
    let block = MaintenancePolicy::block();
    let mut writer = WarpDriver::new(&map);
    for k in 0..5_000 {
        replace_with_policy(&map, &mut writer, &block, &maint_grid, k, k * 2)
            .expect("block policy heals transient pressure");
    }
    println!(
        "\npolicy demo: {} keys through a blocking retry loop",
        map.len(),
    );
    assert_eq!(map.len(), 5_000);

    // Failed operations stay structured even when healing is exhausted: an
    // injected always-fail allocation plan makes the shed path surface
    // `OutOfSlabs` while the table stays consistent and auditable. One
    // bucket whose base slab is full forces every further insert to
    // allocate a chained slab.
    let tiny = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
    let mut warp = WarpDriver::new(&tiny);
    for k in 0..15 {
        warp.replace(k, k);
    }
    let chaos = simt::ChaosGuard::plan(simt::FaultPlan::seeded(0x5E1F).with_alloc_failures(1.0));
    let shed = MaintenancePolicy::shed();
    let mut dropped = 0u32;
    for k in 100_000..100_064 {
        if replace_with_policy(&tiny, &mut warp, &shed, &maint_grid, k, 0).is_err() {
            dropped += 1;
        }
    }
    drop(chaos);
    println!("under an always-fail alloc plan the shed policy dropped {dropped}/64 inserts");
    assert_eq!(
        dropped, 64,
        "every chained insert must shed under alloc faults"
    );
    tiny.audit().expect("table audits clean after shedding");

    println!("\nself-healing demo complete");
}

/// REPLACE(key, value) that heals under `policy` when the table reports
/// memory pressure, retrying for as long as `recover` says to.
fn replace_with_policy(
    table: &SlabHash<KeyValue>,
    warp: &mut WarpDriver<'_, KeyValue>,
    policy: &MaintenancePolicy,
    grid: &Grid,
    key: u32,
    value: u32,
) -> Result<Option<u32>, TableError> {
    let mut round = 0;
    loop {
        match warp.checked_replace(key, value) {
            Err(e) if table.recover(e, policy, grid, round).retry => round += 1,
            result => return result,
        }
    }
}
