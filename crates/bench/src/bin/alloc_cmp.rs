//! §V allocator comparison — the paper's in-text numbers.
//!
//! "On a Tesla K40c, with one million slab allocations, 128 bytes per slab,
//! one allocation per thread ...: CUDA's malloc spends 1.2 s (0.8 M
//! slabs/s). Halloc takes 66 ms (16.1 M slabs/s). Our SlabAlloc takes
//! 1.8 ms (600 M slabs/s), which is about 37x faster than Halloc."
//!
//! * `alloc_cmp` — the allocation-rate comparison across SlabAlloc, the
//!   Halloc-like baseline, and the CUDA-malloc-like serialized heap;
//! * `alloc_cmp light` — SlabAlloc vs SlabAlloc-light search overhead
//!   (the up-to-25 % §V claim).
//!
//! Flags: `--allocs <n>` (default 1 M), `--csv <dir>`, `--threads N`.

use simt::PerfCounters;
use slab_alloc::{HallocSim, SerialHeapSim, SlabAlloc, SlabAllocConfig, SlabAllocator};
use slab_bench::{mops, paper_model, random_pairs, Args, Measurement, Table};
use slab_hash::{KeyValue, SlabHash, SlabHashConfig, EMPTY_KEY};

fn main() {
    let args = Args::parse();
    let grid = args.grid();
    let csv = args.csv_dir();
    let n_allocs: usize = args.value("allocs").unwrap_or(1_000_000);

    println!("§V allocator comparison: {n_allocs} slab allocations, WCWS pattern");
    println!("model: {}", paper_model().name);

    match args.subcommand() {
        Some("light") => light_comparison(&grid, csv.as_deref()),
        None => {
            allocation_rates(n_allocs, &grid, csv.as_deref());
            light_comparison(&grid, csv.as_deref());
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; expected nothing or `light`");
            std::process::exit(2);
        }
    }
}

/// Drives `n` allocations through an allocator under the WCWS pattern: each
/// warp issues its allocations one at a time (they cannot be coalesced).
fn drive<A: SlabAllocator>(alloc: &A, n: usize, grid: &simt::Grid) -> (PerfCounters, f64) {
    let warps = n / 32;
    let report = grid.launch_warps(warps, |ctx| {
        let mut state = alloc.new_warp_state();
        for _ in 0..32 {
            let ptr = alloc.allocate(&mut state, ctx);
            std::hint::black_box(ptr);
            ctx.counters.ops += 1;
        }
    });
    (report.counters, report.wall.as_secs_f64())
}

fn allocation_rates(n: usize, grid: &simt::Grid, csv: Option<&std::path::Path>) {
    let model = paper_model();
    let mut table = Table::new(
        "SlabAlloc vs baseline allocators (1M slab allocations)",
        &[
            "allocator",
            "sim M allocs/s",
            "paper M allocs/s",
            "cpu M allocs/s",
            "bound",
        ],
    );

    // SlabAlloc: the paper's configuration (32 super blocks, 256 memory
    // blocks each), enough capacity for every allocation.
    // Paper capacity (32 × 256 × 1024 units); start with 4 super blocks
    // active so the CPU column is not dominated by lazily zeroing a GB.
    let slab = SlabAlloc::new(SlabAllocConfig {
        blocks_per_super: 256,
        initial_active: 4,
        fill: EMPTY_KEY,
        ..SlabAllocConfig::default()
    });
    let (c, wall) = drive(&slab, n, grid);
    let est = model.estimate(&c, slab.metadata_bytes());
    let slaballoc_rate = est.mops();
    table.row(vec![
        "SlabAlloc".into(),
        mops(est.mops()),
        "600".into(),
        mops(c.ops as f64 / wall / 1e6),
        est.bound.into(),
    ]);

    let halloc = HallocSim::new(64, n + 1024, EMPTY_KEY);
    let (c, wall) = drive(&halloc, n, grid);
    let est = model.estimate(&c, halloc.metadata_bytes());
    let halloc_rate = est.mops();
    table.row(vec![
        "Halloc-like".into(),
        mops(est.mops()),
        "16.1".into(),
        mops(c.ops as f64 / wall / 1e6),
        est.bound.into(),
    ]);

    let malloc = SerialHeapSim::new(n + 1024, EMPTY_KEY);
    let (c, wall) = drive(&malloc, n, grid);
    let est = model.estimate(&c, malloc.metadata_bytes());
    table.row(vec![
        "CUDA-malloc-like".into(),
        mops(est.mops()),
        "0.8".into(),
        mops(c.ops as f64 / wall / 1e6),
        est.bound.into(),
    ]);
    table.finish(csv);
    println!(
        "SlabAlloc / Halloc speedup: {:.0}x (paper: ~37x)",
        slaballoc_rate / halloc_rate
    );
}

/// §V: "SlabAlloc-light gives us up to 25 % performance improvement" for
/// search-heavy workloads, by skipping the shared-memory base-pointer
/// lookup on every allocated-slab access.
fn light_comparison(grid: &simt::Grid, csv: Option<&std::path::Path>) {
    let model = paper_model();
    let n = 1 << 20;
    let pairs = random_pairs(n, 0);
    let queries: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    // Long chains (β ≈ 2) so that most searches resolve allocated slabs.
    let buckets = (n as u32) / (15 * 2);

    let mut table = Table::new(
        "SlabAlloc vs SlabAlloc-light (search, chains ~2 slabs)",
        &["variant", "search sim M q/s", "shared lookups/query"],
    );
    let mut rates = [0.0f64; 2];
    for (i, light) in [false, true].into_iter().enumerate() {
        let alloc = SlabAlloc::new(SlabAllocConfig {
            blocks_per_super: 512,
            light,
            fill: EMPTY_KEY,
            ..SlabAllocConfig::default()
        });
        let t = SlabHash::<KeyValue, _>::with_allocator(
            SlabHashConfig {
                seed: 0x11,
                ..SlabHashConfig::with_buckets(buckets)
            },
            alloc,
        );
        t.bulk_build(&pairs, grid);
        let (_, rep) = t.bulk_search(&queries, grid);
        let m = Measurement::from_report(&rep, &model, t.device_bytes());
        rates[i] = m.sim_mops;
        table.row(vec![
            if light {
                "SlabAlloc-light"
            } else {
                "SlabAlloc"
            }
            .into(),
            mops(m.sim_mops),
            format!(
                "{:.2}",
                rep.counters.shared_lookups as f64 / rep.counters.ops as f64
            ),
        ]);
    }
    table.finish(csv);
    println!(
        "light improvement: {:.0}% (paper: up to 25%)",
        (rates[1] / rates[0] - 1.0) * 100.0
    );
}
