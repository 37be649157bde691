//! Ablations of the paper's design choices (DESIGN.md §3).
//!
//! * `ablation wcws` — warp-cooperative work sharing vs traditional
//!   per-thread processing on identical workloads (the §IV-A claim);
//! * `ablation slabsize` — elements per slab M ∈ {4, 8, 16, 30}: why the
//!   slab fills the warp's full 128 B transaction;
//! * `ablation resident` — SlabAlloc's hashed resident-block distribution
//!   vs everyone contending on one memory block;
//! * `ablation` — all of them.
//!
//! Flags: `--n <log2>` (default 20), `--csv <dir>`, `--threads N`.

use simt::PerfCounters;
use slab_bench::{distinct_keys, mops, paper_model, random_pairs, Args, Measurement, Table};
use slab_hash::{
    entry::DATA_LANES, EntryLayout, KeyValue, Request, SlabHash, SlabHashConfig, EMPTY_KEY,
};
use slab_alloc::{SlabAlloc, SlabAllocConfig, SlabAllocator};

fn main() {
    let args = Args::parse();
    let grid = args.grid();
    let log_n: u32 = args.value("n").unwrap_or(20);
    let n = 1usize << log_n;
    let csv = args.csv_dir();

    println!("Design-choice ablations, n = 2^{log_n}");
    println!("model: {}", paper_model().name);

    match args.subcommand() {
        Some("wcws") => wcws(n, &grid, csv.as_deref()),
        Some("slabsize") => slabsize(n, &grid, csv.as_deref()),
        Some("resident") => resident(n, &grid, csv.as_deref()),
        Some("gfsl") => gfsl_note(),
        None => {
            wcws(n, &grid, csv.as_deref());
            slabsize(n, &grid, csv.as_deref());
            resident(n, &grid, csv.as_deref());
            gfsl_note();
        }
        Some(other) => {
            eprintln!(
                "unknown subcommand {other:?}; expected wcws, slabsize, resident or gfsl"
            );
            std::process::exit(2);
        }
    }
}

/// §VI-C's GFSL discussion, reproduced analytically: a lock-based skip list
/// pays ≥ 2 atomics (lock/unlock) + 2 memory accesses per insertion, so
/// even its *best case* sits far below the lock-free structures.
fn gfsl_note() {
    use simt::{GpuModel, PerfCounters};
    let gtx970 = GpuModel::gtx_970();
    let n = 1u64 << 20;
    // GFSL best case per §VI-C: two atomics + two scattered accesses.
    let gfsl_best = PerfCounters {
        ops: n,
        atomics: 2 * n,
        sector_reads: 2 * n,
        ..Default::default()
    };
    // Slab hash insert on the same device: one coalesced read + one CAS.
    let slab_insert = PerfCounters {
        ops: n,
        slab_reads: n,
        warp_rounds: n,
        atomics: n,
        ..Default::default()
    };
    let gfsl = gtx970.estimate(&gfsl_best, u64::MAX).mops();
    let slab = gtx970.estimate(&slab_insert, u64::MAX).mops();
    println!("\n== GFSL (lock-based skip list) analytic bound, GTX 970 model ==");
    println!("GFSL best-case updates (2 atomics + 2 accesses): {} M ops/s upper bound", mops(gfsl));
    println!("GFSL measured by its authors:                    ~50 M updates/s, ~100 M queries/s");
    println!("slab hash updates on the same modeled device:    {} M ops/s", mops(slab));
    println!(
        "(the paper's conclusion holds: even GFSL's lock-cost lower bound cannot reach the \
         lock-free structures' one-atomic-per-update regime)"
    );
}

/// WCWS vs per-thread processing of the same build + search workload.
fn wcws(n: usize, grid: &simt::Grid, csv: Option<&std::path::Path>) {
    let model = paper_model();
    let pairs = random_pairs(n, 0);
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let mut table = Table::new(
        "WCWS vs per-thread work assignment (60% utilization)",
        &["strategy", "build sim", "search sim", "divergent steps/op"],
    );
    let mut rates = [[0.0f64; 2]; 2];
    for (i, per_thread) in [false, true].into_iter().enumerate() {
        let t = SlabHash::<KeyValue>::for_expected_elements(n, 0.6, 0xAB);
        let run = |reqs: &mut Vec<Request>| -> PerfCounters {
            let report = grid.launch(reqs, |ctx, chunk| {
                let mut st = t.allocator().new_warp_state();
                if per_thread {
                    t.process_warp_per_thread(ctx, &mut st, chunk);
                } else {
                    t.process_warp(ctx, &mut st, chunk);
                }
            });
            report.counters
        };
        let mut build: Vec<Request> = pairs.iter().map(|&(k, v)| Request::replace(k, v)).collect();
        let cb = run(&mut build);
        let mut search: Vec<Request> = keys.iter().map(|&k| Request::search(k)).collect();
        let cs = run(&mut search);
        let mb = model.estimate(&cb, t.device_bytes()).mops();
        let ms = model.estimate(&cs, t.device_bytes()).mops();
        rates[i] = [mb, ms];
        table.row(vec![
            if per_thread { "per-thread" } else { "WCWS" }.into(),
            mops(mb),
            mops(ms),
            format!(
                "{:.1}",
                (cb.divergent_steps + cs.divergent_steps) as f64 / (2 * n) as f64
            ),
        ]);
    }
    table.finish(csv);
    println!(
        "WCWS speedup: build {:.1}x, search {:.1}x (the paper's core design claim)",
        rates[0][0] / rates[1][0],
        rates[0][1] / rates[1][1]
    );
}

/// Key-only layouts with fewer elements per slab, emulating smaller slabs.
macro_rules! small_layout {
    ($name:ident, $m:expr) => {
        struct $name;
        impl EntryLayout for $name {
            const ELEMS_PER_SLAB: u32 = $m;
            const HAS_VALUES: bool = false;
            const KEY_LANES: u32 = (1u32 << $m) - 1;
            const ELEM_BYTES: u32 = 4;
            const NAME: &'static str = concat!("key-only-M", $m);
            fn key_lane(elem: usize) -> usize {
                debug_assert!(elem < $m);
                elem
            }
            fn value_lane(key_lane: usize) -> usize {
                key_lane
            }
        }
    };
}
small_layout!(M4, 4);
small_layout!(M8, 8);
small_layout!(M16, 16);

fn slabsize(n: usize, grid: &simt::Grid, csv: Option<&std::path::Path>) {
    let keys = distinct_keys(n, 0);
    let mut table = Table::new(
        "Elements per slab (fixed beta = 0.7)",
        &["M", "build sim", "search sim", "slab reads/search", "max util"],
    );
    fn run_layout<L: EntryLayout>(
        keys: &[u32],
        grid: &simt::Grid,
        table: &mut Table,
    ) {
        let model = paper_model();
        let n = keys.len();
        // Same average slab demand β = 0.7 for every M.
        let buckets = ((n as f64) / (L::ELEMS_PER_SLAB as f64 * 0.7)).ceil() as u32;
        let t: SlabHash<L> = SlabHash::<L>::new(SlabHashConfig {
            seed: 0x51ab,
            ..SlabHashConfig::with_buckets(buckets)
        });
        let rb = t.bulk_build_keys(keys, grid);
        let (_, rs) = t.bulk_search(keys, grid);
        let mb = Measurement::from_report(&rb, &model, t.device_bytes());
        let ms = Measurement::from_report(&rs, &model, t.device_bytes());
        table.row(vec![
            format!("{}", L::ELEMS_PER_SLAB),
            mops(mb.sim_mops),
            mops(ms.sim_mops),
            format!("{:.2}", rs.counters.slab_reads as f64 / n as f64),
            format!("{:.2}", L::max_utilization()),
        ]);
    }
    run_layout::<M4>(&keys, grid, &mut table);
    run_layout::<M8>(&keys, grid, &mut table);
    run_layout::<M16>(&keys, grid, &mut table);
    run_layout::<slab_hash::KeyOnly>(&keys, grid, &mut table);
    table.finish(csv);
    println!(
        "(M = 30 fills the warp's 128 B transaction: best utilization at no extra read cost — \
         the paper's §IV-B parameter choice; data lanes available: {DATA_LANES})"
    );
}

/// Resident-block policy: hashed distribution vs single shared block.
fn resident(n: usize, grid: &simt::Grid, csv: Option<&std::path::Path>) {
    let model = paper_model();
    let mut table = Table::new(
        "SlabAlloc resident-block policy (allocation storm)",
        &["policy", "sim M allocs/s", "CAS failures/alloc", "resident changes"],
    );
    for (label, blocks, supers) in [("hashed (paper)", 256u32, 8u32), ("few blocks", 4, 1)] {
        let alloc = SlabAlloc::new(SlabAllocConfig {
            super_blocks: supers,
            initial_active: supers,
            blocks_per_super: blocks,
            fill: EMPTY_KEY,
            resident_threshold: 2,
            light: true,
            ..SlabAllocConfig::default()
        });
        // Sustained storm: each warp allocates a long run, so concurrently
        // executing warps overlap inside shared memory blocks.
        let per_warp = 256;
        let allocs = (n / 8).min((supers as usize * blocks as usize * 1024) * 3 / 4);
        let report = grid.launch_warps(allocs / per_warp, |ctx| {
            let mut st = alloc.new_warp_state();
            for _ in 0..per_warp {
                std::hint::black_box(alloc.allocate(&mut st, ctx));
                ctx.counters.ops += 1;
            }
        });
        let est = model.estimate(&report.counters, alloc.metadata_bytes());
        table.row(vec![
            label.into(),
            mops(est.mops()),
            format!(
                "{:.3}",
                report.counters.cas_failures as f64 / report.counters.ops as f64
            ),
            format!("{}", report.counters.resident_changes),
        ]);
    }
    table.finish(csv);
    println!(
        "(hash-distributed resident blocks spread warps over many bitmaps — compare the \
         resident-change spread; CAS-failure contrast needs a multi-core host, where warps \
         genuinely overlap inside a shared block)"
    );
}
