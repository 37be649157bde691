//! Figure 7 — concurrent benchmarks (paper §VI-C).
//!
//! Truly concurrent mixtures of insertions, deletions and searches, drawn
//! from the paper's operation distributions:
//! Γ₀ = (0.5, 0.5, 0, 0), Γ₁ = (0.2, 0.2, 0.3, 0.3), Γ₂ = (0.1, 0.1, 0.4, 0.4).
//!
//! * `fig7 a` — slab hash (key–value): M ops/s vs initial memory
//!   utilization, one curve per Γ;
//! * `fig7 b` — slab hash vs Misra & Chaudhuri's lock-free hash table
//!   (key-only): M ops/s vs number of buckets, 1 M operations;
//! * `fig7` — both.
//!
//! Flags: `--ops <n>` (default 2²⁰), `--quick`, `--csv <dir>`, `--threads N`.

use gpu_baselines::{MisraHash, MisraOp};
use simt::PerfCounters;
use slab_bench::{
    concurrent_workload, geomean, mops, paper_model, roofline_summary, Args, ConcurrentOp, Gamma,
    Table, UTILIZATION_SWEEP,
};
use slab_hash::{KeyOnly, KeyValue, Request, SlabHash, SlabHashConfig};

fn gammas() -> [Gamma; 3] {
    [
        Gamma::MIXED_20_UPDATES,
        Gamma::MIXED_40_UPDATES,
        Gamma::UPDATES_ONLY,
    ]
}

fn main() {
    let args = Args::parse();
    let grid = args.grid();
    let total_ops: usize =
        args.value("ops")
            .unwrap_or(if args.flag("quick") { 1 << 17 } else { 1 << 20 });
    let csv = args.csv_dir();

    println!("Figure 7 reproduction: {total_ops} concurrent operations per point");
    println!("model: {}", paper_model().name);

    match args.subcommand() {
        Some("a") => fig7a(total_ops, &grid, csv.as_deref()),
        Some("b") => fig7b(total_ops, &grid, csv.as_deref()),
        None => {
            fig7a(total_ops, &grid, csv.as_deref());
            fig7b(total_ops, &grid, csv.as_deref());
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; expected a or b");
            std::process::exit(2);
        }
    }
}

/// Runs one concurrent benchmark over a key–value slab hash; returns merged
/// counters and host wall time.
fn run_slab_kv(
    table: &SlabHash<KeyValue>,
    batches: &[Vec<ConcurrentOp>],
    grid: &simt::Grid,
) -> (PerfCounters, f64) {
    let mut counters = PerfCounters::default();
    let mut wall = 0.0;
    for batch in batches {
        let mut reqs: Vec<Request> = batch.iter().map(|op| op.to_request()).collect();
        let report = table.execute_batch(&mut reqs, grid);
        counters.merge(&report.counters);
        wall += report.wall.as_secs_f64();
    }
    (counters, wall)
}

fn fig7a(total_ops: usize, grid: &simt::Grid, csv: Option<&std::path::Path>) {
    let model = paper_model();
    let initial = total_ops; // table as large as the op stream, like Fig 7a
    let batch_size = 1 << 15;
    let num_batches = total_ops / batch_size;
    let mut table = Table::new(
        "Fig 7a concurrent benchmark (M ops/s vs initial utilization)",
        &[
            "util",
            "20% updates sim",
            "40% updates sim",
            "100% updates sim",
            "100% updates cpu",
            "roofline (100%u)",
        ],
    );
    for &util in &UTILIZATION_SWEEP {
        let mut cells = vec![format!("{util:.2}")];
        let mut cpu_last = 0.0;
        let mut roofline_last = String::new();
        for gamma in gammas() {
            let w =
                concurrent_workload(initial, gamma, batch_size, num_batches, 0x7A + util as u64);
            let t = SlabHash::<KeyValue>::for_expected_elements(initial, util, 0x7A7);
            let pairs: Vec<(u32, u32)> = w.initial_keys.iter().map(|&k| (k, k)).collect();
            t.bulk_build(&pairs, grid);
            let (counters, wall) = run_slab_kv(&t, &w.batches, grid);
            let est = model.estimate(&counters, t.device_bytes());
            cells.push(mops(est.mops()));
            cpu_last = counters.ops as f64 / wall / 1e6;
            roofline_last = roofline_summary(&est.breakdown);
        }
        cells.push(mops(cpu_last));
        cells.push(roofline_last);
        table.row(cells);
    }
    table.finish(csv);
    println!(
        "(paper shape: fewer updates -> faster; sharp degradation past 65 % utilization, \
         ~100 M ops/s at 90 %)"
    );
}

fn fig7b(total_ops: usize, grid: &simt::Grid, csv: Option<&std::path::Path>) {
    let model = paper_model();
    let initial = total_ops / 2;
    let batch_size = 1 << 15;
    let num_batches = total_ops / batch_size;
    let bucket_sweep: [u32; 6] = [5_000, 10_000, 25_000, 50_000, 75_000, 100_000];
    let mut speedups: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut table = Table::new(
        "Fig 7b slab hash vs Misra (M ops/s vs number of buckets, key-only)",
        &[
            "buckets",
            "slab 20%u",
            "misra 20%u",
            "slab 40%u",
            "misra 40%u",
            "slab 100%u",
            "misra 100%u",
        ],
    );
    for &buckets in &bucket_sweep {
        let mut cells = vec![format!("{buckets}")];
        for (gi, gamma) in gammas().into_iter().enumerate() {
            let w = concurrent_workload(initial, gamma, batch_size, num_batches, 0x7B + gi as u64);

            // Slab hash, key-only, same bucket count as Misra.
            let slab = SlabHash::<KeyOnly>::new(SlabHashConfig {
                seed: 0x7B7,
                ..SlabHashConfig::with_buckets(buckets)
            });
            slab.bulk_build_keys(&w.initial_keys, grid);
            let mut slab_counters = PerfCounters::default();
            for batch in &w.batches {
                let mut reqs: Vec<Request> = batch.iter().map(|op| op.to_request()).collect();
                let report = slab.execute_batch(&mut reqs, grid);
                slab_counters.merge(&report.counters);
            }
            let slab_mops = model.estimate(&slab_counters, slab.device_bytes()).mops();

            // Misra: pre-allocate nodes for every insertion ever (its design).
            let total_inserts = (total_ops as f64 * gamma.insert).ceil() as u32 + 1024;
            let misra = MisraHash::new(buckets, initial as u32 + total_inserts);
            let init_ops: Vec<MisraOp> =
                w.initial_keys.iter().map(|&k| MisraOp::Insert(k)).collect();
            misra.execute_batch(&init_ops, grid);
            let mut misra_counters = PerfCounters::default();
            for batch in &w.batches {
                let ops: Vec<MisraOp> = batch
                    .iter()
                    .map(|op| match *op {
                        ConcurrentOp::Insert(k) => MisraOp::Insert(k),
                        ConcurrentOp::Delete(k) => MisraOp::Delete(k),
                        ConcurrentOp::SearchHit(k) | ConcurrentOp::SearchMiss(k) => {
                            MisraOp::Search(k)
                        }
                    })
                    .collect();
                let (_, report) = misra.execute_batch(&ops, grid);
                misra_counters.merge(&report.counters);
            }
            let misra_mops = model.estimate(&misra_counters, misra.device_bytes()).mops();

            speedups[gi].push(slab_mops / misra_mops);
            cells.push(mops(slab_mops));
            cells.push(mops(misra_mops));
        }
        table.row(cells);
    }
    table.finish(csv);
    println!(
        "geomean slabhash/misra speedup: 20% updates {:.1}x (paper 3.1x), \
         40% updates {:.1}x (paper 4.3x), 100% updates {:.1}x (paper 5.1x)",
        geomean(&speedups[0]).unwrap_or(f64::NAN),
        geomean(&speedups[1]).unwrap_or(f64::NAN),
        geomean(&speedups[2]).unwrap_or(f64::NAN),
    );
}
