//! Figure 4 — performance vs memory efficiency (paper §VI-A).
//!
//! * `fig4 a` — build rate (M elem/s) vs memory utilization, n = 2²²,
//!   SlabHash (dynamic REPLACE build) vs CUDPP cuckoo (static bulk build).
//! * `fig4 b` — search rate (M queries/s) vs utilization, search-all /
//!   search-none for both tables.
//! * `fig4 c` — achieved memory utilization vs average slab count β
//!   (the paper's bucket-count sweep: 2796K … 56K buckets).
//! * `fig4` (no subcommand) — all three.
//!
//! Flags: `--n <log2>` (default 22), `--quick` (n = 2¹⁸), `--csv <dir>`,
//! `--threads N`, `--trials T` (default 1).

use gpu_baselines::{CuckooConfig, CuckooHash};
use slab_bench::{
    build_slab_hash_at, geomean, mops, paper_model, queries_all_exist, queries_none_exist,
    random_pairs, Args, Measurement, Table, UTILIZATION_SWEEP,
};
use slab_hash::{buckets_for_utilization, KeyValue, SlabHash, SlabHashConfig};

fn main() {
    let args = Args::parse();
    let grid = args.grid();
    let model = paper_model();
    let log_n: u32 = args
        .value("n")
        .unwrap_or(if args.flag("quick") { 18 } else { 22 });
    let n = 1usize << log_n;
    let trials: usize = args.value("trials").unwrap_or(1);
    let csv = args.csv_dir();

    println!("Figure 4 reproduction: n = 2^{log_n} = {n} elements, {trials} trial(s)");
    println!("model: {}", model.name);

    match args.subcommand() {
        Some("a") => fig4a(n, trials, &grid, &model, csv.as_deref()),
        Some("b") => fig4b(n, trials, &grid, &model, csv.as_deref()),
        Some("c") => fig4c(n, &grid, csv.as_deref()),
        None => {
            fig4a(n, trials, &grid, &model, csv.as_deref());
            fig4b(n, trials, &grid, &model, csv.as_deref());
            fig4c(n, &grid, csv.as_deref());
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; expected a, b or c");
            std::process::exit(2);
        }
    }
}

/// Builds a CUDPP cuckoo table at `load_factor` and returns its build
/// measurement (averaged over trials by the caller).
fn build_cuckoo(
    pairs: &[(u32, u32)],
    load_factor: f64,
    grid: &simt::Grid,
    model: &simt::GpuModel,
) -> (CuckooHash, Measurement) {
    let mut t = CuckooHash::new(
        pairs.len(),
        CuckooConfig {
            load_factor,
            ..CuckooConfig::default()
        },
    );
    let (_, report) = t.bulk_build(pairs, grid).expect("cuckoo build");
    let m = Measurement::from_report(&report, model, t.device_bytes());
    (t, m)
}

fn fig4a(
    n: usize,
    trials: usize,
    grid: &simt::Grid,
    model: &simt::GpuModel,
    csv: Option<&std::path::Path>,
) {
    let mut table = Table::new(
        "Fig 4a build rate vs memory utilization",
        &[
            "util",
            "B(slab)",
            "slab sim",
            "slab cpu",
            "cudpp sim",
            "cudpp cpu",
            "bound",
            "roofline",
        ],
    );
    let mut slab_rates = Vec::new();
    let mut cudpp_rates = Vec::new();
    for &util in &UTILIZATION_SWEEP {
        let mut slab_sim = Vec::new();
        let mut slab_cpu = Vec::new();
        let mut cudpp_sim = Vec::new();
        let mut cudpp_cpu = Vec::new();
        let mut bound = "";
        let mut roofline = String::new();
        for trial in 0..trials {
            let pairs = random_pairs(n, 0);
            let _ = trial;
            let (_t, m) = build_slab_hash_at(&pairs, util, grid, model);
            slab_sim.push(m.sim_mops);
            slab_cpu.push(m.cpu_mops);
            bound = m.bound;
            roofline = m.roofline_cell();
            let (_c, mc) = build_cuckoo(&pairs, util, grid, model);
            cudpp_sim.push(mc.sim_mops);
            cudpp_cpu.push(mc.cpu_mops);
        }
        let b = buckets_for_utilization::<KeyValue>(n, util);
        // `--trials 0` makes every per-utilization vector empty; report NaN
        // cells rather than panicking inside geomean.
        slab_rates.push(geomean(&slab_sim).unwrap_or(f64::NAN));
        cudpp_rates.push(geomean(&cudpp_sim).unwrap_or(f64::NAN));
        table.row(vec![
            format!("{util:.2}"),
            format!("{b}"),
            mops(geomean(&slab_sim).unwrap_or(f64::NAN)),
            mops(geomean(&slab_cpu).unwrap_or(f64::NAN)),
            mops(geomean(&cudpp_sim).unwrap_or(f64::NAN)),
            mops(geomean(&cudpp_cpu).unwrap_or(f64::NAN)),
            bound.to_string(),
            roofline,
        ]);
    }
    table.finish(csv);
    let speedup: Vec<f64> = cudpp_rates
        .iter()
        .zip(&slab_rates)
        .map(|(c, s)| c / s)
        .collect();
    println!(
        "geomean cuckoo/slabhash build speedup over all utilizations: {:.2}x (paper: 1.33x)",
        geomean(&speedup).unwrap_or(f64::NAN)
    );
    println!(
        "slab hash peak build rate: {} M/s (paper: 512 M/s)",
        mops(slab_rates.iter().cloned().fold(0.0, f64::max))
    );
}

fn fig4b(
    n: usize,
    trials: usize,
    grid: &simt::Grid,
    model: &simt::GpuModel,
    csv: Option<&std::path::Path>,
) {
    let mut table = Table::new(
        "Fig 4b search rate vs memory utilization",
        &[
            "util",
            "slab-all sim",
            "slab-none sim",
            "cudpp-all sim",
            "cudpp-none sim",
            "slab-all cpu",
        ],
    );
    let mut ratios_all = Vec::new();
    let mut ratios_none = Vec::new();
    let mut slab_peak: f64 = 0.0;
    for &util in &UTILIZATION_SWEEP {
        let mut acc = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for trial in 0..trials {
            let pairs = random_pairs(n, 0);
            let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
            let q_all = queries_all_exist(&keys, n, 0xA11 + trial as u64);
            let q_none = queries_none_exist(n);

            let (slab, _) = build_slab_hash_at(&pairs, util, grid, model);
            let (_, r) = slab.bulk_search(&q_all, grid);
            let m_all = Measurement::from_report(&r, model, slab.device_bytes());
            let (_, r) = slab.bulk_search(&q_none, grid);
            let m_none = Measurement::from_report(&r, model, slab.device_bytes());

            let (cuckoo, _) = build_cuckoo(&pairs, util, grid, model);
            let (_, r) = cuckoo.bulk_search(&q_all, grid);
            let c_all = Measurement::from_report(&r, model, cuckoo.device_bytes());
            let (_, r) = cuckoo.bulk_search(&q_none, grid);
            let c_none = Measurement::from_report(&r, model, cuckoo.device_bytes());

            acc[0].push(m_all.sim_mops);
            acc[1].push(m_none.sim_mops);
            acc[2].push(c_all.sim_mops);
            acc[3].push(c_none.sim_mops);
            acc[4].push(m_all.cpu_mops);
        }
        let g: Vec<f64> = acc.iter().map(|v| geomean(v).unwrap_or(f64::NAN)).collect();
        slab_peak = slab_peak.max(g[0]).max(g[1]);
        ratios_all.push(g[2] / g[0]);
        ratios_none.push(g[3] / g[1]);
        table.row(vec![
            format!("{util:.2}"),
            mops(g[0]),
            mops(g[1]),
            mops(g[2]),
            mops(g[3]),
            mops(g[4]),
        ]);
    }
    table.finish(csv);
    println!(
        "geomean cuckoo/slabhash speedup: search-all {:.2}x (paper 2.08x), search-none {:.2}x (paper 2.04x)",
        geomean(&ratios_all).unwrap_or(f64::NAN),
        geomean(&ratios_none).unwrap_or(f64::NAN)
    );
    println!(
        "slab hash peak search rate: {} M q/s (paper: 937 M q/s)",
        mops(slab_peak)
    );
}

fn fig4c(n: usize, grid: &simt::Grid, csv: Option<&std::path::Path>) {
    // The paper's bucket counts, scaled from its n = 2^22 to ours.
    let paper_buckets: [u32; 10] = [
        2_796_203, 1_398_101, 699_051, 466_034, 279_620, 186_414, 139_810, 93_207, 69_905, 55_924,
    ];
    let scale = n as f64 / (1u64 << 22) as f64;
    let mut table = Table::new(
        "Fig 4c memory utilization vs average slab count",
        &["B", "beta", "mean slabs/bucket", "utilization", "max util"],
    );
    for &pb in &paper_buckets {
        let b = ((pb as f64 * scale).round() as u32).max(1);
        let pairs = random_pairs(n, 0);
        let t = SlabHash::<KeyValue>::new(SlabHashConfig {
            seed: 0x4c,
            ..SlabHashConfig::with_buckets(b)
        });
        t.bulk_build(&pairs, grid);
        table.row(vec![
            format!("{b}"),
            format!("{:.3}", t.beta()),
            format!("{:.3}", t.mean_slabs_per_bucket()),
            format!("{:.3}", t.memory_utilization()),
            "0.938".into(),
        ]);
    }
    table.finish(csv);
    println!("(utilization must approach Mx/(Mx+y) = 0.94 as B shrinks; paper Fig. 4c)");
}
