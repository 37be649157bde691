//! Figure 5 — performance vs total number of stored elements (paper §VI-A).
//!
//! Memory utilization fixed at 60 % (average slab count ~0.7); the table
//! size n sweeps 2¹⁶ … 2²⁷.
//!
//! * `fig5 a` — build rate vs n;
//! * `fig5 b` — search rate vs n (as many queries as elements, all / none);
//! * `fig5` — both.
//!
//! The default sweep stops at 2²² to keep simulation wall time reasonable;
//! `--full` restores the paper's 2²⁷ endpoint (needs ~8 GB RAM and patience)
//! and `--quick` stops at 2²⁰.

use gpu_baselines::{CuckooConfig, CuckooHash};
use slab_bench::{
    build_slab_hash_at, geomean, mops, paper_model, queries_all_exist, queries_none_exist,
    random_pairs, Args, Measurement, Table,
};

const UTILIZATION: f64 = 0.6;

fn main() {
    let args = Args::parse();
    let grid = args.grid();
    let model = paper_model();
    let max_log: u32 = args.value("max-n").unwrap_or(if args.flag("full") {
        27
    } else if args.flag("quick") {
        20
    } else {
        22
    });
    let sizes: Vec<usize> = (16..=max_log).map(|p| 1usize << p).collect();
    let csv = args.csv_dir();

    println!("Figure 5 reproduction: n = 2^16 .. 2^{max_log}, utilization fixed at 60 %");
    println!("model: {}", model.name);

    match args.subcommand() {
        Some("a") => fig5a(&sizes, &grid, &model, csv.as_deref()),
        Some("b") => fig5b(&sizes, &grid, &model, csv.as_deref()),
        None => {
            fig5a(&sizes, &grid, &model, csv.as_deref());
            fig5b(&sizes, &grid, &model, csv.as_deref());
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}; expected a or b");
            std::process::exit(2);
        }
    }
}

fn fig5a(
    sizes: &[usize],
    grid: &simt::Grid,
    model: &simt::GpuModel,
    csv: Option<&std::path::Path>,
) {
    let mut table = Table::new(
        "Fig 5a build rate vs table size (60% utilization)",
        &[
            "n",
            "slab sim",
            "slab cpu",
            "cudpp sim",
            "cudpp cpu",
            "roofline",
        ],
    );
    let mut ratios = Vec::new();
    for &n in sizes {
        let pairs = random_pairs(n, 0);
        let (_t, m_slab) = build_slab_hash_at(&pairs, UTILIZATION, grid, model);
        let mut cuckoo = CuckooHash::new(
            n,
            CuckooConfig {
                load_factor: UTILIZATION,
                ..CuckooConfig::default()
            },
        );
        let (_, rep) = cuckoo.bulk_build(&pairs, grid).expect("cuckoo build");
        let m_cudpp = Measurement::from_report(&rep, model, cuckoo.device_bytes());
        ratios.push(m_cudpp.sim_mops / m_slab.sim_mops);
        table.row(vec![
            format!("2^{}", n.trailing_zeros()),
            mops(m_slab.sim_mops),
            mops(m_slab.cpu_mops),
            mops(m_cudpp.sim_mops),
            mops(m_cudpp.cpu_mops),
            m_slab.roofline_cell(),
        ]);
    }
    table.finish(csv);
    println!(
        "geomean cuckoo/slabhash build speedup over all n: {:.2}x (paper: 1.19x at 65%)",
        geomean(&ratios).unwrap_or(f64::NAN)
    );
    println!("(paper shape: CUDPP particularly fast at small n — atomics land in L2)");
}

fn fig5b(
    sizes: &[usize],
    grid: &simt::Grid,
    model: &simt::GpuModel,
    csv: Option<&std::path::Path>,
) {
    let mut table = Table::new(
        "Fig 5b search rate vs table size (60% utilization)",
        &[
            "n",
            "slab-all sim",
            "slab-none sim",
            "cudpp-all sim",
            "cudpp-none sim",
        ],
    );
    let mut slab_all = Vec::new();
    let mut slab_none = Vec::new();
    let mut r_all = Vec::new();
    let mut r_none = Vec::new();
    for &n in sizes {
        let pairs = random_pairs(n, 0);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let q_all = queries_all_exist(&keys, n, 5);
        let q_none = queries_none_exist(n);

        let (slab, _) = build_slab_hash_at(&pairs, UTILIZATION, grid, model);
        let (_, rep) = slab.bulk_search(&q_all, grid);
        let sa = Measurement::from_report(&rep, model, slab.device_bytes());
        let (_, rep) = slab.bulk_search(&q_none, grid);
        let sn = Measurement::from_report(&rep, model, slab.device_bytes());

        let mut cuckoo = CuckooHash::new(
            n,
            CuckooConfig {
                load_factor: UTILIZATION,
                ..CuckooConfig::default()
            },
        );
        cuckoo.bulk_build(&pairs, grid).expect("cuckoo build");
        let (_, rep) = cuckoo.bulk_search(&q_all, grid);
        let ca = Measurement::from_report(&rep, model, cuckoo.device_bytes());
        let (_, rep) = cuckoo.bulk_search(&q_none, grid);
        let cn = Measurement::from_report(&rep, model, cuckoo.device_bytes());

        slab_all.push(sa.sim_mops);
        slab_none.push(sn.sim_mops);
        r_all.push(ca.sim_mops / sa.sim_mops);
        r_none.push(cn.sim_mops / sn.sim_mops);
        table.row(vec![
            format!("2^{}", n.trailing_zeros()),
            mops(sa.sim_mops),
            mops(sn.sim_mops),
            mops(ca.sim_mops),
            mops(cn.sim_mops),
        ]);
    }
    table.finish(csv);
    let hmean = |xs: &[f64]| xs.len() as f64 / xs.iter().map(|x| 1.0 / x).sum::<f64>();
    println!(
        "slab hash harmonic-mean search rate: all {} / none {} M q/s (paper: 861 / 793)",
        mops(hmean(&slab_all)),
        mops(hmean(&slab_none))
    );
    println!(
        "geomean cuckoo/slabhash speedup: search-all {:.2}x (paper 1.19x), search-none {:.2}x (paper 0.94x)",
        geomean(&r_all).unwrap_or(f64::NAN),
        geomean(&r_none).unwrap_or(f64::NAN)
    );
}
