//! §II related-work shoot-out: every hash scheme the paper discusses, on
//! one workload.
//!
//! The paper's §II verdict: "Alcantara's cuckoo hashing appears to be the
//! best general-purpose in-core hash table option with the best performance
//! measures … other proposed methods such as stadium hashing and Robin Hood
//! hashing are unable to compete with its peak performance." This binary
//! checks that ordering quantitatively: bulk build and bulk search (hit and
//! miss) for the slab hash, CUDPP cuckoo, Robin Hood, stadium hashing, and
//! Misra's chaining table, at a low and a high memory utilization.
//!
//! Flags: `--n <log2>` (default 20), `--csv <dir>`, `--threads N`.

use gpu_baselines::{CuckooConfig, CuckooHash, MisraHash, MisraOp, RobinHoodHash, StadiumHash};
use simt::PerfCounters;
use slab_bench::{
    build_slab_hash_at, mops, paper_model, queries_all_exist, queries_none_exist, random_pairs,
    Args, Measurement, Table,
};

fn main() {
    let args = Args::parse();
    let grid = args.grid();
    let model = paper_model();
    let log_n: u32 = args.value("n").unwrap_or(20);
    let n = 1usize << log_n;
    let csv = args.csv_dir();

    println!("§II related-work comparison: n = 2^{log_n}");
    println!("model: {}", model.name);

    for util in [0.5f64, 0.85] {
        let mut table = Table::new(
            format!(
                "All schemes at {:.0}% utilization (M ops/s, sim)",
                util * 100.0
            ),
            &["structure", "build", "search-all", "search-none"],
        );
        let pairs = random_pairs(n, 0);
        let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
        let q_all = queries_all_exist(&keys, n, 3);
        let q_none = queries_none_exist(n);

        // Slab hash (dynamic).
        let (slab, mb) = build_slab_hash_at(&pairs, util, &grid, &model);
        let (_, r) = slab.bulk_search(&q_all, &grid);
        let ma = Measurement::from_report(&r, &model, slab.device_bytes());
        let (_, r) = slab.bulk_search(&q_none, &grid);
        let mn = Measurement::from_report(&r, &model, slab.device_bytes());
        table.row(vec![
            "slab hash (dynamic)".into(),
            mops(mb.sim_mops),
            mops(ma.sim_mops),
            mops(mn.sim_mops),
        ]);

        // CUDPP cuckoo.
        let mut cuckoo = CuckooHash::new(
            n,
            CuckooConfig {
                load_factor: util,
                ..CuckooConfig::default()
            },
        );
        let (_, rb) = cuckoo.bulk_build(&pairs, &grid).expect("cuckoo build");
        let mb = Measurement::from_report(&rb, &model, cuckoo.device_bytes());
        let (_, r) = cuckoo.bulk_search(&q_all, &grid);
        let ma = Measurement::from_report(&r, &model, cuckoo.device_bytes());
        let (_, r) = cuckoo.bulk_search(&q_none, &grid);
        let mn = Measurement::from_report(&r, &model, cuckoo.device_bytes());
        table.row(vec![
            "cuckoo (CUDPP)".into(),
            mops(mb.sim_mops),
            mops(ma.sim_mops),
            mops(mn.sim_mops),
        ]);

        // Robin Hood.
        let rh = RobinHoodHash::new(n, util, 0x0B13);
        let rb = rh.bulk_build(&pairs, &grid).expect("robin hood build");
        let mb = Measurement::from_report(&rb, &model, rh.device_bytes());
        let (_, r) = rh.bulk_search(&q_all, &grid);
        let ma = Measurement::from_report(&r, &model, rh.device_bytes());
        let (_, r) = rh.bulk_search(&q_none, &grid);
        let mn = Measurement::from_report(&r, &model, rh.device_bytes());
        table.row(vec![
            "robin hood".into(),
            mops(mb.sim_mops),
            mops(ma.sim_mops),
            mops(mn.sim_mops),
        ]);

        // Stadium.
        let st = StadiumHash::new(n, util, 0x57AD);
        let rb = st.bulk_build(&pairs, &grid).expect("stadium build");
        let mb = Measurement::from_report(&rb, &model, st.device_bytes());
        let (_, r) = st.bulk_search(&q_all, &grid);
        let ma = Measurement::from_report(&r, &model, st.device_bytes());
        let (_, r) = st.bulk_search(&q_none, &grid);
        let mn = Measurement::from_report(&r, &model, st.device_bytes());
        table.row(vec![
            "stadium".into(),
            mops(mb.sim_mops),
            mops(ma.sim_mops),
            mops(mn.sim_mops),
        ]);

        // Misra (key-only; utilization fixed by its 50 % structural cap —
        // shown for completeness at matching bucket pressure).
        let misra = MisraHash::new((n / 8) as u32, n as u32 + 16);
        let ins: Vec<MisraOp> = keys.iter().map(|&k| MisraOp::Insert(k)).collect();
        let (_, rb) = misra.execute_batch(&ins, &grid);
        let mb = Measurement::from_report(&rb, &model, misra.device_bytes());
        let qa: Vec<MisraOp> = q_all.iter().map(|&k| MisraOp::Search(k)).collect();
        let (_, r) = misra.execute_batch(&qa, &grid);
        let ma = Measurement::from_report(&r, &model, misra.device_bytes());
        let qn: Vec<MisraOp> = q_none.iter().map(|&k| MisraOp::Search(k)).collect();
        let (_, r) = misra.execute_batch(&qn, &grid);
        let mn = Measurement::from_report(&r, &model, misra.device_bytes());
        table.row(vec![
            "misra (chaining)".into(),
            mops(mb.sim_mops),
            mops(ma.sim_mops),
            mops(mn.sim_mops),
        ]);

        table.finish(csv.as_deref());
        let _ = PerfCounters::default();
    }
    println!(
        "(expected ordering per §II: cuckoo's peak unbeaten by robin hood / stadium; the slab \
         hash competitive while being the only *dynamic* structure in the table)"
    );
}
