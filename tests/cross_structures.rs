//! Cross-structure agreement and cost-model sanity: the slab hash, cuckoo
//! baseline and Misra baseline must agree on membership for identical
//! workloads, and the transaction counters must follow the paper's
//! analytical cost statements.

use gpu_baselines::{CuckooConfig, CuckooHash, MisraHash, MisraOp, MisraResult};
use simt::{Grid, PerfCounters};
use slab_hash::{KeyOnly, KeyValue, SlabHash, SlabHashConfig, WarpDriver};

fn keys(n: u32) -> Vec<u32> {
    (0..n).map(|k| k.wrapping_mul(2_654_435_761) >> 4).collect()
}

#[test]
fn all_three_structures_agree_on_membership() {
    let grid = Grid::new(4);
    let present = keys(4_000);
    let absent: Vec<u32> = (0..4_000u32).map(|k| k * 2 + 1_000_000_001).collect();

    // Slab hash (key-value; values = key+1).
    let slab = SlabHash::<KeyValue>::for_expected_elements(present.len(), 0.5, 1);
    let pairs: Vec<(u32, u32)> = present.iter().map(|&k| (k, k + 1)).collect();
    slab.bulk_build(&pairs, &grid);

    // Cuckoo.
    let mut cuckoo = CuckooHash::new(present.len(), CuckooConfig::default());
    cuckoo.bulk_build(&pairs, &grid).expect("cuckoo build");

    // Misra (key-only set).
    let misra = MisraHash::new(512, present.len() as u32 + 16);
    let ins: Vec<MisraOp> = present.iter().map(|&k| MisraOp::Insert(k)).collect();
    misra.execute_batch(&ins, &grid);

    let (slab_hits, _) = slab.bulk_search(&present, &grid);
    let (cuckoo_hits, _) = cuckoo.bulk_search(&present, &grid);
    let misra_q: Vec<MisraOp> = present.iter().map(|&k| MisraOp::Search(k)).collect();
    let (misra_hits, _) = misra.execute_batch(&misra_q, &grid);
    for i in 0..present.len() {
        assert_eq!(slab_hits[i], Some(present[i] + 1), "slab hit {i}");
        assert!(cuckoo_hits[i].is_some(), "cuckoo hit {i}");
        assert_eq!(misra_hits[i], MisraResult::Found, "misra hit {i}");
    }

    let (slab_miss, _) = slab.bulk_search(&absent, &grid);
    let (cuckoo_miss, _) = cuckoo.bulk_search(&absent, &grid);
    let misra_q: Vec<MisraOp> = absent.iter().map(|&k| MisraOp::Search(k)).collect();
    let (misra_miss, _) = misra.execute_batch(&misra_q, &grid);
    for i in 0..absent.len() {
        assert_eq!(slab_miss[i], None);
        assert!(cuckoo_miss[i].is_none());
        assert_eq!(misra_miss[i], MisraResult::NotFound);
    }
}

/// Paper §III-C: an unsuccessful search costs Θ(1 + β) memory accesses.
#[test]
fn slab_search_cost_scales_with_beta() {
    let grid = Grid::sequential();
    let n = 30_000usize;
    let pairs: Vec<(u32, u32)> = keys(n as u32).into_iter().map(|k| (k, 0)).collect();
    let probes: Vec<u32> = (0..n as u32).map(|k| k * 2 + 1_000_000_001).collect();

    let mut last = 0.0;
    for beta_target in [0.5f64, 1.0, 2.0, 4.0] {
        let buckets = ((n as f64) / (15.0 * beta_target)).ceil() as u32;
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(buckets));
        t.bulk_build(&pairs, &grid);
        let (_, rep) = t.bulk_search(&probes, &grid);
        // One coalesced 128 B slab read per chain slab.
        let reads_per_miss = rep.counters.slab_reads as f64 / probes.len() as f64;
        assert!(
            reads_per_miss > last,
            "cost must grow with beta: {reads_per_miss} after {last}"
        );
        // Θ(1 + β): within a small constant of the analytic count.
        let expected = 1.0 + t.beta();
        assert!(
            reads_per_miss <= expected * 1.3 + 0.5,
            "miss cost {reads_per_miss} far above Θ(1+β) = {expected}"
        );
        last = reads_per_miss;
    }
}

/// Paper §VI-A: cuckoo's fast path is one atomic per insert and ~1 probe
/// per search at low load factor.
#[test]
fn cuckoo_fast_path_costs() {
    let grid = Grid::sequential();
    let n = 10_000;
    let pairs: Vec<(u32, u32)> = keys(n).into_iter().map(|k| (k, 1)).collect();
    let mut t = CuckooHash::new(
        pairs.len(),
        CuckooConfig {
            load_factor: 0.2,
            ..CuckooConfig::default()
        },
    );
    let (_, build) = t.bulk_build(&pairs, &grid).unwrap();
    let exch_per_insert = build.counters.atomic_exchanges as f64 / pairs.len() as f64;
    assert!(
        (1.0..1.35).contains(&exch_per_insert),
        "at 20% load ~1 exchange/insert, got {exch_per_insert}"
    );

    let queries: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let (_, search) = t.bulk_search(&queries, &grid);
    let probes = search.counters.sector_reads as f64 / queries.len() as f64;
    assert!(
        (1.0..1.6).contains(&probes),
        "at 20% load ~1 probe/search, got {probes}"
    );
}

/// The slab hash (key-only) and Misra process identical concurrent batches
/// to the same final membership.
#[test]
fn slab_and_misra_agree_after_mixed_batches() {
    let grid = Grid::new(4);
    let slab = SlabHash::<KeyOnly>::new(SlabHashConfig::with_buckets(64));
    let misra = MisraHash::new(64, 20_000);

    let initial = keys(5_000);
    slab.bulk_build_keys(&initial, &grid);
    let ins: Vec<MisraOp> = initial.iter().map(|&k| MisraOp::Insert(k)).collect();
    misra.execute_batch(&ins, &grid);

    // Mixed phase: delete every third, insert a new block.
    let mut slab_reqs = Vec::new();
    let mut misra_ops = Vec::new();
    for (i, &k) in initial.iter().enumerate() {
        if i % 3 == 0 {
            slab_reqs.push(slab_hash::Request::delete(k));
            misra_ops.push(MisraOp::Delete(k));
        }
    }
    for k in keys(2_000).iter().map(|k| k ^ 0x4000_0000) {
        slab_reqs.push(slab_hash::Request::replace(k, 0));
        misra_ops.push(MisraOp::Insert(k));
    }
    slab.execute_batch(&mut slab_reqs, &grid);
    misra.execute_batch(&misra_ops, &grid);

    assert_eq!(slab.len(), misra.len(), "live sizes diverged");

    // Membership agreement over present & deleted keys.
    let mut warp = WarpDriver::new(&slab);
    let mut c = PerfCounters::default();
    for (i, &k) in initial.iter().enumerate() {
        let in_slab = warp.contains(k);
        let in_misra = misra.search(k, &mut c) == MisraResult::Found;
        assert_eq!(in_slab, in_misra, "key {k}");
        assert_eq!(in_slab, i % 3 != 0);
    }
}

/// Misra's traversal is per-thread and scattered; the slab hash's is
/// warp-cooperative and coalesced — on identical chains the transaction
/// *types* must differ exactly that way (the paper's core comparison).
#[test]
fn transaction_profile_slab_vs_misra() {
    let grid = Grid::sequential();
    let ks = keys(3_000);

    let slab = SlabHash::<KeyOnly>::new(SlabHashConfig::with_buckets(32));
    slab.bulk_build_keys(&ks, &grid);
    let (_, rep) = slab.bulk_search(&ks, &grid);
    // Coalesced traffic only: whole slabs.
    assert!(rep.counters.slab_reads > 0);
    assert_eq!(rep.counters.divergent_steps, 0);

    let misra = MisraHash::new(32, 4_000);
    let ins: Vec<MisraOp> = ks.iter().map(|&k| MisraOp::Insert(k)).collect();
    misra.execute_batch(&ins, &grid);
    let q: Vec<MisraOp> = ks.iter().map(|&k| MisraOp::Search(k)).collect();
    let (_, rep) = misra.execute_batch(&q, &grid);
    assert_eq!(rep.counters.slab_reads, 0);
    assert!(rep.counters.divergent_steps > ks.len() as u64);
    assert!(rep.counters.sector_reads > ks.len() as u64);
}
