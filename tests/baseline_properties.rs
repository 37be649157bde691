//! Property-style tests for the baseline hash schemes: each must agree with
//! a `HashMap` model on arbitrary build + query workloads.
//!
//! Originally written with proptest; now driven by seeded `StdRng` case
//! generation (the build has no registry access), preserving the same
//! model-equivalence and differential-agreement invariants.

use std::collections::HashMap;

use gpu_baselines::{CuckooConfig, CuckooHash, RobinHoodHash, StadiumHash};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simt::Grid;

/// Distinct keys below the sentinel range, deduplicated preserving order.
fn dedup(pairs: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
    let mut seen = std::collections::HashSet::new();
    pairs
        .into_iter()
        .filter(|(k, _)| *k < 0xFFFF_0000 && seen.insert(*k))
        .collect()
}

/// A random raw workload: up to `max_pairs` arbitrary pairs (deduplicated,
/// guaranteed non-empty) plus up to `max_probes` query keys.
fn workload(rng: &mut StdRng, max_pairs: usize, max_probes: usize) -> (Vec<(u32, u32)>, Vec<u32>) {
    loop {
        let n = rng.gen_range(1..max_pairs);
        let raw: Vec<(u32, u32)> = (0..n)
            .map(|_| (rng.gen::<u32>(), rng.gen::<u32>()))
            .collect();
        let pairs = dedup(raw);
        if pairs.is_empty() {
            continue; // all keys landed in the sentinel range; redraw
        }
        let probes: Vec<u32> = (0..rng.gen_range(0..max_probes))
            .map(|_| rng.gen_range(0u32..0xFFFF_0000))
            .collect();
        return (pairs, probes);
    }
}

#[test]
fn cuckoo_matches_model() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0xCC00 ^ case);
        let (pairs, probes) = workload(&mut rng, 500, 200);
        let model: HashMap<u32, u32> = pairs.iter().copied().collect();
        let mut t = CuckooHash::new(pairs.len(), CuckooConfig::default());
        t.bulk_build(&pairs, &Grid::sequential()).expect("build");
        assert_eq!(t.len(), model.len(), "case {case}");
        let (res, _) = t.bulk_search(&probes, &Grid::sequential());
        for (q, r) in probes.iter().zip(&res) {
            assert_eq!(*r, model.get(q).copied(), "case {case}: query {q}");
        }
    }
}

#[test]
fn robin_hood_matches_model() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0x2B00 ^ case);
        let (pairs, probes) = workload(&mut rng, 500, 200);
        let load = 0.2 + 0.7 * rng.gen::<f64>();
        let model: HashMap<u32, u32> = pairs.iter().copied().collect();
        let t = RobinHoodHash::new(pairs.len(), load, 0xB0B);
        t.bulk_build(&pairs, &Grid::sequential()).expect("build");
        assert_eq!(t.len(), model.len(), "case {case}");
        let (res, _) = t.bulk_search(&probes, &Grid::sequential());
        for (q, r) in probes.iter().zip(&res) {
            assert_eq!(*r, model.get(q).copied(), "case {case}: query {q}");
        }
    }
}

#[test]
fn stadium_matches_model() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0x57AD ^ case);
        let (pairs, probes) = workload(&mut rng, 500, 200);
        let load = 0.2 + 0.7 * rng.gen::<f64>();
        let model: HashMap<u32, u32> = pairs.iter().copied().collect();
        let t = StadiumHash::new(pairs.len(), load, 0x57AD);
        t.bulk_build(&pairs, &Grid::sequential()).expect("build");
        assert_eq!(t.len(), model.len(), "case {case}");
        let (res, _) = t.bulk_search(&probes, &Grid::sequential());
        for (q, r) in probes.iter().zip(&res) {
            assert_eq!(*r, model.get(q).copied(), "case {case}: query {q}");
        }
    }
}

/// All four static schemes return identical answers for identical workloads
/// (differential testing).
#[test]
fn schemes_agree_differentially() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ case);
        let (pairs, probes) = workload(&mut rng, 300, 150);
        let grid = Grid::sequential();

        let mut cuckoo = CuckooHash::new(pairs.len(), CuckooConfig::default());
        cuckoo.bulk_build(&pairs, &grid).expect("cuckoo");
        let rh = RobinHoodHash::new(pairs.len(), 0.5, 1);
        rh.bulk_build(&pairs, &grid).expect("rh");
        let st = StadiumHash::new(pairs.len(), 0.5, 2);
        st.bulk_build(&pairs, &grid).expect("st");
        let slab =
            slab_hash::SlabHash::<slab_hash::KeyValue>::for_expected_elements(pairs.len(), 0.5, 3);
        slab.bulk_build(&pairs, &grid);

        let (rc, _) = cuckoo.bulk_search(&probes, &grid);
        let (rr, _) = rh.bulk_search(&probes, &grid);
        let (rs, _) = st.bulk_search(&probes, &grid);
        let (rl, _) = slab.bulk_search(&probes, &grid);
        for i in 0..probes.len() {
            assert_eq!(
                rc[i], rr[i],
                "case {case}: cuckoo vs robin hood @ {}",
                probes[i]
            );
            assert_eq!(
                rc[i], rs[i],
                "case {case}: cuckoo vs stadium @ {}",
                probes[i]
            );
            assert_eq!(
                rc[i], rl[i],
                "case {case}: cuckoo vs slab hash @ {}",
                probes[i]
            );
        }
    }
}
