//! Criterion: warp-primitive round cost.
//!
//! A "warp round" here is the primitive mix one slab visit performs
//! (is-empty ballot and key ballot_eq over the lane vector, ffs on the
//! mask), and `match_any` is the heavy case — 32 vectorized equality
//! ballots.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use simt::warp::{ballot, ballot_eq, ffs, match_any, WARP_SIZE};

fn lane_vector(seed: u32) -> [u32; WARP_SIZE] {
    let mut v = [0u32; WARP_SIZE];
    for (i, slot) in v.iter_mut().enumerate() {
        let mut x = seed ^ (i as u32).wrapping_mul(0x9E37_79B9);
        x ^= x >> 16;
        x = x.wrapping_mul(0x7feb_352d);
        x ^= x >> 15;
        // Collide a few lanes so match_any has non-trivial groups.
        *slot = x % 11;
    }
    v
}

fn bench_warp_round(c: &mut Criterion) {
    let lanes = lane_vector(0xBEEF);

    let mut group = c.benchmark_group("warp_round");
    // One slab visit's primitive mix: is-empty ballot, key ballot_eq, and
    // leader election via ffs.
    group.bench_with_input(BenchmarkId::new("bitmask", "round"), &lanes, |b, v| {
        b.iter(|| {
            let empties = ballot(black_box(v), |x| x == u32::MAX);
            let hits = ballot_eq(black_box(v), black_box(7));
            let lead = ffs(hits | empties).map_or(0, |l| l as u32);
            black_box(empties ^ hits ^ lead)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("match_any");
    // The all-lanes conflict census: 32 packed equality ballots.
    group.bench_with_input(BenchmarkId::new("bitmask", "census"), &lanes, |b, v| {
        b.iter(|| black_box(match_any(black_box(v))))
    });
    group.finish();
}

criterion_group!(benches, bench_warp_round);
criterion_main!(benches);
