//! Warp-wide intrinsics over lockstep lane state.
//!
//! On NVIDIA hardware a *warp* is a SIMD group of 32 threads executing in
//! lockstep; warp-wide instructions (`__ballot`, `__shfl`, `__ffs`,
//! `__match_any`) let the lanes communicate without going through memory.
//! The slab hash's warp-cooperative work sharing strategy (paper §IV-A) is
//! built entirely on these primitives, so we model them exactly: a warp's
//! per-lane state is a `[T; 32]` array and each intrinsic is a pure
//! cross-lane function over it.
//!
//! The cross-lane primitives are branchless u32 bitmask arithmetic (fixed-
//! shape compare chains the optimizer lowers to packed vector compares plus
//! movemask), so a simulated warp round — ballot, eq-ballot, ffs,
//! match-any — costs a handful of host instructions instead of 32 branchy
//! iterations. The test build keeps a literal per-lane transcription of the
//! paper's pseudocode (`scalar`) as the oracle the property tests pin these
//! against, bit for bit.

/// SIMD width of the simulated machine. Fixed at 32 to match every NVIDIA
/// architecture the paper targets (Kepler through today).
pub const WARP_SIZE: usize = 32;

/// A full warp mask: every lane's ballot bit set.
pub const FULL_MASK: u32 = u32::MAX;

/// Lane index within a warp (0..32). A thin newtype so signatures make it
/// obvious which `u32`s are lane ids rather than data.
pub type Lane = usize;

/// `__ballot_sync`: returns a 32-bit mask with bit *i* set iff `pred(lane_i)`
/// is true. All lanes receive the same value (we return it once; the caller
/// is lockstep by construction). The predicate is evaluated branchlessly
/// into bit *i* — an or-reduction with no data-dependent branches, so the
/// whole ballot flattens into straight-line code (vectorized when `pred` is
/// a pure compare). It takes its lane by value (`T: Copy`) so there is no
/// reference indirection.
#[inline(always)]
pub fn ballot<T: Copy>(lanes: &[T; WARP_SIZE], mut pred: impl FnMut(T) -> bool) -> u32 {
    let mut mask = 0u32;
    for (i, &lane) in lanes.iter().enumerate() {
        mask |= u32::from(pred(lane)) << i;
    }
    mask
}

/// `__ballot_sync` over a plain array of lane values compared for equality:
/// 32 independent `v == target` bits or-folded by position — the optimizer
/// emits four 8-wide packed compares + movemask instead of a 32-iteration
/// branchy loop.
#[inline(always)]
pub fn ballot_eq(values: &[u32; WARP_SIZE], target: u32) -> u32 {
    let mut mask = 0u32;
    for (i, &v) in values.iter().enumerate() {
        mask |= u32::from(v == target) << i;
    }
    mask
}

/// `__match_any_sync`: for every lane *i*, the mask of lanes whose value
/// equals `values[i]` (each lane's own bit always set). One wide
/// equality-ballot per lane: still 32 ballots, but each is a packed compare,
/// not 32 branches.
#[inline(always)]
pub fn match_any(values: &[u32; WARP_SIZE]) -> [u32; WARP_SIZE] {
    let mut out = [0u32; WARP_SIZE];
    for (i, &v) in values.iter().enumerate() {
        out[i] = ballot_eq(values, v);
    }
    out
}

/// `__shfl_sync(v, src_lane)`: every lane reads lane `src`'s value. In the
/// scalarized model that is a single indexed read.
#[inline(always)]
pub fn shfl<T: Copy>(lanes: &[T; WARP_SIZE], src: Lane) -> T {
    debug_assert!(src < WARP_SIZE, "shuffle source lane out of range");
    lanes[src]
}

/// CUDA `__ffs(mask) - 1` adjusted to return the first set bit as a lane
/// index, or `None` when the mask is empty. The paper uses `__ffs` both as
/// `next_prior()` (pick the next queued operation) and to locate the found /
/// destination lane in a ballot result. A single count-trailing-zeros
/// instruction.
#[inline(always)]
pub fn ffs(mask: u32) -> Option<Lane> {
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as Lane)
    }
}

/// Number of lanes whose ballot bit is set.
#[inline(always)]
pub fn popc(mask: u32) -> u32 {
    mask.count_ones()
}

/// Mask with bits `[0, n)` set — e.g. the paper's `VALID_KEY_MASK` builders.
#[inline(always)]
pub fn lanes_below(n: usize) -> u32 {
    debug_assert!(n <= WARP_SIZE);
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// Mask of the even lanes among the first `n` lanes (key lanes in the
/// key-value layout, where even lanes hold keys and odd lanes values).
#[inline(always)]
pub fn even_lanes_below(n: usize) -> u32 {
    lanes_below(n) & 0x5555_5555
}

/// Reference oracle implementations: literal per-lane loops with branches,
/// exactly as the paper's pseudocode reads. Slow on purpose — the property
/// tests prove the bitmask primitives above bit-identical to these.
#[cfg(test)]
mod scalar {
    use super::{Lane, WARP_SIZE};

    /// `__ballot_sync` oracle: one branchy iteration per lane.
    pub fn ballot<T: Copy>(lanes: &[T; WARP_SIZE], mut pred: impl FnMut(T) -> bool) -> u32 {
        let mut mask = 0u32;
        for (i, &lane) in lanes.iter().enumerate() {
            if pred(lane) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// Equality-ballot oracle: 32 branchy compares.
    pub fn ballot_eq(values: &[u32; WARP_SIZE], target: u32) -> u32 {
        let mut mask = 0u32;
        for (i, &v) in values.iter().enumerate() {
            if v == target {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// `__ffs` oracle: walk the mask bit by bit from lane 0.
    pub fn ffs(mask: u32) -> Option<Lane> {
        (0..WARP_SIZE).find(|&i| mask & (1 << i) != 0)
    }

    /// `__match_any_sync` oracle: for every lane, the mask of lanes holding
    /// the same value — 32 × 32 branchy compares.
    pub fn match_any(values: &[u32; WARP_SIZE]) -> [u32; WARP_SIZE] {
        let mut out = [0u32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            for (j, &v) in values.iter().enumerate() {
                if v == values[i] {
                    out[i] |= 1 << j;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballot_sets_expected_bits() {
        let mut lanes = [0u32; WARP_SIZE];
        lanes[0] = 7;
        lanes[5] = 7;
        lanes[31] = 7;
        let mask = ballot(&lanes, |v| v == 7);
        assert_eq!(mask, (1 << 0) | (1 << 5) | (1u32 << 31));
    }

    #[test]
    fn ballot_empty_and_full() {
        let lanes = [1u32; WARP_SIZE];
        assert_eq!(ballot(&lanes, |v| v == 0), 0);
        assert_eq!(ballot(&lanes, |v| v == 1), FULL_MASK);
    }

    #[test]
    fn ballot_eq_matches_closure_ballot() {
        let mut lanes = [0u32; WARP_SIZE];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (i % 3) as u32;
        }
        assert_eq!(ballot_eq(&lanes, 2), ballot(&lanes, |v| v == 2));
    }

    #[test]
    fn shfl_broadcasts_source_lane() {
        let mut lanes = [0u64; WARP_SIZE];
        lanes[17] = 0xdead_beef;
        assert_eq!(shfl(&lanes, 17), 0xdead_beef);
        assert_eq!(shfl(&lanes, 0), 0);
    }

    #[test]
    fn ffs_finds_lowest_lane() {
        assert_eq!(ffs(0), None);
        assert_eq!(ffs(0b1000), Some(3));
        assert_eq!(ffs(FULL_MASK), Some(0));
        assert_eq!(ffs(1 << 31), Some(31));
    }

    #[test]
    fn ffs_is_priority_order_for_work_queue() {
        // next_prior() semantics: repeatedly clearing the returned bit walks
        // the work queue from lane 0 upward.
        let mut queue = 0b1010_0100u32;
        let mut order = vec![];
        while let Some(lane) = ffs(queue) {
            order.push(lane);
            queue &= !(1 << lane);
        }
        assert_eq!(order, vec![2, 5, 7]);
    }

    #[test]
    fn lane_masks() {
        assert_eq!(lanes_below(0), 0);
        assert_eq!(lanes_below(30), 0x3FFF_FFFF);
        assert_eq!(lanes_below(32), u32::MAX);
        // Even lanes 0,2,..,28 among the first 30.
        assert_eq!(even_lanes_below(30), 0x1555_5555);
        assert_eq!(popc(even_lanes_below(30)), 15);
    }

    #[test]
    fn match_any_groups_equal_lanes() {
        let mut lanes = [0u32; WARP_SIZE];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (i % 4) as u32;
        }
        let groups = match_any(&lanes);
        for (i, &g) in groups.iter().enumerate() {
            assert_ne!(g & (1 << i), 0, "own bit always set");
            assert_eq!(g, ballot_eq(&lanes, lanes[i]));
        }
    }

    // ---- property tests: bitmask ≡ scalar oracle, bit for bit ----------

    /// Key-lane masks the ops layer applies to every ballot result: the
    /// key-value layout (even lanes 0..30), the key-only layout (lanes
    /// 0..30), and the degenerate edges.
    const KEY_LANE_MASKS: [u32; 4] = [0x1555_5555, 0x3FFF_FFFF, 0, FULL_MASK];

    /// Small deterministic PRNG (splitmix64) so the property tests need no
    /// external crates and replay identically.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn lanes(&mut self, spread: u32) -> [u32; WARP_SIZE] {
            let mut out = [0u32; WARP_SIZE];
            for v in out.iter_mut() {
                *v = (self.next() as u32) % spread.max(1);
            }
            out
        }
    }

    #[test]
    fn ffs_matches_scalar_exhaustively_near_edges() {
        // All 16-bit masks in the low half, plus every single bit and a
        // random sample of full-width masks.
        for m in 0u32..=0xFFFF {
            assert_eq!(ffs(m), scalar::ffs(m), "mask {m:#x}");
        }
        for b in 0..32 {
            let m = 1u32 << b;
            assert_eq!(ffs(m), scalar::ffs(m));
            assert_eq!(ffs(m | 0x8000_0000), scalar::ffs(m | 0x8000_0000));
        }
        let mut rng = Mix(7);
        for _ in 0..10_000 {
            let m = rng.next() as u32;
            assert_eq!(ffs(m), scalar::ffs(m), "mask {m:#x}");
        }
    }

    #[test]
    fn ballot_eq_matches_scalar_on_seeded_lanes() {
        let mut rng = Mix(0x5eed);
        for spread in [1, 2, 3, 8, 1 << 16, u32::MAX] {
            for _ in 0..2_000 {
                let lanes = rng.lanes(spread);
                let target = (rng.next() as u32) % spread.max(1);
                let w = ballot_eq(&lanes, target);
                let s = scalar::ballot_eq(&lanes, target);
                assert_eq!(w, s, "lanes {lanes:?} target {target}");
                for km in KEY_LANE_MASKS {
                    assert_eq!(w & km, s & km);
                }
            }
        }
    }

    #[test]
    fn ballot_matches_scalar_on_predicates() {
        let mut rng = Mix(0xB411);
        for _ in 0..2_000 {
            let lanes = rng.lanes(16);
            let t = (rng.next() as u32) % 16;
            assert_eq!(
                ballot(&lanes, |v| v == t),
                scalar::ballot(&lanes, |v| v == t)
            );
            assert_eq!(
                ballot(&lanes, |v| v > t),
                scalar::ballot(&lanes, |v| v > t)
            );
            let bools: [bool; WARP_SIZE] = core::array::from_fn(|i| lanes[i] & 1 == 0);
            assert_eq!(ballot(&bools, |b| b), scalar::ballot(&bools, |b| b));
        }
    }

    #[test]
    fn match_any_matches_scalar() {
        let mut rng = Mix(0xACE);
        for spread in [1, 2, 5, 33, 1 << 20] {
            for _ in 0..500 {
                let lanes = rng.lanes(spread);
                assert_eq!(match_any(&lanes), scalar::match_any(&lanes));
            }
        }
    }
}
