//! Seeded input generators. Every key, operation and rank a workload sends
//! is drawn here from `--seed`, so one seed always produces the same
//! request streams and the program under test only ever sees the generated
//! requests.

use slab_hash::{BatchBuffer, OpKind, OpResult, Request};

/// Every value a workload writes is its key XOR this mask, so any answer
/// can be checked from the key alone.
pub const VALUE_MASK: u32 = 0x5555_5555;

/// The value stored under `key`.
pub fn value_of(key: u32) -> u32 {
    key ^ VALUE_MASK
}

/// SplitMix64: a small, well-mixed stream generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Index domain of [`KeySpace`]: 31 bits, so every key stays below every
/// table sentinel (`MAX_KEY` and up).
const KEY_MASK: u64 = (1 << 31) - 1;

/// First index of the miss domain. Stored keys use indices below it, so a
/// miss key can never collide with a stored or fresh key.
pub const MISS_BASE: u32 = 1 << 30;

/// A seeded bijection from indices to keys. Distinct indices give distinct
/// keys, which is how the workloads get duplicate-free key sets without a
/// set, and why hot Zipf ranks land in unrelated buckets.
#[derive(Debug, Clone, Copy)]
pub struct KeySpace {
    add: u64,
    mul1: u64,
    mul2: u64,
}

impl KeySpace {
    /// The key space for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x4B45_5953_5041_4345);
        Self {
            add: rng.next_u64() & KEY_MASK,
            mul1: (rng.next_u64() & KEY_MASK) | 1,
            mul2: (rng.next_u64() & KEY_MASK) | 1,
        }
    }

    /// The key at index `i` (`i < 2^31`). Each step is a bijection on 31
    /// bits: add, multiply by an odd constant, and xor-shift right.
    pub fn key(&self, i: u32) -> u32 {
        let mut x = (u64::from(i) + self.add) & KEY_MASK;
        x = x.wrapping_mul(self.mul1) & KEY_MASK;
        x ^= x >> 16;
        x = x.wrapping_mul(self.mul2) & KEY_MASK;
        x ^= x >> 13;
        x as u32
    }

    /// The `(key, value)` pairs of the first `n` keys: the preload set.
    pub fn pairs(&self, n: u32) -> Vec<(u32, u32)> {
        (0..n)
            .map(|i| (self.key(i), value_of(self.key(i))))
            .collect()
    }
}

/// Zipf(θ) over ranks `0..n`, rank 0 the hottest. The rejection-free
/// method of Gray et al. ("Quickly generating billion-record synthetic
/// databases"), as YCSB uses it.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A sampler over `n` ranks with skew `theta` (`0 < theta < 1`).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(
            n >= 2 && theta > 0.0 && theta < 1.0,
            "zipf needs n >= 2 and 0 < theta < 1"
        );
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n - 1)
        }
    }

    /// The probability of rank 0, `1 / zeta(n, theta)`.
    #[cfg(test)]
    pub fn top_share(&self) -> f64 {
        1.0 / self.zetan
    }
}

/// The answer a correct table gives to `req` in these workloads: every
/// stored key holds [`value_of`] itself, so the expected result follows
/// from the operation and whether the key is stored.
pub fn expected(op: OpKind, key: u32, stored: bool) -> OpResult {
    match (op, stored) {
        (OpKind::Search, true) => OpResult::Found(value_of(key)),
        (OpKind::Search | OpKind::Delete, false) => OpResult::NotFound,
        (OpKind::Replace, true) => OpResult::Replaced(value_of(key)),
        (OpKind::Replace, false) => OpResult::Inserted,
        (OpKind::Delete, true) => OpResult::Deleted(value_of(key)),
        (op, _) => unreachable!("the workloads never send {op:?}"),
    }
}

/// `kernel_search_hiutil` batches: SEARCH, each key a stored key or a miss
/// key with probability one half, uniform over its domain.
#[derive(Debug, Clone)]
pub struct SearchStream {
    rng: SplitMix64,
    keys: KeySpace,
    stored: u32,
}

impl SearchStream {
    /// Queries over the first `stored` keys of `keys`.
    pub fn new(seed: u64, keys: KeySpace, stored: u32) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x5345_4152_4348),
            keys,
            stored,
        }
    }

    /// Refills `batch` with `size` queries and `expect` with their answers.
    pub fn fill(&mut self, size: usize, batch: &mut BatchBuffer, expect: &mut Vec<OpResult>) {
        batch.clear();
        expect.clear();
        for _ in 0..size {
            let hit = self.rng.next_u64() & 1 == 0;
            let i = self.rng.below(u64::from(self.stored)) as u32;
            let key = if hit {
                self.keys.key(i)
            } else {
                self.keys.key(MISS_BASE + i)
            };
            batch.push(Request::search(key));
            expect.push(expected(OpKind::Search, key, hit));
        }
    }
}

/// `kernel_churn` batches: half REPLACE of never-seen keys, half DELETE of
/// keys live before the batch, chosen uniformly. The stream keeps the live
/// set, so it is also the sequential model the table is checked against.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    rng: SplitMix64,
    keys: KeySpace,
    live: Vec<u32>,
    fresh: Vec<u32>,
    next_fresh: u32,
}

impl ChurnStream {
    /// Churn over a table preloaded with the first `preloaded` keys.
    pub fn new(seed: u64, keys: KeySpace, preloaded: u32) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x0043_4855_524E),
            keys,
            live: (0..preloaded).map(|i| keys.key(i)).collect(),
            fresh: Vec::new(),
            next_fresh: preloaded,
        }
    }

    /// Refills `batch` with `size` operations and `expect` with their
    /// answers. Keys within a batch are distinct, so the answers do not
    /// depend on the order the table applies them in.
    pub fn fill(&mut self, size: usize, batch: &mut BatchBuffer, expect: &mut Vec<OpResult>) {
        batch.clear();
        expect.clear();
        self.fresh.clear();
        for _ in 0..size {
            if self.rng.next_u64() & 1 == 0 || self.live.is_empty() {
                assert!(self.next_fresh < MISS_BASE, "churn ran out of fresh keys");
                let key = self.keys.key(self.next_fresh);
                self.next_fresh += 1;
                self.fresh.push(key);
                batch.push(Request::replace(key, value_of(key)));
                expect.push(expected(OpKind::Replace, key, false));
            } else {
                let at = self.rng.below(self.live.len() as u64) as usize;
                let key = self.live.swap_remove(at);
                batch.push(Request::delete(key));
                expect.push(expected(OpKind::Delete, key, true));
            }
        }
    }

    /// Applies the last batch's inserts to the model once the table has
    /// executed it.
    pub fn commit(&mut self) {
        self.live.append(&mut self.fresh);
    }

    /// The keys the table must hold now.
    pub fn live(&self) -> &[u32] {
        &self.live
    }
}

/// The service mix of `ingress_open` and `wire_closed`: 90 % SEARCH and
/// 10 % REPLACE (of the value already stored), keys by Zipf rank over the
/// stored set. Every answer is a hit.
#[derive(Debug, Clone)]
pub struct MixStream {
    rng: SplitMix64,
    keys: KeySpace,
    zipf: Zipf,
}

/// Share of the service mix that writes, in percent.
pub const WRITE_PCT: u64 = 10;

impl MixStream {
    /// Stream `stream` of the mix for `seed` (one stream per generator
    /// thread or connection).
    pub fn new(seed: u64, stream: u64, keys: KeySpace, zipf: Zipf) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x004D_4958 ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)),
            keys,
            zipf,
        }
    }

    /// The next request and its expected answer.
    pub fn next_request(&mut self) -> (Request, OpResult) {
        let key = self.keys.key(self.zipf.sample(&mut self.rng) as u32);
        if self.rng.below(100) < WRITE_PCT {
            (
                Request::replace(key, value_of(key)),
                expected(OpKind::Replace, key, true),
            )
        } else {
            (Request::search(key), expected(OpKind::Search, key, true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first requests of every stream for `seed`, as bytes.
    fn input_bytes(seed: u64) -> Vec<u8> {
        let keys = KeySpace::new(seed);
        let mut out = Vec::new();
        let mut push = |r: &Request| {
            out.push(r.op as u8);
            out.extend_from_slice(&r.key.to_le_bytes());
            out.extend_from_slice(&r.value.to_le_bytes());
        };
        let (mut batch, mut expect) = (BatchBuffer::new(), Vec::new());
        SearchStream::new(seed, keys, 1 << 12).fill(512, &mut batch, &mut expect);
        batch.requests().iter().for_each(&mut push);
        let mut churn = ChurnStream::new(seed, keys, 1 << 12);
        for _ in 0..3 {
            churn.fill(256, &mut batch, &mut expect);
            churn.commit();
            batch.requests().iter().for_each(&mut push);
        }
        let mut mix = MixStream::new(seed, 1, keys, Zipf::new(1 << 12, 0.99));
        (0..512).for_each(|_| push(&mix.next_request().0));
        out
    }

    #[test]
    fn same_seed_same_inputs_and_different_seeds_differ() {
        assert_eq!(input_bytes(7), input_bytes(7));
        assert_ne!(input_bytes(7), input_bytes(8));
    }

    #[test]
    fn key_space_is_a_bijection_below_the_sentinels() {
        let keys = KeySpace::new(3);
        let mut seen: Vec<u32> = (0..1 << 16)
            .chain(MISS_BASE..MISS_BASE + (1 << 16))
            .map(|i| keys.key(i))
            .collect();
        assert!(seen.iter().all(|&k| k < 1 << 31));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            1 << 17,
            "distinct indices must give distinct keys"
        );
    }

    #[test]
    fn zipf_top_key_share_is_sane() {
        let n = 1 << 20;
        let zipf = Zipf::new(n, 0.99);
        // zeta(2^20, 0.99) is about 15, so rank 0 draws about 6.5 %.
        assert!(
            (0.05..0.08).contains(&zipf.top_share()),
            "top share {}",
            zipf.top_share()
        );
        let mut rng = SplitMix64::new(11);
        let draws = 200_000;
        let mut top = 0u64;
        let mut top10 = 0u64;
        for _ in 0..draws {
            let r = zipf.sample(&mut rng);
            assert!(r < n);
            top += u64::from(r == 0);
            top10 += u64::from(r < 10);
        }
        let share = top as f64 / draws as f64;
        assert!(
            (share / zipf.top_share() - 1.0).abs() < 0.1,
            "rank 0 drew {share}, expected {}",
            zipf.top_share()
        );
        // The ten hottest keys take roughly a fifth of all draws.
        let share10 = top10 as f64 / draws as f64;
        assert!((0.15..0.25).contains(&share10), "top-10 share {share10}");
    }

    #[test]
    fn churn_batches_never_repeat_a_key_and_keep_the_live_count() {
        let keys = KeySpace::new(5);
        let mut churn = ChurnStream::new(5, keys, 1000);
        let (mut batch, mut expect) = (BatchBuffer::new(), Vec::new());
        for _ in 0..20 {
            churn.fill(256, &mut batch, &mut expect);
            let mut batch_keys: Vec<u32> = batch.requests().iter().map(|r| r.key).collect();
            batch_keys.sort_unstable();
            batch_keys.dedup();
            assert_eq!(batch_keys.len(), 256);
            churn.commit();
        }
        let live = churn.live().len();
        assert!((800..1200).contains(&live), "live set drifted to {live}");
    }
}
