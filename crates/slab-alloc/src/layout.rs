//! The paper's 32-bit slab address layout (§V, "Memory structure").
//!
//! SlabAlloc trades the generality of 64-bit pointers for a 32-bit address
//! layout that is cheap to store in slab address lanes and to move through
//! 32-bit shuffle instructions:
//!
//! ```text
//!  31      24 23            10 9        0
//! +----------+----------------+----------+
//! | super (8)|   block (14)   | unit (10)|
//! +----------+----------------+----------+
//! ```
//!
//! * bits 0–9: the memory unit (slab) index within its memory block
//!   (`NU = 1024` units per block, fixed);
//! * bits 10–23: the memory block index within its super block
//!   (`NM < 2^14`);
//! * bits 24–31: the super block index (`NS`).
//!
//! Super block id `0xFF` is reserved so the two sentinel values the data
//! structures need — the empty pointer and the base-slab marker — can never
//! collide with a real allocation. With 128 B units this addresses
//! `128 · NS · NM · NU` bytes, i.e. up to ~0.5 TB of slabs (the paper's
//! "up to 1 TB" figure counts units ≥ 2⁷ bytes).

/// Memory units (slabs) per memory block. Fixed by the paper: one 32-bit
/// bitmap word per warp lane × 32 lanes = 1024 units.
pub const UNITS_PER_BLOCK: u32 = 1024;

/// Maximum memory blocks per super block (14 index bits).
pub const MAX_BLOCKS_PER_SUPER: u32 = 1 << 14;

/// Maximum super blocks (8 index bits, top id reserved for sentinels).
pub const MAX_SUPER_BLOCKS: u32 = 255;

/// The null / empty next-pointer sentinel (`EMPTY_POINTER` in the paper's
/// pseudocode). Lives in the reserved super block id `0xFF`.
pub const EMPTY_PTR: u32 = 0xFFFF_FFFF;

/// Marker meaning "we are at the bucket's base slab, not an allocated slab"
/// (`BASE_SLAB` in the paper's pseudocode).
pub const BASE_SLAB: u32 = 0xFFFF_FFFE;

/// A decoded slab address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabAddr {
    /// Super block index (0 ≤ super < 255).
    pub super_block: u32,
    /// Memory block index within the super block.
    pub block: u32,
    /// Memory unit (slab) index within the block (0..1024).
    pub unit: u32,
}

impl SlabAddr {
    /// Encodes to the 32-bit layout. Panics (debug) on out-of-range fields.
    #[inline]
    pub fn encode(self) -> u32 {
        debug_assert!(self.super_block < MAX_SUPER_BLOCKS);
        debug_assert!(self.block < MAX_BLOCKS_PER_SUPER);
        debug_assert!(self.unit < UNITS_PER_BLOCK);
        (self.super_block << 24) | (self.block << 10) | self.unit
    }

    /// Decodes a 32-bit slab pointer. Returns `None` for sentinel values.
    #[inline]
    pub fn decode(ptr: u32) -> Option<Self> {
        if is_sentinel(ptr) {
            return None;
        }
        Some(Self {
            super_block: ptr >> 24,
            block: (ptr >> 10) & (MAX_BLOCKS_PER_SUPER - 1),
            unit: ptr & (UNITS_PER_BLOCK - 1),
        })
    }

    /// Flat slab index within its super block's storage array.
    #[inline]
    pub fn slab_index_in_super(self) -> usize {
        (self.block * UNITS_PER_BLOCK + self.unit) as usize
    }
}

/// True for the reserved sentinel range (super block id `0xFF`).
#[inline]
pub fn is_sentinel(ptr: u32) -> bool {
    ptr >> 24 == 0xFF
}

/// True iff `ptr` denotes a real allocated slab.
#[inline]
pub fn is_allocated_ptr(ptr: u32) -> bool {
    !is_sentinel(ptr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_extremes() {
        for &(s, b, u) in &[
            (0u32, 0u32, 0u32),
            (254, 0, 0),
            (0, MAX_BLOCKS_PER_SUPER - 1, 0),
            (0, 0, UNITS_PER_BLOCK - 1),
            (254, MAX_BLOCKS_PER_SUPER - 1, UNITS_PER_BLOCK - 1),
            (17, 300, 511),
        ] {
            let addr = SlabAddr {
                super_block: s,
                block: b,
                unit: u,
            };
            let ptr = addr.encode();
            assert_eq!(SlabAddr::decode(ptr), Some(addr), "ptr {ptr:#010x}");
            assert!(is_allocated_ptr(ptr));
        }
    }

    #[test]
    fn sentinels_never_decode() {
        assert_eq!(SlabAddr::decode(EMPTY_PTR), None);
        assert_eq!(SlabAddr::decode(BASE_SLAB), None);
        assert!(is_sentinel(EMPTY_PTR));
        assert!(is_sentinel(BASE_SLAB));
        // Anything in the reserved super block is a sentinel.
        assert!(is_sentinel(0xFF00_0000));
        assert!(!is_sentinel(0xFE00_0000));
    }

    #[test]
    fn encode_packs_the_documented_bits() {
        let ptr = SlabAddr {
            super_block: 0xAB,
            block: 0x1234,
            unit: 0x3F,
        }
        .encode();
        assert_eq!(ptr >> 24, 0xAB);
        assert_eq!((ptr >> 10) & 0x3FFF, 0x1234);
        assert_eq!(ptr & 0x3FF, 0x3F);
    }

    #[test]
    fn slab_index_in_super_is_block_major() {
        let addr = SlabAddr {
            super_block: 3,
            block: 2,
            unit: 5,
        };
        assert_eq!(addr.slab_index_in_super(), 2 * 1024 + 5);
    }

    #[test]
    fn distinct_addresses_distinct_pointers() {
        // Encoding is injective over the valid domain (spot check a grid).
        let mut seen = std::collections::HashSet::new();
        for s in [0u32, 7, 254] {
            for b in [0u32, 1, 1000, MAX_BLOCKS_PER_SUPER - 1] {
                for u in [0u32, 31, 1023] {
                    let ptr = SlabAddr {
                        super_block: s,
                        block: b,
                        unit: u,
                    }
                    .encode();
                    assert!(seen.insert(ptr));
                }
            }
        }
    }
}
