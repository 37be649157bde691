//! Slab entry layouts: how data elements map onto a slab's 32 lanes.
//!
//! The paper (§IV-B) fixes the slab at 128 B = 32 lanes of 32 bits and
//! supports two item types:
//!
//! * **key-only** (32-bit entries): lanes 0–29 each hold one key
//!   (M = 30 elements/slab);
//! * **key–value** (64-bit entries): even lanes 0,2,…,28 hold keys and odd
//!   lanes 1,3,…,29 the corresponding values (M = 15 elements/slab).
//!
//! In both layouts lane 30 is the auxiliary lane (reserved for flags /
//! pointer metadata; unused here, as in the paper's simple configuration)
//! and lane 31 is the **address lane** holding the 32-bit pointer to the
//! successor slab. Maximum memory utilization is M·x/(M·x+y) = 120/128 ≈ 94 %
//! for both layouts.
//!
//! Two key values are reserved (paper footnote 1): `EMPTY_KEY` marks a never-
//! used slot and `DELETED_KEY` a tombstone, which must differ from empty so
//! uniqueness-preserving insertion (REPLACE) never revives a key that still
//! exists further down the list.

use simt::warp::Lane;

/// Reserved key: an empty (never written) slot.
pub const EMPTY_KEY: u32 = 0xFFFF_FFFF;

/// Reserved key: a deleted slot (tombstone).
pub const DELETED_KEY: u32 = 0xFFFF_FFFE;

/// Largest key a caller may store. `u32::MAX - 2` is reserved too, though
/// no slab uses it, so the range that clients and load generators validate
/// against stays put.
pub const MAX_KEY: u32 = u32::MAX - 3;

/// The auxiliary lane (paper §IV-B: "lane 30 is used as an auxiliary
/// element").
pub const AUX_LANE: Lane = 30;

/// The address lane holding the successor pointer ("we refer to lane 31 as
/// the address lane").
pub const ADDRESS_LANE: Lane = 31;

/// Number of lanes carrying data elements (0–29).
pub const DATA_LANES: usize = 30;

/// A slab entry layout. Implemented by [`KeyValue`] and [`KeyOnly`];
/// everything the warp-cooperative operations need to know about a layout is
/// a handful of constants and lane arithmetic.
pub trait EntryLayout: Send + Sync + 'static {
    /// Elements per slab (the paper's M).
    const ELEMS_PER_SLAB: u32;
    /// Whether entries carry a value lane next to the key lane.
    const HAS_VALUES: bool;
    /// Ballot mask of the lanes that hold keys (the paper's
    /// `VALID_KEY_MASK`).
    const KEY_LANES: u32;
    /// Bytes per stored element (x in the utilization formula).
    const ELEM_BYTES: u32;
    /// Human-readable layout name.
    const NAME: &'static str;

    /// The key lane of element `elem` (0 ≤ elem < `ELEMS_PER_SLAB`).
    fn key_lane(elem: usize) -> Lane;

    /// The lane whose 32-bit word is returned as the element's value: the
    /// sibling value lane for key–value, the key lane itself for key-only.
    fn value_lane(key_lane: Lane) -> Lane;

    /// Maximum achievable memory utilization, M·x / (M·x + y) with y = 8
    /// (the aux + address lanes).
    fn max_utilization() -> f64 {
        let payload = Self::ELEMS_PER_SLAB as f64 * Self::ELEM_BYTES as f64;
        payload / 128.0
    }
}

/// 64-bit entries: key–value pairs on (even, odd) lane couples.
pub struct KeyValue;

impl EntryLayout for KeyValue {
    const ELEMS_PER_SLAB: u32 = 15;
    const HAS_VALUES: bool = true;
    // Even lanes among 0..30.
    const KEY_LANES: u32 = 0x1555_5555;
    const ELEM_BYTES: u32 = 8;
    const NAME: &'static str = "key-value";

    #[inline]
    fn key_lane(elem: usize) -> Lane {
        debug_assert!(elem < 15);
        2 * elem
    }

    #[inline]
    fn value_lane(key_lane: Lane) -> Lane {
        debug_assert!(key_lane.is_multiple_of(2) && key_lane < DATA_LANES);
        key_lane + 1
    }
}

/// 32-bit entries: keys only (an unordered multiset / set).
pub struct KeyOnly;

impl EntryLayout for KeyOnly {
    const ELEMS_PER_SLAB: u32 = 30;
    const HAS_VALUES: bool = false;
    const KEY_LANES: u32 = 0x3FFF_FFFF;
    const ELEM_BYTES: u32 = 4;
    const NAME: &'static str = "key-only";

    #[inline]
    fn key_lane(elem: usize) -> Lane {
        debug_assert!(elem < 30);
        elem
    }

    #[inline]
    fn value_lane(key_lane: Lane) -> Lane {
        key_lane
    }
}

/// Checks a user key against the reserved range, panicking with a clear
/// message on misuse.
#[inline]
pub fn validate_key(key: u32) {
    assert!(
        key <= MAX_KEY,
        "key {key:#x} is in the reserved sentinel range \
         (keys must be <= {MAX_KEY:#x})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use simt::warp::{even_lanes_below, lanes_below};

    #[test]
    fn key_lane_masks_match_warp_helpers() {
        assert_eq!(KeyValue::KEY_LANES, even_lanes_below(DATA_LANES));
        assert_eq!(KeyOnly::KEY_LANES, lanes_below(DATA_LANES));
    }

    #[test]
    fn masks_exclude_aux_and_address_lanes() {
        for mask in [KeyValue::KEY_LANES, KeyOnly::KEY_LANES] {
            assert_eq!(mask & (1 << AUX_LANE), 0);
            assert_eq!(mask & (1 << ADDRESS_LANE), 0);
        }
    }

    #[test]
    fn key_lane_enumeration_is_consistent_with_mask() {
        fn check<L: EntryLayout>() {
            let mut mask = 0u32;
            for e in 0..L::ELEMS_PER_SLAB as usize {
                mask |= 1 << L::key_lane(e);
            }
            assert_eq!(mask, L::KEY_LANES, "{}", L::NAME);
        }
        check::<KeyValue>();
        check::<KeyOnly>();
    }

    #[test]
    fn value_lane_mapping() {
        assert_eq!(KeyValue::value_lane(0), 1);
        assert_eq!(KeyValue::value_lane(28), 29);
        assert_eq!(KeyOnly::value_lane(13), 13);
    }

    #[test]
    fn max_utilization_is_the_papers_94_percent() {
        assert!((KeyValue::max_utilization() - 0.9375).abs() < 1e-12);
        assert!((KeyOnly::max_utilization() - 0.9375).abs() < 1e-12);
    }

    #[test]
    fn sentinels_are_adjacent_at_the_top() {
        assert_eq!(EMPTY_KEY, u32::MAX);
        assert_eq!(DELETED_KEY, u32::MAX - 1);
        assert_eq!(MAX_KEY, u32::MAX - 3);
        validate_key(0);
        validate_key(MAX_KEY);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_key_is_rejected() {
        validate_key(EMPTY_KEY);
    }
}
