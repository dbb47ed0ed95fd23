//! # tap-id — the 160-bit circular identifier space
//!
//! Structured P2P overlays in the Pastry family assign every node and every
//! stored object a fixed-width identifier drawn uniformly from a circular
//! space. TAP (Zhu & Hu, ICPP 2004) additionally names *tunnel hops* in the
//! same space: a `hopid` is just an identifier, and the "tunnel hop node"
//! for a hop is the live node whose nodeid is numerically closest to it.
//!
//! This crate provides that identifier space:
//!
//! * [`Id`] — a 160-bit unsigned integer (the width of SHA-1 output, as used
//!   by Pastry/PAST and by TAP's `hopid = H(node_ID, hkey, t)` construction),
//!   with full wrapping ring arithmetic.
//! * Distance metrics: [`Id::ring_distance`] (minimal circular distance, the
//!   "numerically closest" relation Pastry's leaf set uses) and the directed
//!   clockwise/counter-clockwise distances.
//! * Digit / prefix arithmetic for prefix routing: [`Id::digit`],
//!   [`Id::shared_prefix_digits`], [`Id::with_digit`] for an arbitrary digit
//!   width `b` (Pastry's `b` parameter, typically 4 → hexadecimal digits).
//!
//! The type is deliberately `Copy` (20 bytes), ordering is the plain numeric
//! order, and all ring arithmetic runs branch-free on a big-endian
//! `(u128, u32)` limb pair — identifier comparisons sit on the hot path of
//! every simulated routing step, so the representation is kept flat and
//! allocation-free.
//!
//! ## Example
//!
//! ```
//! use tap_id::Id;
//!
//! let a = Id::from_u64(0x1234);
//! let b = Id::from_u64(0x1239);
//! assert_eq!(a.ring_distance(b), Id::from_u64(5));
//!
//! // 160 bits = 40 hex digits when b = 4.
//! assert_eq!(a.digit(39, 4), 0x4);
//! assert_eq!(a.shared_prefix_digits(b, 4), 39);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod id;
mod range;

pub use hash::{BuildIdHasher, IdHashMap, IdHashSet, IdHasher};
pub use id::{Id, IdParseError, ID_BITS, ID_BYTES};
pub use range::{first_digit_buckets, ArcRange};

/// Number of digits an [`Id`] has for a given digit width `b` (bits/digit).
///
/// Pastry writes identifiers as a sequence of base-`2^b` digits; with the
/// customary `b = 4` a 160-bit id has 40 hexadecimal digits.
#[inline]
pub const fn digits_for(b: u32) -> usize {
    (ID_BITS as usize).div_ceil(b as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_for_common_bases() {
        assert_eq!(digits_for(1), 160);
        assert_eq!(digits_for(2), 80);
        assert_eq!(digits_for(4), 40);
        assert_eq!(digits_for(8), 20);
        // Non-dividing width rounds up.
        assert_eq!(digits_for(3), 54);
    }
}
