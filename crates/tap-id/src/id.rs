//! The [`Id`] type: a 160-bit unsigned integer on a circular ring.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use rand::Rng;

/// Width of an identifier in bits.
pub const ID_BITS: u32 = 160;
/// Width of an identifier in bytes.
pub const ID_BYTES: usize = 20;

/// A 160-bit identifier in a circular (mod 2^160) space.
///
/// Used for node ids, file ids, and TAP hop ids alike. Stored big-endian so
/// that byte-wise lexicographic order equals numeric order, which lets
/// `Ord`/`Eq` derive straight from the array.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Id([u8; ID_BYTES]);

impl Id {
    /// The additive identity (all zero bits).
    pub const ZERO: Id = Id([0u8; ID_BYTES]);
    /// The maximum identifier (all one bits), i.e. `2^160 - 1`.
    pub const MAX: Id = Id([0xffu8; ID_BYTES]);
    /// Exactly half the ring, `2^159`. `ring_distance` never exceeds this.
    pub const HALF: Id = {
        let mut b = [0u8; ID_BYTES];
        b[0] = 0x80;
        Id(b)
    };

    /// Construct from big-endian bytes.
    #[inline]
    pub const fn from_bytes(bytes: [u8; ID_BYTES]) -> Self {
        Id(bytes)
    }

    /// The big-endian byte representation.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; ID_BYTES] {
        &self.0
    }

    /// Construct an id equal to a small integer (zero-extended to 160 bits).
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        let mut b = [0u8; ID_BYTES];
        let be = v.to_be_bytes();
        let mut i = 0;
        while i < 8 {
            b[ID_BYTES - 8 + i] = be[i];
            i += 1;
        }
        Id(b)
    }

    /// Construct from a `u128` (zero-extended to 160 bits).
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        let mut b = [0u8; ID_BYTES];
        let be = v.to_be_bytes();
        let mut i = 0;
        while i < 16 {
            b[ID_BYTES - 16 + i] = be[i];
            i += 1;
        }
        Id(b)
    }

    /// The low 64 bits of the identifier (handy for cheap test assertions).
    #[inline]
    pub fn low_u64(&self) -> u64 {
        let mut be = [0u8; 8];
        be.copy_from_slice(&self.0[ID_BYTES - 8..]);
        u64::from_be_bytes(be)
    }

    /// Draw an identifier uniformly at random.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut b = [0u8; ID_BYTES];
        rng.fill(&mut b[..]);
        Id(b)
    }

    /// The id as a big-endian limb pair: the high 128 bits and the low
    /// 32. Tuple order on the pair is numeric order on the id, so ring
    /// arithmetic and distance comparisons run on two machine words
    /// instead of twenty bytes.
    #[inline]
    fn limbs(self) -> (u128, u32) {
        let (hi, lo) = self.0.split_at(16);
        (
            u128::from_be_bytes(hi.try_into().expect("16-byte high limb")),
            u32::from_be_bytes(lo.try_into().expect("4-byte low limb")),
        )
    }

    #[inline]
    fn from_limbs((hi, lo): (u128, u32)) -> Id {
        let mut b = [0u8; ID_BYTES];
        b[..16].copy_from_slice(&hi.to_be_bytes());
        b[16..].copy_from_slice(&lo.to_be_bytes());
        Id(b)
    }

    /// Wrapping addition on the ring.
    #[inline]
    #[must_use]
    pub fn wrapping_add(self, rhs: Id) -> Id {
        Id::from_limbs(add_limbs(self.limbs(), rhs.limbs()))
    }

    /// Wrapping subtraction on the ring (`self - rhs mod 2^160`).
    #[inline]
    #[must_use]
    pub fn wrapping_sub(self, rhs: Id) -> Id {
        Id::from_limbs(sub_limbs(self.limbs(), rhs.limbs()))
    }

    /// Distance travelling clockwise (increasing ids) from `self` to `to`.
    #[inline]
    #[must_use]
    pub fn clockwise_distance(self, to: Id) -> Id {
        to.wrapping_sub(self)
    }

    /// Distance travelling counter-clockwise from `self` to `to`.
    #[inline]
    #[must_use]
    pub fn counter_clockwise_distance(self, to: Id) -> Id {
        self.wrapping_sub(to)
    }

    /// The minimal circular distance between two identifiers.
    ///
    /// This is the metric behind Pastry's "numerically closest nodeid":
    /// a key's root is the live node minimizing `ring_distance(nodeid, key)`.
    /// The result is at most [`Id::HALF`].
    #[inline]
    #[must_use]
    pub fn ring_distance(self, other: Id) -> Id {
        Id::from_limbs(distance_limbs(self.limbs(), other.limbs()))
    }

    /// Compare two candidate ids by their ring distance to `self`,
    /// tie-breaking on the numerically smaller candidate so the relation is
    /// a total order (required for deterministic replica-set selection).
    #[inline]
    pub fn cmp_distance(&self, a: Id, b: Id) -> Ordering {
        let k = self.limbs();
        let (a, b) = (a.limbs(), b.limbs());
        (distance_limbs(k, a), a).cmp(&(distance_limbs(k, b), b))
    }

    /// Whether `self` is strictly closer to `target` than `other` is,
    /// under the same deterministic tie-break as [`Id::cmp_distance`].
    #[inline]
    pub fn closer_to(&self, target: Id, other: Id) -> bool {
        target.cmp_distance(*self, other) == Ordering::Less
    }

    /// Extract digit `index` where digit 0 is the most significant,
    /// using `b` bits per digit (`1 <= b <= 8`).
    ///
    /// Digits that would run past bit 159 are zero-padded at the low end,
    /// matching how Pastry treats identifiers as fixed-length digit strings.
    pub fn digit(&self, index: usize, b: u32) -> u8 {
        debug_assert!((1..=8).contains(&b), "digit width must be in 1..=8");
        let bit_off = index * b as usize;
        debug_assert!(bit_off < ID_BITS as usize, "digit index out of range");
        // A digit spans at most two bytes (bit offset within the first
        // byte plus width is at most 15). A window running past the last
        // byte reads zeros there, which is exactly the tail padding.
        let byte = bit_off / 8;
        let next = self.0.get(byte + 1).copied().unwrap_or(0);
        let window = u16::from_be_bytes([self.0[byte], next]);
        let shift = 16 - (bit_off % 8) as u32 - b;
        ((window >> shift) & ((1u16 << b) - 1)) as u8
    }

    /// Return a copy of `self` with digit `index` (width `b`) replaced by
    /// `value`, leaving all other bits untouched.
    #[must_use]
    pub fn with_digit(mut self, index: usize, b: u32, value: u8) -> Id {
        debug_assert!((1..=8).contains(&b));
        debug_assert!((value as u32) < (1u32 << b), "digit value out of range");
        let bit_off = index * b as usize;
        debug_assert!(bit_off < ID_BITS as usize);
        let avail = (ID_BITS as usize - bit_off).min(b as usize);
        for i in 0..avail {
            let bit = bit_off + i;
            let bitval = (value >> (b as usize - 1 - i)) & 1;
            let byte = &mut self.0[bit / 8];
            let mask = 1u8 << (7 - (bit % 8));
            if bitval == 1 {
                *byte |= mask;
            } else {
                *byte &= !mask;
            }
        }
        self
    }

    /// Length of the common digit prefix of `self` and `other`, in digits of
    /// width `b`. Equal ids share all [`crate::digits_for`]`(b)` digits.
    pub fn shared_prefix_digits(&self, other: Id, b: u32) -> usize {
        let total = crate::digits_for(b);
        // Fast path: count identical leading bytes first.
        let mut byte = 0;
        while byte < ID_BYTES && self.0[byte] == other.0[byte] {
            byte += 1;
        }
        if byte == ID_BYTES {
            return total;
        }
        let bit = byte * 8 + (self.0[byte] ^ other.0[byte]).leading_zeros() as usize;
        (bit / b as usize).min(total)
    }

    /// Flip the single bit `bit` (0 = most significant).
    #[must_use]
    pub fn flip_bit(mut self, bit: usize) -> Id {
        debug_assert!(bit < ID_BITS as usize);
        self.0[bit / 8] ^= 1u8 << (7 - (bit % 8));
        self
    }

    /// Whether `self` lies on the clockwise arc from `from` (exclusive) to
    /// `to` (inclusive). The full arc `from == to` contains everything.
    pub fn between_cw(&self, from: Id, to: Id) -> bool {
        if from == to {
            return true;
        }
        let from = from.limbs();
        let span = sub_limbs(to.limbs(), from);
        let off = sub_limbs(self.limbs(), from);
        off != (0, 0) && off <= span
    }

    /// Render as a 40-character lowercase hex string.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(ID_BYTES * 2);
        for byte in self.0 {
            use std::fmt::Write;
            write!(s, "{byte:02x}").expect("writing to String cannot fail");
        }
        s
    }
}

/// `a + b mod 2^160` on limb pairs: the low limb's carry feeds the high
/// limb arithmetically, with no branch.
#[inline]
fn add_limbs(a: (u128, u32), b: (u128, u32)) -> (u128, u32) {
    let (lo, carry) = a.1.overflowing_add(b.1);
    (a.0.wrapping_add(b.0).wrapping_add(u128::from(carry)), lo)
}

/// `a - b mod 2^160` on limb pairs, with a branch-free borrow.
#[inline]
fn sub_limbs(a: (u128, u32), b: (u128, u32)) -> (u128, u32) {
    let (lo, borrow) = a.1.overflowing_sub(b.1);
    (a.0.wrapping_sub(b.0).wrapping_sub(u128::from(borrow)), lo)
}

/// The minimal circular distance on limb pairs.
#[inline]
fn distance_limbs(a: (u128, u32), b: (u128, u32)) -> (u128, u32) {
    sub_limbs(b, a).min(sub_limbs(a, b))
}

/// Error parsing an [`Id`] from a hex string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdParseError {
    /// The string was not exactly 40 hex characters.
    BadLength(usize),
    /// A character was not a hex digit.
    BadChar(char),
}

impl fmt::Display for IdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdParseError::BadLength(n) => {
                write!(f, "expected {} hex chars, got {n}", ID_BYTES * 2)
            }
            IdParseError::BadChar(c) => write!(f, "invalid hex character {c:?}"),
        }
    }
}

impl std::error::Error for IdParseError {}

impl FromStr for Id {
    type Err = IdParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != ID_BYTES * 2 {
            return Err(IdParseError::BadLength(s.len()));
        }
        let mut out = [0u8; ID_BYTES];
        for (i, c) in s.chars().enumerate() {
            let v = c.to_digit(16).ok_or(IdParseError::BadChar(c))? as u8;
            out[i / 2] = (out[i / 2] << 4) | v;
        }
        Ok(Id(out))
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviate: the first 6 hex digits identify an id at a glance in
        // simulator logs while keeping routing-table dumps readable.
        write!(
            f,
            "Id({:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2]
        )
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(v: u64) -> Id {
        Id::from_u64(v)
    }

    /// The byte-loop ring arithmetic the limb-pair kernels replaced, kept
    /// as the oracle they are proptested against.
    mod oracle {
        use super::super::*;

        pub fn wrapping_add(a: Id, b: Id) -> Id {
            let mut out = [0u8; ID_BYTES];
            let mut carry = 0u16;
            for i in (0..ID_BYTES).rev() {
                let s = a.0[i] as u16 + b.0[i] as u16 + carry;
                out[i] = s as u8;
                carry = s >> 8;
            }
            Id(out)
        }

        pub fn wrapping_sub(a: Id, b: Id) -> Id {
            let mut out = [0u8; ID_BYTES];
            let mut borrow = 0i16;
            for i in (0..ID_BYTES).rev() {
                let d = a.0[i] as i16 - b.0[i] as i16 - borrow;
                if d < 0 {
                    out[i] = (d + 256) as u8;
                    borrow = 1;
                } else {
                    out[i] = d as u8;
                    borrow = 0;
                }
            }
            Id(out)
        }

        pub fn ring_distance(a: Id, b: Id) -> Id {
            let cw = wrapping_sub(b, a);
            let ccw = wrapping_sub(a, b);
            if cw <= ccw {
                cw
            } else {
                ccw
            }
        }

        pub fn cmp_distance(key: Id, a: Id, b: Id) -> Ordering {
            ring_distance(key, a)
                .cmp(&ring_distance(key, b))
                .then(a.cmp(&b))
        }

        pub fn between_cw(x: Id, from: Id, to: Id) -> bool {
            if from == to {
                return true;
            }
            let span = wrapping_sub(to, from);
            let off = wrapping_sub(x, from);
            off > Id::ZERO && off <= span
        }

        pub fn digit(a: Id, index: usize, b: u32) -> u8 {
            let bit_off = index * b as usize;
            let avail = (ID_BITS as usize - bit_off).min(b as usize);
            let mut v = 0u8;
            for i in 0..avail {
                let bit = bit_off + i;
                let byte = a.0[bit / 8];
                v = (v << 1) | ((byte >> (7 - (bit % 8))) & 1);
            }
            v << (b as usize - avail)
        }
    }

    /// Shape uniform bytes into ids that stress carries and borrows: by
    /// `shape`'s low two bits, leave them, force a masked subset of bytes
    /// to 0xff or to 0x00, or fill the bytes around the limb boundary
    /// (12..20) with one of the two.
    fn edge(mut b: [u8; 20], shape: u32) -> Id {
        let mask = shape >> 2;
        match shape & 3 {
            0 => {}
            1 | 2 => {
                let fill = if shape & 3 == 1 { 0xff } else { 0 };
                for (i, x) in b.iter_mut().enumerate() {
                    if mask >> i & 1 == 1 {
                        *x = fill;
                    }
                }
            }
            _ => b[12..].fill(if mask & 1 == 1 { 0xff } else { 0 }),
        }
        Id::from_bytes(b)
    }

    #[test]
    fn constants() {
        assert_eq!(Id::ZERO.low_u64(), 0);
        assert_eq!(Id::MAX.wrapping_add(id(1)), Id::ZERO);
        assert_eq!(Id::HALF.wrapping_add(Id::HALF), Id::ZERO);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(id(3).wrapping_add(id(4)), id(7));
        assert_eq!(id(7).wrapping_sub(id(4)), id(3));
        assert_eq!(id(0).wrapping_sub(id(1)), Id::MAX);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Id::from_u128(u128::MAX);
        let one = id(1);
        let sum = a.wrapping_add(one);
        // 2^128 has byte 3 (0-indexed from MSB) == 1 and the rest zero.
        let mut expect = [0u8; ID_BYTES];
        expect[3] = 1;
        assert_eq!(sum, Id::from_bytes(expect));
    }

    #[test]
    fn ring_distance_is_minimal_and_symmetric() {
        assert_eq!(id(10).ring_distance(id(13)), id(3));
        assert_eq!(id(13).ring_distance(id(10)), id(3));
        // Wrap-around: distance between 2^160-1 and 1 is 2.
        assert_eq!(Id::MAX.ring_distance(id(1)), id(2));
    }

    #[test]
    fn ring_distance_capped_at_half() {
        let a = Id::ZERO;
        let b = Id::HALF;
        assert_eq!(a.ring_distance(b), Id::HALF);
        let c = Id::HALF.wrapping_add(id(1));
        assert!(a.ring_distance(c) < Id::HALF);
    }

    #[test]
    fn cmp_distance_totally_orders_equidistant_points() {
        // 5 is equidistant from 3 and 7; tie-break picks numerically smaller.
        assert_eq!(id(5).cmp_distance(id(3), id(7)), Ordering::Less);
        assert_eq!(id(5).cmp_distance(id(7), id(3)), Ordering::Greater);
        assert_eq!(id(5).cmp_distance(id(3), id(3)), Ordering::Equal);
    }

    #[test]
    fn digit_extraction_hex() {
        let a: Id = "f123456789abcdef0000000000000000000000ff".parse().unwrap();
        assert_eq!(a.digit(0, 4), 0xf);
        assert_eq!(a.digit(1, 4), 0x1);
        assert_eq!(a.digit(15, 4), 0xf);
        assert_eq!(a.digit(39, 4), 0xf);
    }

    #[test]
    fn digit_extraction_binary_and_bytes() {
        let a = Id::HALF;
        assert_eq!(a.digit(0, 1), 1);
        assert_eq!(a.digit(1, 1), 0);
        assert_eq!(a.digit(0, 8), 0x80);
    }

    #[test]
    fn digit_nondividing_width_pads_tail() {
        // b=3: digit 53 covers bits 159..162 — only 1 real bit remains.
        let a = Id::MAX;
        assert_eq!(a.digit(53, 3), 0b100);
    }

    #[test]
    fn with_digit_roundtrip() {
        let a = Id::ZERO.with_digit(0, 4, 0xa).with_digit(39, 4, 0x5);
        assert_eq!(a.digit(0, 4), 0xa);
        assert_eq!(a.digit(39, 4), 0x5);
        assert_eq!(a.digit(20, 4), 0);
    }

    #[test]
    fn shared_prefix() {
        let a: Id = "aabbccdd00000000000000000000000000000000".parse().unwrap();
        let b: Id = "aabbccde00000000000000000000000000000000".parse().unwrap();
        assert_eq!(a.shared_prefix_digits(b, 4), 7);
        assert_eq!(a.shared_prefix_digits(a, 4), 40);
        assert_eq!(a.shared_prefix_digits(b, 1), 30);
        assert_eq!(Id::ZERO.shared_prefix_digits(Id::MAX, 4), 0);
    }

    #[test]
    fn between_cw_arcs() {
        assert!(id(5).between_cw(id(3), id(7)));
        assert!(!id(3).between_cw(id(3), id(7)), "from is exclusive");
        assert!(id(7).between_cw(id(3), id(7)), "to is inclusive");
        // Wrapping arc.
        assert!(id(1).between_cw(Id::MAX, id(3)));
        assert!(!id(5).between_cw(Id::MAX, id(3)));
        // Degenerate full arc.
        assert!(id(9).between_cw(id(2), id(2)));
    }

    #[test]
    fn hex_roundtrip_and_parse_errors() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let a = Id::random(&mut rng);
            assert_eq!(a.to_hex().parse::<Id>().unwrap(), a);
        }
        assert!(matches!(
            "abc".parse::<Id>(),
            Err(IdParseError::BadLength(3))
        ));
        let bad = "g".repeat(40);
        assert!(matches!(bad.parse::<Id>(), Err(IdParseError::BadChar('g'))));
    }

    #[test]
    fn flip_bit() {
        assert_eq!(Id::ZERO.flip_bit(0), Id::HALF);
        assert_eq!(Id::ZERO.flip_bit(159), id(1));
        assert_eq!(Id::ZERO.flip_bit(5).flip_bit(5), Id::ZERO);
    }

    #[test]
    fn ordering_matches_numeric() {
        assert!(id(1) < id(2));
        assert!(Id::from_u128(1u128 << 100) > Id::MAX.wrapping_sub(Id::MAX));
        assert!(Id::HALF > Id::from_u128(u128::MAX));
    }

    #[test]
    fn digit_matches_oracle_for_every_width_and_index() {
        let mut rng = StdRng::seed_from_u64(11);
        let ids = [Id::ZERO, Id::MAX, Id::HALF, id(1), Id::random(&mut rng)];
        for a in ids {
            for b in 1..=8u32 {
                for index in 0..crate::digits_for(b) {
                    assert_eq!(
                        a.digit(index, b),
                        oracle::digit(a, index, b),
                        "b={b} i={index}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_limb_arithmetic_matches_byte_oracle(
            a in any::<[u8; 20]>(), sa in any::<u32>(), b in any::<[u8; 20]>(), sb in any::<u32>()
        ) {
            let (a, b) = (edge(a, sa), edge(b, sb));
            prop_assert_eq!(a.wrapping_add(b), oracle::wrapping_add(a, b));
            prop_assert_eq!(a.wrapping_sub(b), oracle::wrapping_sub(a, b));
            prop_assert_eq!(a.ring_distance(b), oracle::ring_distance(a, b));
        }

        #[test]
        fn prop_cmp_distance_and_arcs_match_byte_oracle(
            k in any::<[u8; 20]>(), a in any::<[u8; 20]>(), b in any::<[u8; 20]>(), s in any::<u32>()
        ) {
            let (k, a, b) = (edge(k, s), edge(a, s.rotate_left(7)), edge(b, s.rotate_left(14)));
            prop_assert_eq!(k.cmp_distance(a, b), oracle::cmp_distance(k, a, b));
            prop_assert_eq!(k.cmp_distance(a, a), Ordering::Equal);
            prop_assert_eq!(k.between_cw(a, b), oracle::between_cw(k, a, b));
            prop_assert_eq!(a.between_cw(a, b), oracle::between_cw(a, a, b));
            prop_assert_eq!(b.between_cw(a, b), oracle::between_cw(b, a, b));
        }

        #[test]
        fn prop_digit_matches_byte_oracle(
            a in any::<[u8; 20]>(), s in any::<u32>(), w in 1u32..=8, pick in any::<usize>()
        ) {
            let a = edge(a, s);
            let last = crate::digits_for(w) - 1;
            for index in [0, pick % (last + 1), last] {
                prop_assert_eq!(a.digit(index, w), oracle::digit(a, index, w));
            }
        }

        #[test]
        fn prop_add_sub_inverse(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
            prop_assert_eq!(a.wrapping_sub(b).wrapping_add(b), a);
        }

        #[test]
        fn prop_add_commutes(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }

        #[test]
        fn prop_ring_distance_symmetric_and_bounded(
            a in any::<[u8; 20]>(), b in any::<[u8; 20]>()
        ) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            let d = a.ring_distance(b);
            prop_assert_eq!(d, b.ring_distance(a));
            prop_assert!(d <= Id::HALF);
            prop_assert_eq!(a.ring_distance(a), Id::ZERO);
        }

        #[test]
        fn prop_ring_distance_triangle(
            a in any::<[u8; 20]>(), b in any::<[u8; 20]>(), c in any::<[u8; 20]>()
        ) {
            let (a, b, c) = (Id::from_bytes(a), Id::from_bytes(b), Id::from_bytes(c));
            // d(a,c) <= d(a,b) + d(b,c); the sum may wrap, in which case it
            // exceeds HALF >= d(a,c) anyway, so compare in 161-bit space.
            let ab = a.ring_distance(b);
            let bc = b.ring_distance(c);
            let ac = a.ring_distance(c);
            let (sum, overflow) = {
                let s = ab.wrapping_add(bc);
                (s, s < ab)
            };
            prop_assert!(overflow || ac <= sum);
        }

        #[test]
        fn prop_digit_roundtrip(bytes in any::<[u8; 20]>(), idx in 0usize..40) {
            let a = Id::from_bytes(bytes);
            let d = a.digit(idx, 4);
            prop_assert_eq!(a.with_digit(idx, 4, d), a);
            prop_assert_eq!(a.with_digit(idx, 4, (d + 1) % 16).digit(idx, 4), (d + 1) % 16);
        }

        #[test]
        fn prop_shared_prefix_consistent_with_digits(
            a in any::<[u8; 20]>(), b in any::<[u8; 20]>(), w in 1u32..=8
        ) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            let p = a.shared_prefix_digits(b, w);
            for i in 0..p {
                prop_assert_eq!(a.digit(i, w), b.digit(i, w));
            }
            if p < crate::digits_for(w) {
                prop_assert_ne!(a.digit(p, w), b.digit(p, w));
            }
        }

        #[test]
        fn prop_between_cw_matches_distances(
            x in any::<[u8; 20]>(), from in any::<[u8; 20]>(), to in any::<[u8; 20]>()
        ) {
            let (x, from, to) = (Id::from_bytes(x), Id::from_bytes(from), Id::from_bytes(to));
            prop_assume!(from != to);
            let inside = x.between_cw(from, to);
            let expect = from.clockwise_distance(x) != Id::ZERO
                && from.clockwise_distance(x) <= from.clockwise_distance(to);
            prop_assert_eq!(inside, expect);
        }
    }
}
