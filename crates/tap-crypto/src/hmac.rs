//! HMAC-SHA-256 (RFC 2104), plus the small HKDF-style key derivation used
//! to split one shared secret into independent per-purpose keys.

use crate::sha256::{sha256, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Compute `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// Incremental HMAC-SHA-256.
///
/// Both pads are absorbed when the MAC is keyed: `inner` and `outer` hold
/// the hash states after the ipad and opad blocks. Finishing costs the
/// inner tail plus one outer compression, and a keyed MAC can be cloned
/// to tag several messages under one key without re-keying.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Start a MAC under `key` (any length; long keys are pre-hashed as the
    /// RFC requires).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|x| x ^ byte));
            h
        };
        HmacSha256 {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// Constant-time tag comparison.
///
/// The simulator is not a remote-timing target, but verifying MACs in
/// constant time is free and keeps the primitive honest.
pub fn verify_tag(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Derive a labelled subkey from `secret`: `HMAC(secret, label || counter)`.
///
/// A one-step HKDF-Expand; sufficient because our secrets are already
/// uniform (X25519 outputs fed through SHA-256, or RNG-drawn keys).
pub fn derive_key(secret: &[u8], label: &str, counter: u8) -> [u8; DIGEST_LEN] {
    let [key] = derive_keys(secret, [label], counter);
    key
}

/// [`derive_key`] for several labels under one secret, keying the MAC
/// once: element `i` equals `derive_key(secret, labels[i], counter)`, at
/// two compressions per label plus two for the shared key schedule
/// instead of four per label.
pub fn derive_keys<const N: usize>(
    secret: &[u8],
    labels: [&str; N],
    counter: u8,
) -> [[u8; DIGEST_LEN]; N] {
    let keyed = HmacSha256::new(secret);
    labels.map(|label| {
        let mut mac = keyed.clone();
        mac.update(label.as_bytes());
        mac.update(&[counter]);
        mac.finalize()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases 1, 2, and 3.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 case 6: key longer than one block must be pre-hashed.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"some key";
        let data = b"split me into pieces";
        let mut mac = HmacSha256::new(key);
        mac.update(&data[..5]);
        mac.update(&data[5..]);
        assert_eq!(mac.finalize(), hmac_sha256(key, data));
    }

    #[test]
    fn verify_tag_behaviour() {
        let t = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&t, &t));
        let mut bad = t;
        bad[0] ^= 1;
        assert!(!verify_tag(&t, &bad));
        assert!(!verify_tag(&t, &t[..31]), "length mismatch rejected");
    }

    /// HMAC by the RFC 2104 formula `H((K ^ opad) || H((K ^ ipad) || m))`,
    /// hashing both pads on every call.
    fn hmac_oracle(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let inner: Vec<u8> = k
            .iter()
            .map(|x| x ^ 0x36)
            .chain(data.iter().copied())
            .collect();
        let outer: Vec<u8> = k.iter().map(|x| x ^ 0x5c).chain(sha256(&inner)).collect();
        sha256(&outer)
    }

    proptest! {
        #[test]
        fn prop_hmac_matches_rfc_formula(
            key in proptest::collection::vec(any::<u8>(), 0..150),
            data in proptest::collection::vec(any::<u8>(), 0..200)
        ) {
            prop_assert_eq!(hmac_sha256(&key, &data), hmac_oracle(&key, &data));
            // A cloned keyed MAC tags independently of its sibling.
            let keyed = HmacSha256::new(&key);
            let mut other = keyed.clone();
            other.update(b"sibling");
            let mut mac = keyed;
            mac.update(&data);
            prop_assert_eq!(mac.finalize(), hmac_oracle(&key, &data));
        }

        #[test]
        fn prop_derive_keys_equals_one_derive_key_per_label(
            secret in proptest::collection::vec(any::<u8>(), 0..100),
            counter in any::<u8>(),
            pick in 0usize..4
        ) {
            let labels = ["tap.enc", "tap.mac", "", "a label longer than one sixty-four byte block of input"];
            let (a, b) = (labels[pick], labels[(pick + 1) % 4]);
            prop_assert_eq!(
                derive_keys(&secret, [a, b], counter),
                [derive_key(&secret, a, counter), derive_key(&secret, b, counter)]
            );
            let mut mac = HmacSha256::new(&secret);
            mac.update(a.as_bytes());
            mac.update(&[counter]);
            prop_assert_eq!(derive_key(&secret, a, counter), mac.finalize());
        }
    }

    #[test]
    fn derive_key_separates_labels_and_counters() {
        let s = b"master secret";
        let a = derive_key(s, "enc", 0);
        let b = derive_key(s, "enc", 1);
        let c = derive_key(s, "mac", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a, derive_key(s, "enc", 0));
    }
}
