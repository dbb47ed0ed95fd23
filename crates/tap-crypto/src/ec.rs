//! Reed–Solomon erasure coding over GF(2^8) for multipath tunnel transfer.
//!
//! TAP transfers historically rode a single forward tunnel: one lossy link
//! or partition window forces the full retry/backoff gauntlet, and one
//! relay sees the entire payload. Striping each payload into `n` coded
//! fragments — any `k` of which reconstruct it — lets `tap-core` ship a
//! transfer across `n` disjoint tunnels concurrently and tolerate up to
//! `n − k` stripe failures without a retry (craftnet's 5/3 design).
//!
//! The codec is systematic and zero-dependency:
//!
//! * arithmetic is GF(2^8) with the AES-adjacent primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), via compile-time exp/log tables;
//! * the payload is cut into ~3 KB chunks; each chunk is split into `k`
//!   data shards (zero-padded) interpreted as evaluations of a degree
//!   `< k` polynomial at the field points `0..k`, and the `n − k` parity
//!   shards are the evaluations at points `k..n` (Lagrange interpolation);
//! * fragment `i` carries shard `i` of every chunk, so geometry is fully
//!   derivable from `(payload_len, n, k, chunk)` — no side metadata;
//! * every fragment carries a checksum over its header and body plus an
//!   8-byte digest of the whole payload, so a corrupted fragment is
//!   *detected* and skipped rather than silently poisoning the decode.
//!
//! `k = 1` degenerates to replication and `(1, 1)` to the identity code,
//! which is exactly the single-path fallback `tap-core` uses when a small
//! or churning overlay cannot supply `n` disjoint tunnels.

use crate::sha256::sha256;

/// Fragment header: `[n][k][index][payload_len: u32 BE][payload digest; 8][check; 4]`.
pub const HEADER_LEN: usize = 3 + 4 + PAYLOAD_DIGEST_LEN + FRAGMENT_CHECK_LEN;
const PAYLOAD_DIGEST_LEN: usize = 8;
const FRAGMENT_CHECK_LEN: usize = 4;

// GF(2^8) exp/log tables for the primitive polynomial 0x11d with generator
// 2, built at compile time. EXP is doubled so `EXP[LOG[a] + LOG[b]]` never
// needs a modular reduction (the sum is at most 508).
const GF_TABLES: ([u8; 512], [u8; 256]) = build_gf_tables();
const GF_EXP: [u8; 512] = GF_TABLES.0;
const GF_LOG: [u8; 256] = GF_TABLES.1;

const fn build_gf_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

/// Split 4-bit multiply tables for one fixed coefficient: by GF(2^8)
/// linearity over XOR, `c·b = lo[b & 15] ^ hi[b >> 4]`. Thirty-two bytes
/// per coefficient — resident in a cache line or two — versus the 768
/// bytes of exp/log the generic [`gf_mul`] walks, and `log(c)` is looked
/// up exactly once per (coefficient, shard) pair instead of per byte.
struct GfMulTable {
    lo: [u8; 16],
    hi: [u8; 16],
}

impl GfMulTable {
    fn new(coeff: u8) -> GfMulTable {
        debug_assert_ne!(coeff, 0, "zero rows are skipped before table build");
        let log_c = GF_LOG[coeff as usize] as usize;
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for x in 1usize..16 {
            lo[x] = GF_EXP[log_c + GF_LOG[x] as usize];
            hi[x] = GF_EXP[log_c + GF_LOG[x << 4] as usize];
        }
        GfMulTable { lo, hi }
    }

    #[inline(always)]
    fn mul(&self, b: u8) -> u8 {
        self.lo[(b & 0x0f) as usize] ^ self.hi[(b >> 4) as usize]
    }
}

/// `dst[i] ^= coeff · src[i]` over GF(2^8) — the encode/reconstruct inner
/// loop — eight bytes per `u64` load/store step through the split nibble
/// tables (SWAR over the memory traffic; the nibble lookups stay scalar
/// but hit a 32-byte table). `coeff == 1` degrades to a pure wide XOR.
/// Bit-identical to [`gf_mul_acc_scalar`] (proptested below).
#[doc(hidden)]
pub fn gf_mul_acc(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert!(src.len() >= dst.len());
    let n = dst.len();
    if coeff == 0 {
        return;
    }
    if coeff == 1 {
        for (d, s) in dst[..n - n % 8]
            .chunks_exact_mut(8)
            .zip(src.chunks_exact(8))
        {
            let x = u64::from_le_bytes(d[..8].try_into().expect("8-byte chunk"))
                ^ u64::from_le_bytes(s[..8].try_into().expect("8-byte chunk"));
            d.copy_from_slice(&x.to_le_bytes());
        }
        for (d, s) in dst[n - n % 8..].iter_mut().zip(&src[n - n % 8..]) {
            *d ^= s;
        }
        return;
    }
    let t = GfMulTable::new(coeff);
    for (d, s) in dst[..n - n % 8]
        .chunks_exact_mut(8)
        .zip(src.chunks_exact(8))
    {
        let x = u64::from_le_bytes(s[..8].try_into().expect("8-byte chunk"));
        let mut y = 0u64;
        for k in 0..8 {
            y |= (t.mul((x >> (k * 8)) as u8) as u64) << (k * 8);
        }
        let cur = u64::from_le_bytes(d[..8].try_into().expect("8-byte chunk"));
        d.copy_from_slice(&(cur ^ y).to_le_bytes());
    }
    for (d, s) in dst[n - n % 8..].iter_mut().zip(&src[n - n % 8..]) {
        *d ^= t.mul(*s);
    }
}

/// The scalar multiply-accumulate with the per-coefficient log lookup
/// hoisted out of the byte loop (the pre-SWAR loop re-derived
/// `GF_LOG[coeff]` through [`gf_mul`] on every byte). Reference for the
/// SWAR path and the baseline the kernel benches compare against.
#[doc(hidden)]
pub fn gf_mul_acc_scalar(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert!(src.len() >= dst.len());
    if coeff == 0 {
        return;
    }
    let log_c = GF_LOG[coeff as usize] as usize;
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        if s != 0 {
            *d ^= GF_EXP[log_c + GF_LOG[s as usize] as usize];
        }
    }
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse in GF(2^8)");
    GF_EXP[255 - GF_LOG[a as usize] as usize]
}

/// The Lagrange row evaluating the degree `< xs.len()` polynomial defined
/// by values at the field points `xs` at the target point `e`: the value
/// at `e` is the GF dot product of the row with the values at `xs`.
fn lagrange_row(xs: &[u8], e: u8) -> Vec<u8> {
    xs.iter()
        .enumerate()
        .map(|(j, &xj)| {
            if xj == e {
                return 1;
            }
            if xs.contains(&e) {
                return 0;
            }
            let mut num = 1u8;
            let mut den = 1u8;
            for (m, &xm) in xs.iter().enumerate() {
                if m == j {
                    continue;
                }
                num = gf_mul(num, e ^ xm);
                den = gf_mul(den, xj ^ xm);
            }
            gf_mul(num, gf_inv(den))
        })
        .collect()
}

/// Why encoding or reconstruction could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcError {
    /// `(n, k)` outside `1 ≤ k ≤ n ≤ MAX_FRAGMENTS`, or a zero chunk size.
    BadConfig,
    /// Payload length exceeds the `u32` carried in fragment headers.
    TooLarge,
    /// A fragment failed its header or checksum validation.
    Corrupt,
    /// Fewer intact fragments than the `k` the code requires.
    NotEnough {
        /// Intact, config-consistent fragments seen.
        have: usize,
        /// The `k` of the code.
        need: usize,
    },
    /// Intact fragments disagree on payload length or digest — the caller
    /// mixed fragments from different transfers.
    Inconsistent,
    /// The reconstructed payload failed its end-to-end digest check.
    DigestMismatch,
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::BadConfig => write!(f, "erasure config outside 1 <= k <= n <= 64"),
            EcError::TooLarge => write!(f, "payload exceeds u32 length"),
            EcError::Corrupt => write!(f, "fragment failed checksum validation"),
            EcError::NotEnough { have, need } => {
                write!(f, "{have} intact fragments, {need} required")
            }
            EcError::Inconsistent => write!(f, "fragments from different transfers mixed"),
            EcError::DigestMismatch => write!(f, "reconstructed payload digest mismatch"),
        }
    }
}

impl std::error::Error for EcError {}

/// Validated header of a single fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentMeta {
    /// Total fragments the transfer was encoded into.
    pub n: u8,
    /// Fragments required to reconstruct.
    pub k: u8,
    /// This fragment's shard index in `0..n`.
    pub index: u8,
    /// Length of the original payload in bytes.
    pub payload_len: u32,
    /// Truncated SHA-256 of the original payload.
    pub digest: [u8; PAYLOAD_DIGEST_LEN],
}

/// Parse and checksum-validate a fragment header without a config in hand
/// (the receiver uses this to group arriving fragments by transfer).
pub fn fragment_meta(fragment: &[u8]) -> Result<FragmentMeta, EcError> {
    let (meta, _) = parse_fragment(fragment)?;
    Ok(meta)
}

fn parse_fragment(fragment: &[u8]) -> Result<(FragmentMeta, &[u8]), EcError> {
    if fragment.len() < HEADER_LEN {
        return Err(EcError::Corrupt);
    }
    let (header, body) = fragment.split_at(HEADER_LEN);
    let mut check = crate::sha256::Sha256::new();
    check.update(&header[..HEADER_LEN - FRAGMENT_CHECK_LEN]);
    check.update(body);
    if check.finalize()[..FRAGMENT_CHECK_LEN] != header[HEADER_LEN - FRAGMENT_CHECK_LEN..] {
        return Err(EcError::Corrupt);
    }
    let mut digest = [0u8; PAYLOAD_DIGEST_LEN];
    digest.copy_from_slice(&header[7..7 + PAYLOAD_DIGEST_LEN]);
    let meta = FragmentMeta {
        n: header[0],
        k: header[1],
        index: header[2],
        payload_len: u32::from_be_bytes([header[3], header[4], header[5], header[6]]),
        digest,
    };
    if meta.k == 0 || meta.k > meta.n || meta.index >= meta.n {
        return Err(EcError::Corrupt);
    }
    Ok((meta, body))
}

/// Result of [`EcConfig::reconstruct`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconstruction {
    /// The decoded payload, byte-identical to what was encoded.
    pub payload: Vec<u8>,
    /// How many fragments the decode actually consumed (always `k`).
    pub fragments_used: usize,
    /// Positions (in the input slice) of fragments that failed validation
    /// and were skipped. Detection, not correction: a corrupted fragment
    /// never contributes to the decode.
    pub corrupt: Vec<usize>,
}

/// An `(n, k)` Reed–Solomon configuration with a chunking granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcConfig {
    n: u8,
    k: u8,
    chunk: usize,
}

impl EcConfig {
    /// Default chunk granularity (~3 KB, craftnet's stripe unit).
    pub const DEFAULT_CHUNK: usize = 3072;
    /// Ceiling on `n`: stripe bitmasks elsewhere fit in a `u64`.
    pub const MAX_FRAGMENTS: u8 = 64;

    /// An `(n, k)` code over [`Self::DEFAULT_CHUNK`]-byte chunks.
    pub fn new(n: u8, k: u8) -> Result<EcConfig, EcError> {
        EcConfig::with_chunk(n, k, EcConfig::DEFAULT_CHUNK)
    }

    /// An `(n, k)` code with an explicit chunk size (tests use small chunks
    /// to exercise multi-chunk geometry cheaply).
    pub fn with_chunk(n: u8, k: u8, chunk: usize) -> Result<EcConfig, EcError> {
        if k == 0 || k > n || n > EcConfig::MAX_FRAGMENTS || chunk == 0 {
            return Err(EcError::BadConfig);
        }
        Ok(EcConfig { n, k, chunk })
    }

    /// Total fragments produced by [`Self::encode`].
    pub fn n(&self) -> u8 {
        self.n
    }

    /// Fragments required by [`Self::reconstruct`].
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Chunk granularity in bytes.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Shard length of each chunk of a `payload_len`-byte payload, in
    /// chunk order. All geometry derives from this.
    fn shard_lens(&self, payload_len: usize) -> Vec<usize> {
        let mut lens = Vec::with_capacity(payload_len.div_ceil(self.chunk.max(1)));
        let mut off = 0;
        while off < payload_len {
            let clen = (payload_len - off).min(self.chunk);
            lens.push(clen.div_ceil(self.k as usize));
            off += clen;
        }
        lens
    }

    /// Body bytes of each fragment: the sum of [`Self::shard_lens`] in
    /// O(1), so checking a remote header's `payload_len` (up to 4 GiB)
    /// allocates nothing.
    fn body_len(&self, payload_len: usize) -> usize {
        let k = self.k as usize;
        (payload_len / self.chunk) * self.chunk.div_ceil(k) + (payload_len % self.chunk).div_ceil(k)
    }

    /// On-wire length of each fragment for a payload of `payload_len` bytes.
    pub fn fragment_len(&self, payload_len: usize) -> usize {
        HEADER_LEN + self.body_len(payload_len)
    }

    /// Encode `payload` into `n` fragments, any `k` of which reconstruct it.
    pub fn encode(&self, payload: &[u8]) -> Result<Vec<Vec<u8>>, EcError> {
        if payload.len() > u32::MAX as usize {
            return Err(EcError::TooLarge);
        }
        let n = self.n as usize;
        let k = self.k as usize;
        let lens = self.shard_lens(payload.len());
        let body_len = self.body_len(payload.len());
        let data_points: Vec<u8> = (0..self.k).collect();
        let parity_rows: Vec<Vec<u8>> = (self.k..self.n)
            .map(|e| lagrange_row(&data_points, e))
            .collect();

        let mut bodies: Vec<Vec<u8>> = (0..n).map(|_| Vec::with_capacity(body_len)).collect();
        let mut off = 0;
        for &s in &lens {
            let clen = (payload.len() - off).min(self.chunk);
            let mut shards: Vec<Vec<u8>> = Vec::with_capacity(k);
            for i in 0..k {
                let mut shard = vec![0u8; s];
                let start = off + i * s;
                if start < off + clen {
                    let end = (start + s).min(off + clen);
                    shard[..end - start].copy_from_slice(&payload[start..end]);
                }
                shards.push(shard);
            }
            for (body, shard) in bodies.iter_mut().zip(&shards) {
                body.extend_from_slice(shard);
            }
            for (j, row) in parity_rows.iter().enumerate() {
                let mut parity = vec![0u8; s];
                for (&coeff, shard) in row.iter().zip(&shards) {
                    gf_mul_acc(coeff, shard, &mut parity);
                }
                bodies[k + j].extend_from_slice(&parity);
            }
            off += clen;
        }

        let digest = payload_digest(payload);
        Ok(bodies
            .into_iter()
            .enumerate()
            .map(|(idx, body)| self.seal_fragment(idx as u8, payload.len() as u32, digest, body))
            .collect())
    }

    fn seal_fragment(
        &self,
        index: u8,
        payload_len: u32,
        digest: [u8; 8],
        body: Vec<u8>,
    ) -> Vec<u8> {
        let mut frag = Vec::with_capacity(HEADER_LEN + body.len());
        frag.push(self.n);
        frag.push(self.k);
        frag.push(index);
        frag.extend_from_slice(&payload_len.to_be_bytes());
        frag.extend_from_slice(&digest);
        let mut check = crate::sha256::Sha256::new();
        check.update(&frag);
        check.update(&body);
        frag.extend_from_slice(&check.finalize()[..FRAGMENT_CHECK_LEN]);
        frag.extend_from_slice(&body);
        frag
    }

    /// Reconstruct the payload from any `k` intact fragments (any order,
    /// duplicates and corrupted fragments tolerated and reported).
    pub fn reconstruct(&self, fragments: &[Vec<u8>]) -> Result<Reconstruction, EcError> {
        let k = self.k as usize;
        let mut corrupt = Vec::new();
        let mut valid: Vec<(u8, &[u8])> = Vec::new();
        let mut reference: Option<(u32, [u8; 8])> = None;
        for (pos, fragment) in fragments.iter().enumerate() {
            let (meta, body) = match parse_fragment(fragment) {
                Ok(parsed) => parsed,
                Err(_) => {
                    corrupt.push(pos);
                    continue;
                }
            };
            if meta.n != self.n || meta.k != self.k {
                corrupt.push(pos);
                continue;
            }
            if body.len() != self.body_len(meta.payload_len as usize) {
                corrupt.push(pos);
                continue;
            }
            match reference {
                None => reference = Some((meta.payload_len, meta.digest)),
                Some((len, digest)) if len != meta.payload_len || digest != meta.digest => {
                    return Err(EcError::Inconsistent);
                }
                Some(_) => {}
            }
            if !valid.iter().any(|(idx, _)| *idx == meta.index) {
                valid.push((meta.index, body));
            }
        }
        if valid.len() < k {
            return Err(EcError::NotEnough {
                have: valid.len(),
                need: k,
            });
        }
        let (payload_len, digest) = reference.expect("valid fragments imply a reference header");
        valid.sort_by_key(|(idx, _)| *idx);
        valid.truncate(k);

        let xs: Vec<u8> = valid.iter().map(|(idx, _)| *idx).collect();
        // One interpolation row per *missing* data shard; present shards
        // copy straight out of their fragment body.
        let rows: Vec<Option<Vec<u8>>> = (0..self.k)
            .map(|i| {
                if xs.contains(&i) {
                    None
                } else {
                    Some(lagrange_row(&xs, i))
                }
            })
            .collect();

        let lens = self.shard_lens(payload_len as usize);
        let mut payload = vec![0u8; payload_len as usize];
        let mut body_off = 0;
        let mut pay_off = 0;
        for &s in &lens {
            let clen = (payload_len as usize - pay_off).min(self.chunk);
            for (i, row) in rows.iter().enumerate() {
                let start = pay_off + i * s;
                if start >= pay_off + clen {
                    break;
                }
                let take = (start + s).min(pay_off + clen) - start;
                let dst = &mut payload[start..start + take];
                match row {
                    None => {
                        let (_, body) = valid
                            .iter()
                            .find(|(idx, _)| *idx as usize == i)
                            .expect("row is None only for present shards");
                        dst.copy_from_slice(&body[body_off..body_off + take]);
                    }
                    Some(coeffs) => {
                        for (&coeff, (_, body)) in coeffs.iter().zip(&valid) {
                            // `dst` may be shorter than the shard at the
                            // payload tail; the kernel clamps to it.
                            gf_mul_acc(coeff, &body[body_off..body_off + s], dst);
                        }
                    }
                }
            }
            body_off += s;
            pay_off += clen;
        }
        if payload_digest(&payload) != digest {
            return Err(EcError::DigestMismatch);
        }
        Ok(Reconstruction {
            payload,
            fragments_used: k,
            corrupt,
        })
    }
}

fn payload_digest(payload: &[u8]) -> [u8; PAYLOAD_DIGEST_LEN] {
    let full = sha256(payload);
    let mut digest = [0u8; PAYLOAD_DIGEST_LEN];
    digest.copy_from_slice(&full[..PAYLOAD_DIGEST_LEN]);
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_payload(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u32).wrapping_mul(31).to_le_bytes()[0] ^ (i >> 8) as u8)
            .collect()
    }

    #[test]
    fn swar_mul_acc_matches_per_byte_gf_mul_for_every_coefficient() {
        // Every coefficient, a length that exercises both the u64 body
        // and the byte tail, unaligned slice starts.
        let src: Vec<u8> = (0..61u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(5))
            .collect();
        for coeff in 0u16..=255 {
            let coeff = coeff as u8;
            let mut swar = vec![0x5Au8; 61];
            let mut scalar = swar.clone();
            let mut reference = swar.clone();
            gf_mul_acc(coeff, &src, &mut swar);
            gf_mul_acc_scalar(coeff, &src, &mut scalar);
            for (p, &b) in reference.iter_mut().zip(src.iter()) {
                *p ^= gf_mul(coeff, b);
            }
            assert_eq!(swar, reference, "coeff={coeff}");
            assert_eq!(scalar, reference, "coeff={coeff}");
        }
    }

    #[test]
    fn gf_tables_are_a_group() {
        for a in 1u16..=255 {
            let a = a as u8;
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a * a^-1 == 1 for a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Distributivity spot check across the generator orbit.
        assert_eq!(gf_mul(3, gf_mul(7, 9)), gf_mul(gf_mul(3, 7), 9));
    }

    #[test]
    fn default_config_is_five_three() {
        let cfg = EcConfig::new(5, 3).unwrap();
        assert_eq!((cfg.n(), cfg.k(), cfg.chunk()), (5, 3, 3072));
        assert!(EcConfig::new(0, 0).is_err());
        assert!(EcConfig::new(3, 5).is_err());
        assert!(EcConfig::new(65, 3).is_err());
        assert!(EcConfig::with_chunk(5, 3, 0).is_err());
    }

    #[test]
    fn roundtrip_multi_chunk_unaligned() {
        let cfg = EcConfig::new(5, 3).unwrap();
        let payload = sample_payload(2 * 3072 + 17);
        let frags = cfg.encode(&payload).unwrap();
        assert_eq!(frags.len(), 5);
        for f in &frags {
            assert_eq!(f.len(), cfg.fragment_len(payload.len()));
        }
        // Drop the two data fragments carrying the front of the payload:
        // reconstruction must come entirely out of parity.
        let kept = frags[2..].to_vec();
        let r = cfg.reconstruct(&kept).unwrap();
        assert_eq!(r.payload, payload);
        assert_eq!(r.fragments_used, 3);
        assert!(r.corrupt.is_empty());
    }

    #[test]
    fn empty_and_single_byte_payloads() {
        let cfg = EcConfig::new(5, 3).unwrap();
        for len in [0usize, 1] {
            let payload = sample_payload(len);
            let frags = cfg.encode(&payload).unwrap();
            let r = cfg.reconstruct(&frags[..3]).unwrap();
            assert_eq!(r.payload, payload, "len={len}");
        }
    }

    #[test]
    fn identity_and_replication_degenerate_codes() {
        let single = EcConfig::new(1, 1).unwrap();
        let payload = sample_payload(100);
        let frags = single.encode(&payload).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(single.reconstruct(&frags).unwrap().payload, payload);

        let replicated = EcConfig::new(3, 1).unwrap();
        let frags = replicated.encode(&payload).unwrap();
        for f in &frags {
            let r = replicated.reconstruct(std::slice::from_ref(f)).unwrap();
            assert_eq!(r.payload, payload, "any single replica suffices");
        }
    }

    #[test]
    fn mixed_transfers_are_rejected() {
        let cfg = EcConfig::new(5, 3).unwrap();
        let a = cfg.encode(&sample_payload(64)).unwrap();
        let b = cfg.encode(&sample_payload(65)).unwrap();
        let mixed = vec![a[0].clone(), a[1].clone(), b[2].clone()];
        assert_eq!(cfg.reconstruct(&mixed), Err(EcError::Inconsistent));
    }

    #[test]
    fn meta_reports_header_fields() {
        let cfg = EcConfig::new(5, 3).unwrap();
        let frags = cfg.encode(&sample_payload(10)).unwrap();
        let meta = fragment_meta(&frags[4]).unwrap();
        assert_eq!(
            (meta.n, meta.k, meta.index, meta.payload_len),
            (5, 3, 4, 10)
        );
        assert_eq!(fragment_meta(b"short"), Err(EcError::Corrupt));
    }

    proptest! {
        // Scalar ≡ SWAR at arbitrary lengths, offsets into a larger
        // buffer (unaligned u64 phases), and coefficients.
        #[test]
        fn prop_swar_equals_scalar_mul_acc(
            coeff in any::<u8>(),
            src in proptest::collection::vec(any::<u8>(), 0..300),
            skip in 0usize..8,
            acc_seed in any::<u8>(),
        ) {
            let src = if skip < src.len() { &src[skip..] } else { &src[..0] };
            let mut swar = vec![acc_seed; src.len()];
            let mut scalar = swar.clone();
            gf_mul_acc(coeff, src, &mut swar);
            gf_mul_acc_scalar(coeff, src, &mut scalar);
            prop_assert_eq!(swar, scalar);
        }

        // The full codec stays correct over the whole (n, k) envelope up
        // to MAX_FRAGMENTS = 64, through the SWAR inner loops.
        #[test]
        fn prop_roundtrip_all_nk_up_to_64(
            n in 1u8..=64,
            k_seed in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            drop_seed in any::<u64>(),
        ) {
            let k = 1 + k_seed % n;
            let cfg = EcConfig::with_chunk(n, k, 96).unwrap();
            let frags = cfg.encode(&payload).unwrap();
            prop_assert_eq!(frags.len(), n as usize);
            // Keep a pseudo-random k-subset of the n fragments.
            let mut kept: Vec<Vec<u8>> = Vec::with_capacity(k as usize);
            let mut state = drop_seed | 1;
            let mut order: Vec<usize> = (0..n as usize).collect();
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            for &i in order.iter().take(k as usize) {
                kept.push(frags[i].clone());
            }
            let r = cfg.reconstruct(&kept).unwrap();
            prop_assert_eq!(r.payload, payload);
            prop_assert_eq!(r.fragments_used, k as usize);
        }

        #[test]
        fn roundtrip_under_every_erasure_pattern(
            n in 2u8..7,
            k_seed in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let k = 1 + k_seed % n;
            let cfg = EcConfig::with_chunk(n, k, 48).unwrap();
            let frags = cfg.encode(&payload).unwrap();
            // Every erasure pattern losing up to n - k fragments.
            for mask in 0u32..(1u32 << n) {
                if mask.count_ones() < k as u32 {
                    continue;
                }
                let kept: Vec<Vec<u8>> = frags
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, f)| f.clone())
                    .collect();
                let r = cfg.reconstruct(&kept).unwrap();
                prop_assert_eq!(&r.payload, &payload, "mask {:05b}", mask);
                prop_assert!(r.corrupt.is_empty());
            }
            // Below k intact fragments, reconstruction refuses.
            if k > 1 {
                let starved = frags[..k as usize - 1].to_vec();
                prop_assert_eq!(
                    cfg.reconstruct(&starved),
                    Err(EcError::NotEnough { have: k as usize - 1, need: k as usize })
                );
            }
        }

        #[test]
        fn corrupted_fragment_is_detected(
            payload in proptest::collection::vec(any::<u8>(), 1..160),
            victim_seed in any::<u8>(),
            flip_seed in any::<u64>(),
        ) {
            let cfg = EcConfig::with_chunk(5, 3, 48).unwrap();
            let mut frags = cfg.encode(&payload).unwrap();
            let victim = (victim_seed % 5) as usize;
            let flip_at = flip_seed as usize % frags[victim].len();
            frags[victim][flip_at] ^= 0x41;
            // With all five fragments present the corrupted one is skipped
            // and reported; the decode still succeeds from the other four.
            let r = cfg.reconstruct(&frags).unwrap();
            prop_assert_eq!(&r.payload, &payload);
            prop_assert_eq!(&r.corrupt, &vec![victim]);
            // With exactly k fragments including the corrupted one, the
            // decode refuses rather than returning garbage.
            let kept = frags[victim.min(2)..victim.min(2) + 3].to_vec();
            let starved = cfg.reconstruct(&kept);
            prop_assert!(
                starved == Err(EcError::NotEnough { have: 2, need: 3 }),
                "expected NotEnough, got {:?}", starved
            );
        }

        #[test]
        fn body_len_is_the_sum_of_shard_lens(
            payload_len in 0usize..2000,
            n in 1u8..=64,
            k_seed in any::<u8>(),
            chunk in 1usize..200,
        ) {
            let cfg = EcConfig::with_chunk(n, 1 + k_seed % n, chunk).unwrap();
            prop_assert_eq!(
                cfg.body_len(payload_len),
                cfg.shard_lens(payload_len).iter().sum::<usize>()
            );
        }

        // Fragments arrive from remote relays; anyone can recompute the
        // check field, so parsing must hold up on arbitrary bytes.
        #[test]
        fn prop_fragment_meta_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            let _ = fragment_meta(&bytes);
            let mut forged = bytes;
            forge_check(&mut forged);
            if let Ok(meta) = fragment_meta(&forged) {
                prop_assert!(1 <= meta.k && meta.k <= meta.n && meta.index < meta.n);
            }
        }

        // Forged fragments with valid checks, optionally shaped to match
        // the config's geometry (and the genuine transfer's length and
        // digest), mixed with some genuine fragments: the decode may
        // refuse, but never panics and never returns a wrong payload.
        #[test]
        fn prop_reconstruct_never_panics_on_forged_fragments(
            raw in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), HEADER_LEN..HEADER_LEN + 80),
                1..7,
            ),
            shapes in proptest::collection::vec((any::<u8>(), 0u8..4, any::<u32>()), 7),
            payload in proptest::collection::vec(any::<u8>(), 0..120),
            genuine in 0usize..6,
        ) {
            let cfg = EcConfig::with_chunk(5, 3, 48).unwrap();
            let mut frags: Vec<Vec<u8>> = cfg.encode(&payload).unwrap();
            frags.truncate(genuine);
            for (mut frag, &(index, shape, forged_len)) in raw.into_iter().zip(&shapes) {
                if shape != 0 {
                    let len = if shape & 2 != 0 {
                        frag[7..15].copy_from_slice(&payload_digest(&payload));
                        payload.len()
                    } else {
                        forged_len as usize % 400
                    };
                    frag[..3].copy_from_slice(&[5, 3, index % 6]);
                    frag[3..7].copy_from_slice(&(len as u32).to_be_bytes());
                    frag.resize(HEADER_LEN + cfg.body_len(len), index);
                } else {
                    frag[3..7].copy_from_slice(&forged_len.to_be_bytes());
                }
                forge_check(&mut frag);
                frags.push(frag);
            }
            if let Ok(r) = cfg.reconstruct(&frags) {
                prop_assert_eq!(r.payload, payload);
            }
        }
    }

    /// Overwrite a fragment's check field with the checksum of its other
    /// bytes, as any sender can.
    fn forge_check(fragment: &mut [u8]) {
        if fragment.len() < HEADER_LEN {
            return;
        }
        let mut check = crate::sha256::Sha256::new();
        check.update(&fragment[..HEADER_LEN - FRAGMENT_CHECK_LEN]);
        check.update(&fragment[HEADER_LEN..]);
        let sum = check.finalize();
        fragment[HEADER_LEN - FRAGMENT_CHECK_LEN..HEADER_LEN]
            .copy_from_slice(&sum[..FRAGMENT_CHECK_LEN]);
    }
}
