//! SHA-256 (FIPS 180-4). Used for password commitments `H(PW)`, HMAC, and
//! key derivation — everywhere the workspace needs a hash that is actually
//! collision resistant (see the note on [`crate::sha1`]).

/// Output width in bytes.
pub const DIGEST_LEN: usize = 32;
const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The FIPS initial hash value.
const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Sha256 {
            state: IV,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = rest.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("exact block"));
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len += tail.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding in place: 0x80, zeros, then the 64-bit message length in
        // bits — spilling into a second block when fewer than 9 bytes of
        // the current one remain.
        let bit_len = self.len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// One SHA-256 round on the eight working variables, named in rotated
/// order so that unrolled rounds rename registers instead of shuffling
/// them: only `d` and `h` change.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($kw);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) | ($c & ($a | $b)));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// Eight rounds starting at round `$i`, one per rotation of the names;
/// after eight the names are back where they started.
macro_rules! eight_rounds {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr, $kw:ident) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, $kw($i));
        round!($h, $a, $b, $c, $d, $e, $f, $g, $kw($i + 1));
        round!($g, $h, $a, $b, $c, $d, $e, $f, $kw($i + 2));
        round!($f, $g, $h, $a, $b, $c, $d, $e, $kw($i + 3));
        round!($e, $f, $g, $h, $a, $b, $c, $d, $kw($i + 4));
        round!($d, $e, $f, $g, $h, $a, $b, $c, $kw($i + 5));
        round!($c, $d, $e, $f, $g, $h, $a, $b, $kw($i + 6));
        round!($b, $c, $d, $e, $f, $g, $h, $a, $kw($i + 7));
    };
}

/// The SHA-256 compression function over one block. The message schedule
/// is a 16-word ring: round `i >= 16` overwrites `w[i % 16]`, the word
/// round `i - 16` consumed, so the schedule never leaves registers and L1
/// for a 64-word array.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (w, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes(chunk.try_into().expect("4-byte word"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in (0..16).step_by(8) {
        let kw = |i: usize| K[i].wrapping_add(w[i]);
        eight_rounds!(a, b, c, d, e, f, g, h, i, kw);
    }
    for i in (16..64).step_by(8) {
        let mut kw = |i: usize| {
            let w15 = w[(i + 1) & 15];
            let w2 = w[(i + 14) & 15];
            let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
            let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
            let next = w[i & 15]
                .wrapping_add(s0)
                .wrapping_add(w[(i + 9) & 15])
                .wrapping_add(s1);
            w[i & 15] = next;
            K[i].wrapping_add(next)
        };
        eight_rounds!(a, b, c, d, e, f, g, h, i, kw);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The straight-line compression the rolling-schedule kernel
    /// replaced: a 64-word schedule, then 64 rounds shuffling all eight
    /// working variables.
    fn compress_oracle(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }

    /// SHA-256 by the book: pad the whole message into a buffer, then run
    /// the oracle compression over each block.
    fn sha256_oracle(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut m = data.to_vec();
        m.push(0x80);
        while m.len() % BLOCK_LEN != BLOCK_LEN - 8 {
            m.push(0);
        }
        m.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = IV;
        for block in m.chunks_exact(BLOCK_LEN) {
            compress_oracle(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; DIGEST_LEN];
        for (o, w) in out.chunks_exact_mut(4).zip(state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    #[test]
    fn every_length_to_300_matches_oracle() {
        // Covers each padding edge: 55 (length fits the last block), 56
        // and 63 (padding spills into a second block), 64, 119 and 120.
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=300 {
            let msg = &data[..len];
            let expect = sha256_oracle(msg);
            assert_eq!(sha256(msg), expect, "one-shot, len {len}");
            // Fed in uneven pieces, so buffered and direct blocks mix.
            let mut h = Sha256::new();
            for piece in msg.chunks(37) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), expect, "incremental, len {len}");
        }
    }

    // FIPS 180-4 test vectors.
    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        for split in [0usize, 1, 63, 64, 65, 100, 776, 777] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }
}
