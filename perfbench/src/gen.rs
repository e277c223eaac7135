//! Seeded inputs: request streams, keys and values.
//!
//! Everything the benchmark sends is a pure function of the workload
//! seed: the stream of `(op, key, version, len)` requests, the key
//! bytes, and the value bytes. A value is derived from `(seed, key,
//! version)`, so every GET hit can be byte-verified without keeping a
//! copy of what was written.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// The SplitMix64 finaliser, used as a keyed hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(θ) over `0..n` by inverse CDF; rank 0 is the hottest item.
/// Ranks are scattered over the keyspace by a fixed map, the same for
/// every seed: which keys are hot — and so how evenly the hot set
/// falls on the shards — is part of the workload, and the seed only
/// draws the request sequence.
pub struct Zipf {
    cdf: Vec<f64>,
    scatter: u64,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / f64::from(rank).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf {
            cdf,
            scatter: mix(0x5a5a),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64;
        let n = self.cdf.len() as u64;
        // An affine map with an odd multiplier is a bijection mod n
        // only for power-of-two n, so scatter by a coprime stride.
        let stride = coprime_stride(n, self.scatter);
        ((rank * stride + self.scatter % n) % n) as u32
    }
}

fn coprime_stride(n: u64, seed: u64) -> u64 {
    let mut s = (seed % n).max(1) | 1;
    while gcd(s, n) != 1 {
        s += 2;
    }
    s
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get,
    Set,
    Del,
    /// Set a TTL of `len` milliseconds.
    Expire,
}

/// One generated request. For `Set`, `version` and `len` name the
/// value; for `Expire`, `len` is the TTL in milliseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    pub op: Op,
    pub key: u32,
    pub version: u32,
    pub len: u32,
}

impl Req {
    /// A fixed-width binary encoding, used to compare streams.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.op as u8);
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
    }
}

/// Key bytes for key index `key`: `key:` plus nine decimal digits.
pub fn key_into(key: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(b"key:");
    let mut digits = [b'0'; 9];
    let mut k = key;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (k % 10) as u8;
        k /= 10;
    }
    out.extend_from_slice(&digits);
}

pub fn key_bytes(key: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(13);
    key_into(key, &mut v);
    v
}

/// Parses a key produced by [`key_into`].
pub fn parse_key(bytes: &[u8]) -> Option<u32> {
    let digits = bytes.strip_prefix(b"key:")?;
    if digits.len() != 9 {
        return None;
    }
    let mut k = 0u32;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        k = k * 10 + u32::from(d - b'0');
    }
    Some(k)
}

const POOL: usize = 64 << 10;
/// Values carry their version as 8 hex digits, so no value is shorter.
pub const MIN_VALUE: u32 = 16;
const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.";

/// Value bytes for `(seed, key, version)`: the version in hex, then a
/// window of a seeded alphanumeric pool at a key-and-version-derived
/// offset. Printable and free of spaces, so it travels as one token.
pub struct Values {
    seed: u64,
    pool: Vec<u8>,
}

impl Values {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x7661_6c75_6573);
        let pool = (0..POOL + 4096)
            .map(|_| ALPHABET[(rng.next_u64() & 63) as usize])
            .collect();
        Values { seed, pool }
    }

    fn offset(&self, key: u32, version: u32) -> usize {
        (mix(self.seed ^ (u64::from(key) << 32) ^ u64::from(version)) as usize) % POOL
    }

    pub fn value_into(&self, key: u32, version: u32, len: u32, out: &mut Vec<u8>) {
        debug_assert!((MIN_VALUE..=4096 + 8).contains(&len));
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for shift in (0..8).rev() {
            out.push(HEX[((version >> (shift * 4)) & 15) as usize]);
        }
        let off = self.offset(key, version);
        out.extend_from_slice(&self.pool[off..off + len as usize - 8]);
    }

    /// Checks that `value` is exactly the value of `key` at the version
    /// it names; returns that version.
    pub fn verify(&self, key: u32, value: &[u8]) -> Option<u32> {
        if value.len() < MIN_VALUE as usize || value.len() > 4096 + 8 {
            return None;
        }
        let mut version = 0u32;
        for &h in &value[..8] {
            let nib = match h {
                b'0'..=b'9' => h - b'0',
                b'a'..=b'f' => h - b'a' + 10,
                _ => return None,
            };
            version = (version << 4) | u32::from(nib);
        }
        let off = self.offset(key, version);
        (value[8..] == self.pool[off..off + value.len() - 8]).then_some(version)
    }
}

/// A workload's generated inputs.
pub struct Stream {
    pub reqs: Vec<Req>,
    /// Highest version any request writes, per key: a verified GET may
    /// return no later version.
    pub max_version: Vec<u32>,
    /// Keys written before measurement starts, with their value length
    /// (version 0).
    pub preload: Vec<(u32, u32)>,
}

impl Stream {
    /// The stream's canonical bytes (preload, then requests).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(13 * (self.reqs.len() + self.preload.len()));
        for &(key, len) in &self.preload {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        for r in &self.reqs {
            r.encode_into(&mut out);
        }
        out
    }
}

fn with_versions(keys: u32, mut reqs: Vec<Req>, preload: Vec<(u32, u32)>) -> Stream {
    let mut max_version = vec![0u32; keys as usize];
    for r in &mut reqs {
        if r.op == Op::Set {
            let v = &mut max_version[r.key as usize];
            *v += 1;
            r.version = *v;
        }
    }
    Stream {
        reqs,
        max_version,
        preload,
    }
}

/// `net-read`: 95 % GET / 5 % SET, Zipf(0.99) over a preloaded
/// keyspace, 32-byte values.
pub fn net_read(seed: u64, keys: u32, len: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(keys, 0.99);
    let reqs = (0..len)
        .map(|_| {
            let op = if rng.below(100) < 95 {
                Op::Get
            } else {
                Op::Set
            };
            Req {
                op,
                key: zipf.sample(&mut rng),
                version: 0,
                len: 32,
            }
        })
        .collect();
    with_versions(keys, reqs, (0..keys).map(|k| (k, 32)).collect())
}

/// Log-uniform value length in `[16, 4096]`.
fn log_uniform_len(rng: &mut Rng) -> u32 {
    let ln = (16f64).ln() + rng.next_f64() * ((4096f64).ln() - (16f64).ln());
    (ln.exp() as u32).clamp(MIN_VALUE, 4096)
}

/// `embed-mix`: ~50 % GET, 35 % SET, 10 % DEL, 5 % EXPIRE over a
/// window of `window` keys that slides across `keys` as the stream
/// advances (and wraps), log-uniform 16 B – 4 KiB values.
pub fn embed_mix(seed: u64, keys: u32, window: u32, len: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let step = (len as u64 / u64::from(keys)).max(1);
    let reqs = (0..len as u64)
        .map(|i| {
            let base = (i / step) as u32;
            let key = (base + rng.below(u64::from(window)) as u32) % keys;
            let roll = rng.below(100);
            let (op, len) = match roll {
                0..=49 => (Op::Get, 0),
                50..=84 => (Op::Set, log_uniform_len(&mut rng)),
                85..=94 => (Op::Del, 0),
                _ => (Op::Expire, 1 + rng.below(50) as u32),
            };
            Req {
                op,
                key,
                version: 0,
                len,
            }
        })
        .collect();
    let mut prng = Rng::new(seed ^ 0x7072_656c);
    let preload = (0..window)
        .map(|k| (k, log_uniform_len(&mut prng)))
        .collect();
    with_versions(keys, reqs, preload)
}

/// `squeeze`: cache-aside Zipf(0.99) GETs over `keys`; every miss is
/// refilled with the key's version-0 value of `value_len` bytes (the
/// refill SET is issued by the client, not carried in the stream).
pub fn squeeze(seed: u64, keys: u32, hot: u32, value_len: u32, len: usize) -> Stream {
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(keys, 0.99);
    let reqs = (0..len)
        .map(|_| Req {
            op: Op::Get,
            key: zipf.sample(&mut rng),
            version: 0,
            len: value_len,
        })
        .collect();
    // Preload the hottest keys (the Zipf map of ranks 0..hot).
    let mut seen = vec![false; keys as usize];
    let mut preload = Vec::with_capacity(hot as usize);
    let mut prng = Rng::new(seed ^ 0x0068_6f74);
    while preload.len() < hot as usize {
        let k = zipf.sample(&mut prng);
        if !std::mem::replace(&mut seen[k as usize], true) {
            preload.push((k, value_len));
        }
    }
    with_versions(keys, reqs, preload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_tampering() {
        let v = Values::new(7);
        let mut buf = Vec::new();
        v.value_into(12, 3, 40, &mut buf);
        assert_eq!(buf.len(), 40);
        assert_eq!(v.verify(12, &buf), Some(3));
        assert_eq!(v.verify(13, &buf), None);
        buf[20] ^= 1;
        assert_eq!(v.verify(12, &buf), None);
    }

    #[test]
    fn keys_round_trip() {
        for k in [0, 7, 123_456_789] {
            assert_eq!(parse_key(&key_bytes(k)), Some(k));
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(2);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 5_000, "hottest key drew {max}");
    }
}
