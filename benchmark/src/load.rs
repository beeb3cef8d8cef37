//! Pieces shared by the open-loop generators: the seeded random source
//! and the payload layout that carries each message's due time.

use bytes::Bytes;

/// SplitMix64: a small, seedable, well-mixed generator. The same seed
/// gives the same workload on every machine.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A `bytes`-long payload whose first eight bytes hold the time the
/// message was due to be sent (ns, little endian), so a delivery can be
/// timed without the generator keeping a table of sends.
pub fn payload(due_ns: u64, bytes: usize) -> Bytes {
    assert!(bytes >= 8, "payload too small to carry its due time");
    let mut v = vec![0u8; bytes];
    v[..8].copy_from_slice(&due_ns.to_le_bytes());
    Bytes::from(v)
}

/// The due time carried by a payload built with [`payload`].
pub fn due_of(payload: &[u8]) -> u64 {
    let head: [u8; 8] = payload[..8].try_into().expect("payload carries its due time");
    u64::from_le_bytes(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn due_time_round_trips() {
        let p = payload(123_456_789, 64);
        assert_eq!(p.len(), 64);
        assert_eq!(due_of(&p), 123_456_789);
    }
}
