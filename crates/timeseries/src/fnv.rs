//! FNV-1a, 64-bit: the byte-serial checksum of version-1 `.ppmc` stores
//! and of the small self-contained records other crates keep on disk (the
//! sweep checkpoint's rows, the result cache's entries).
//!
//! It is not cryptographic; it catches truncation and bit rot.

/// Streaming FNV-1a, 64-bit.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a, 64-bit, over `bytes` in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors_and_streams() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"fo");
        h.update(b"obar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }
}
