//! FNV-1a — the one deterministic, dependency-free hash the whole
//! workspace shares.
//!
//! One implementation, used everywhere a stable checksum or index hash
//! is needed: prefetch-backend table indexing (`hds-backend`), the
//! serve-layer tenant key / shard placement / A/B arm draw, the
//! cluster's owner ring, the `HDSW` wire-frame checksum, and the
//! durable-store record CRC (`hds-store`). Consolidating the previously
//! copy-pasted constants here means a typo in one call site can no
//! longer silently fork the hash function (which would corrupt
//! placement or reject every frame), and the constants are pinned by
//! tests below.

/// FNV-1a offset basis (64-bit).
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;
/// FNV-1a offset basis (32-bit).
pub const FNV32_OFFSET: u32 = 0x811c_9dc5;
/// FNV-1a prime (32-bit).
pub const FNV32_PRIME: u32 = 0x0100_0193;

/// FNV-1a 64-bit hash over a byte slice.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// FNV-1a 32-bit hash over a byte slice — the `HDSW` wire checksum.
#[must_use]
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = Fnv1a32::new();
    h.write(bytes);
    h.finish()
}

/// Running FNV-1a 32-bit state, for a writer that checksums bytes in
/// the same pass that produces them: folding byte by byte, in any
/// split, ends at [`fnv1a32`] of the whole run.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a32(u32);

impl Default for Fnv1a32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a32 {
    /// Starts from the FNV-1a offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a32(FNV32_OFFSET)
    }

    /// Folds in one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.0 = (self.0 ^ u32::from(b)).wrapping_mul(FNV32_PRIME);
    }

    /// Folds in a byte run.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// The hash of everything folded in so far.
    #[must_use]
    pub const fn finish(self) -> u32 {
        self.0
    }
}

/// The splitmix64 finalizer: full avalanche over a 64-bit word.
///
/// FNV-1a's last byte gets only one multiply, so hashes of short
/// structured names ("tenant-007", "owner-3-vnode-12") differ mostly in
/// their low bits and cluster badly when used for placement. Placement
/// (serve's shard choice, the cluster's owner ring) therefore runs
/// every key through `mix` first.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Incremental FNV-1a 64-bit hasher, for call sites that hash
/// structured data (byte runs interleaved with word-sized separators)
/// without materialising a buffer.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Starts from the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64(FNV64_OFFSET)
    }

    /// Mixes one full 64-bit word (one absorb/multiply round). Feeding
    /// a value ≥ 256 is therefore distinct from any byte sequence,
    /// which is what makes word-sized separators unambiguous.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV64_PRIME);
    }

    /// Mixes a byte run, byte-wise — equivalent to [`fnv1a64`] when
    /// the hasher is fresh.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementations every pre-consolidation copy of
    /// the hash inlined, constants spelled out verbatim so a botched
    /// refactor of the shared module cannot hide.
    fn reference_fnv1a64(bytes: &[u8]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn reference_fnv1a32(bytes: &[u8]) -> u32 {
        let mut h: u32 = 0x811c_9dc5;
        for &b in bytes {
            h ^= u32::from(b);
            h = h.wrapping_mul(0x0100_0193);
        }
        h
    }

    fn samples() -> Vec<Vec<u8>> {
        let mut out = vec![
            Vec::new(),
            b"a".to_vec(),
            b"tenant-0".to_vec(),
            b"hds".to_vec(),
            (0u8..=255).collect(),
        ];
        // A few pseudo-random runs of varying length.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for len in [3usize, 17, 64, 257, 1024] {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                v.push((x >> 32) as u8);
            }
            out.push(v);
        }
        out
    }

    #[test]
    fn fnv1a64_matches_reference() {
        for s in samples() {
            assert_eq!(fnv1a64(&s), reference_fnv1a64(&s));
        }
    }

    #[test]
    fn fnv1a32_matches_reference() {
        for s in samples() {
            assert_eq!(fnv1a32(&s), reference_fnv1a32(&s));
        }
    }

    #[test]
    fn known_vectors_pin_the_constants() {
        // Published FNV-1a test vectors: a change to either constant
        // breaks these even if reference and impl drift together.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a32(b""), 0x811c_9dc5);
        assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn incremental_bytes_equal_one_shot() {
        for s in samples() {
            let mut h = Fnv64::new();
            h.write_bytes(&s);
            assert_eq!(h.finish(), fnv1a64(&s));
            // Split at every boundary: incremental hashing is
            // insensitive to chunking.
            if s.len() > 1 {
                let mid = s.len() / 2;
                let mut h2 = Fnv64::new();
                h2.write_bytes(&s[..mid]);
                h2.write_bytes(&s[mid..]);
                assert_eq!(h2.finish(), fnv1a64(&s));
            }
        }
    }

    #[test]
    fn streamed_fnv1a32_equals_one_shot() {
        for s in samples() {
            let mut bytewise = Fnv1a32::new();
            for &b in &s {
                bytewise.write_u8(b);
            }
            assert_eq!(bytewise.finish(), fnv1a32(&s));
            for cut in [0, s.len() / 3, s.len()] {
                let mut split = Fnv1a32::default();
                split.write(&s[..cut]);
                split.write(&s[cut..]);
                assert_eq!(split.finish(), reference_fnv1a32(&s));
            }
        }
    }

    #[test]
    fn mix_pins_the_splitmix_constants() {
        assert_eq!(mix(0), 0);
        assert_eq!(mix(1), 0x5692_161d_100b_05e5);
        // Keys one low bit apart land far apart.
        let a = mix(fnv1a64(b"tenant-000"));
        let b = mix(fnv1a64(b"tenant-001"));
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn word_separators_are_not_byte_sequences() {
        // A separator word cannot collide with any single byte, so
        // `"ab" | sep | "c"` hashes differently from `"abc"` under the
        // structured hasher.
        let mut with_sep = Fnv64::new();
        with_sep.write_bytes(b"ab");
        with_sep.write_u64(u64::MAX);
        with_sep.write_bytes(b"c");
        let mut plain = Fnv64::new();
        plain.write_bytes(b"abc");
        assert_ne!(with_sep.finish(), plain.finish());
    }
}
