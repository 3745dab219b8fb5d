//! The checksum byte comparisons use: differential checks, the gateway's
//! result checksums and the toolchain's disk-cache entries.

/// FNV-1a over a byte slice — stable, dependency-free, and good enough to
/// witness any byte-level divergence between two runs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
