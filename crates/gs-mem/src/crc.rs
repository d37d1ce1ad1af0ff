//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) for scene-image
//! integrity checking.
//!
//! The paged voxel store ships scenes as serialized images whose columns are
//! demand-read from a slow tier; PR 6 extends the image format with per-chunk
//! checksums over both column payloads plus one over the metadata prefix, all
//! computed with this module (no crates.io dependency — the lookup tables are
//! built by a `const fn` at compile time).
//!
//! [`Crc32::update`] folds eight bytes per step through eight 256-entry
//! tables (slice-by-8): table `k` advances a byte's contribution past `k`
//! further zero bytes, so one step XORs eight lookups instead of chaining
//! eight. The tail shorter than eight bytes runs through table 0, the
//! classic byte-at-a-time loop. The polynomial and every output are those
//! of the byte loop.
//!
//! Two entry points:
//!
//! * [`crc32`] — one-shot over a byte slice,
//! * [`Crc32`] — incremental (streaming) digest for writers that produce the
//!   payload in pieces; `Crc32::new().update(a).update(b).finish()` equals
//!   `crc32(a ++ b)`.

/// The reflected IEEE polynomial used by zlib, PNG, Ethernet.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `TABLES[0]` is the classic byte table, and
/// `TABLES[k][i]` is `TABLES[k - 1][i]` advanced over one more zero byte.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i: u32 = 0;
    while i < 256 {
        let mut c = i;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i as usize] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// One-shot CRC-32/IEEE of `bytes` (`crc32(b"") == 0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Incremental CRC-32/IEEE digest.
///
/// ```
/// use gs_mem::crc::{crc32, Crc32};
/// let whole = crc32(b"streaming gaussians");
/// let split = Crc32::new()
///     .update(b"streaming ")
///     .update(b"gaussians")
///     .finish();
/// assert_eq!(whole, split);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh digest (initial state `0xFFFF_FFFF`, final xor `0xFFFF_FFFF`).
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the digest; returns `self` for chaining.
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Crc32 {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
            crc = t[7][usize::from(a)]
                ^ t[6][usize::from(b)]
                ^ t[5][usize::from(c)]
                ^ t[4][usize::from(d)]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &b in words.remainder() {
            let [low, ..] = crc.to_le_bytes();
            crc = t[0][usize::from(low ^ b)] ^ (crc >> 8);
        }
        self.state = crc;
        self
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time CRC-32/IEEE with no table: the definition the
    /// slice-by-8 tables must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    POLY ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// `len` pseudo-random bytes from `seed` (splitmix64).
    fn bytes_from(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)).to_le_bytes()[0]
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn slice_by_8_matches_bitwise_definition(
            seed in 0u64..u64::MAX,
            len in 0usize..9001,
            offset in 0usize..8,
            cut_a in 0usize..9001,
            cut_b in 0usize..9001,
        ) {
            // An unaligned sub-slice of `len` bytes, folded whole and in
            // three pieces split at arbitrary points.
            let buf = bytes_from(seed, offset + len);
            let data = &buf[offset..];
            let expect = crc32_bitwise(data);
            prop_assert_eq!(crc32(data), expect);
            let (lo, hi) = (cut_a.min(cut_b).min(len), cut_a.max(cut_b).min(len));
            let split = Crc32::new()
                .update(&data[..lo])
                .update(&data[lo..hi])
                .update(&data[hi..])
                .finish();
            prop_assert_eq!(split, expect, "split at {} and {}", lo, hi);
        }
    }

    #[test]
    fn known_answer_vectors() {
        // The standard CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1031).collect();
        for split in [0usize, 1, 7, 515, 1030, 1031] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                Crc32::new().update(a).update(b).finish(),
                crc32(&data),
                "split at {split}"
            );
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data: Vec<u8> = (0..64u8).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
