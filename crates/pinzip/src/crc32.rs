//! CRC-32 (ISO-HDLC / zlib polynomial) integrity checksums.
//!
//! Pinball container frames carry a CRC over their compressed payload so a
//! flipped bit or a truncated tail is detected *per chunk*: the loader can
//! name the damaged chunk and still recover the intact prefix, instead of
//! losing the whole recording the way a single-blob format does.
//!
//! The hot-path [`crc32`] uses *slicing-by-8*: eight precomputed 256-entry
//! tables let the loop consume eight input bytes per iteration instead of
//! one, with table `k` absorbing the byte that sits `k` positions ahead of
//! the running remainder. [`crc32_bytewise`] keeps the classic single-table
//! formulation as the differential-testing reference; both compute the
//! identical function.

/// The reflected generator polynomial of CRC-32/ISO-HDLC (the zlib/PNG
/// variant).
const POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the remainder of byte
/// `b` followed by `k` zero bytes, so eight table lookups advance the CRC
/// over eight input bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Computes the CRC-32 of `data` (initial value and final xor `0xffffffff`,
/// matching zlib's `crc32()`), eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let (chunks, remainder) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in chunks {
        let lo = u32::from_le_bytes([b0, b1, b2, b3]) ^ crc;
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][b4 as usize]
            ^ TABLES[2][b5 as usize]
            ^ TABLES[1][b6 as usize]
            ^ TABLES[0][b7 as usize];
    }
    for &b in remainder {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc ^ u32::MAX
}

/// The classic byte-at-a-time CRC-32 — the reference implementation the
/// slicing-by-8 [`crc32`] is differentially tested against.
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc ^ u32::MAX
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xe8b7_be43);
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(crc32_bytewise(b"a"), 0xe8b7_be43);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length() {
        // Lengths straddling the 8-byte fast path, including every
        // remainder size.
        let data: Vec<u8> = (0..64u32)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "length {len}"
            );
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_random_inputs() {
        // A deterministic xorshift stream; checks long unaligned runs.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xff) as u8
            })
            .collect();
        for (start, len) in [(0, 10_000), (1, 9_993), (3, 4_097), (7, 11), (5, 0)] {
            let slice = &data[start..start + len];
            assert_eq!(
                crc32(slice),
                crc32_bytewise(slice),
                "start {start} len {len}"
            );
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0x5au8; 1024];
        let base = crc32(&data);
        for i in [0usize, 100, 1023] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn truncation_changes_crc() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let base = crc32(&data);
        assert_ne!(crc32(&data[..999]), base);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::{crc32, crc32_bytewise};

    proptest! {
        #[test]
        fn sliced_equals_bytewise(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            prop_assert_eq!(crc32(&data), crc32_bytewise(&data));
        }
    }
}
