//! CRC-32 (IEEE 802.3 polynomial) for log-record integrity.
//!
//! The log must detect torn writes: a record whose force did not complete
//! before a crash may be partially present on disk. Every record carries a
//! CRC over its header and payload; recovery treats a CRC mismatch as
//! end-of-log (§5.1.2).
//!
//! The kernel is slice-by-16: sixteen 256-entry tables, generated at
//! compile time, fold sixteen input bytes into the state per step with no
//! dependency between the sixteen lookups. It computes the same function
//! as the one-table bytewise loop (kept below as the test reference), so
//! every record, status block and `.sums` catalog on disk is unchanged.

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded into the state per step of the kernel.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
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
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = make_tables();

/// Computes the CRC-32 of `data`.
///
/// # Examples
///
/// ```
/// // The well-known check value for "123456789".
/// assert_eq!(rvm::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streams more data into a raw (not yet finalized) CRC state.
///
/// Start from `0xFFFF_FFFF`, feed chunks, and XOR with `0xFFFF_FFFF` to
/// finalize; [`crc32`] does all three for a single slice.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let (blocks, rest) = data.as_chunks::<SLICES>();
    for b in blocks {
        let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ state;
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        state = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &byte in rest {
        state = (state >> 8) ^ t[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: the definition of the checksum, sharing
    /// nothing with the kernel but the polynomial.
    fn reference_update(mut state: u32, data: &[u8]) -> u32 {
        for &byte in data {
            state ^= byte as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ POLY
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn kernel_matches_reference_at_every_length_and_alignment() {
        // 16-byte-aligned backing store, so `align` is the slice's true
        // start alignment; every length crosses zero to eighteen whole
        // kernel steps plus every possible remainder.
        #[repr(align(16))]
        struct Aligned([u8; 320]);
        let mut backing = Aligned([0; 320]);
        let mut x = 0x9E37_79B9u32;
        for byte in backing.0.iter_mut() {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *byte = (x >> 24) as u8;
        }
        for align in 0..16 {
            for len in 0..=300 {
                let data = &backing.0[align..align + len];
                assert_eq!(
                    crc32_update(0xFFFF_FFFF, data),
                    reference_update(0xFFFF_FFFF, data),
                    "align {align} len {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = crc32(&data);
        assert_eq!(whole, reference_update(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            let state = crc32_update(crc32_update(0xFFFF_FFFF, a), b);
            assert_eq!(state ^ 0xFFFF_FFFF, whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0u8; 512];
        let base = crc32(&data);
        for i in [0usize, 100, 511] {
            data[i] ^= 1;
            assert_ne!(crc32(&data), base, "flip at byte {i} must change CRC");
            data[i] ^= 1;
        }
    }
}
