//! CRC-32 (IEEE 802.3 polynomial) for log-record integrity.
//!
//! The log must detect torn writes: a record whose force did not complete
//! before a crash may be partially present on disk. Every record carries a
//! CRC over its header and payload; recovery treats a CRC mismatch as
//! end-of-log (§5.1.2).
//!
//! Two kernels compute the one function. Slice-by-16 — sixteen 256-entry
//! tables, generated at compile time, folding sixteen input bytes into the
//! state per step — runs everywhere. On x86-64 with `pclmulqdq` and
//! `sse4.1` (detected at run time) inputs of 64 bytes and up go through a
//! carry-less-multiply kernel (`clmul`) that folds 64 bytes a step and
//! leaves the tail to the tables. Both compute the same function as the
//! one-table bytewise loop (kept below as the test reference), so every
//! record, status block and `.sums` catalog on disk is unchanged.

const POLY: u32 = 0xEDB8_8320;

/// Bytes folded into the state per step of the table kernel.
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
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    // Under one 64-byte block (the 32-byte header CRC) the tables win.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= 64
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: the CPU features `fold` is compiled for were detected
        // just above. (It loads whole 16-byte lanes cut from the slice,
        // unaligned; fewer than four lanes would go to the tables.)
        return unsafe { clmul::fold(state, data) };
    }
    table_update(state, data)
}

/// The slice-by-16 kernel.
fn table_update(mut state: u32, data: &[u8]) -> u32 {
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

/// The carry-less-multiply kernel (Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009,
/// bit-reflected form). A 128-bit accumulator standing `d` bits ahead of
/// the next block is congruent, mod P, to its two halves times
/// `x^(d+32)` and `x^(d−32) mod P`: a pair of 64×64 carry-less multiplies
/// *folds* it onto that block without reducing it.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^n mod P`, reflected and shifted up one, for the fold distances
    /// 512 (four lanes abreast: `K1`, `K2`) and 128 (`K3`, `K4`) and for
    /// 96 bits to 64 (`K5`); P itself with its `x^32` term; and Barrett's
    /// `floor(x^64 / P)`. A test recomputes each from `POLY`.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    pub(super) const K5: i64 = 0x1_63cd_6124;
    pub(super) const P_X: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// Streams `data` into `state`: whole 16-byte lanes by folding, the
    /// rest (and anything under four lanes) through the tables.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) unsafe fn fold(state: u32, data: &[u8]) -> u32 {
        let (lanes, tail) = data.as_chunks::<16>();
        let Some(([l1, l2, l3, l4], mut rest)) = lanes.split_first_chunk::<4>() else {
            return super::table_update(state, data);
        };
        // SAFETY: `lane` is a `&[u8; 16]`, so sixteen bytes are readable,
        // and `_mm_loadu_si128` has no alignment requirement.
        let load = |lane: &[u8; 16]| unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) };
        let fold_onto = |acc: __m128i, k: __m128i, next: __m128i| {
            let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
            let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        };
        let (mut x1, mut x2, mut x3, mut x4) = (load(l1), load(l2), load(l3), load(l4));
        x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(state as i32));
        // Four lanes abreast, 64 bytes a step.
        let k1k2 = _mm_set_epi64x(K2, K1);
        while let Some(([l1, l2, l3, l4], after)) = rest.split_first_chunk::<4>() {
            x1 = fold_onto(x1, k1k2, load(l1));
            x2 = fold_onto(x2, k1k2, load(l2));
            x3 = fold_onto(x3, k1k2, load(l3));
            x4 = fold_onto(x4, k1k2, load(l4));
            rest = after;
        }
        // Four lanes into one, then over what is left, a lane at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        x1 = fold_onto(x1, k3k4, x2);
        x1 = fold_onto(x1, k3k4, x3);
        x1 = fold_onto(x1, k3k4, x4);
        for lane in rest {
            x1 = fold_onto(x1, k3k4, load(lane));
        }
        // 128 bits to 96, then to 64.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let x2 = _mm_clmulepi64_si128::<0x10>(x1, k3k4);
        x1 = _mm_xor_si128(_mm_srli_si128::<8>(x1), x2);
        let x2 = _mm_srli_si128::<4>(x1);
        x1 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x1, low32), _mm_set_epi64x(0, K5));
        x1 = _mm_xor_si128(x1, x2);
        // Barrett: 64 bits to the 32-bit remainder.
        let p_mu = _mm_set_epi64x(MU, P_X);
        let x2 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x1, low32), p_mu);
        let x2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x2, low32), p_mu);
        let folded = _mm_extract_epi32::<1>(_mm_xor_si128(x1, x2)) as u32;
        super::table_update(folded, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reference: the definition of the checksum, sharing
    /// nothing with the kernels but the polynomial.
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

    /// Seeded noise in a 16-byte-aligned backing store, so an offset into
    /// it is a slice's true start alignment.
    #[repr(align(16))]
    struct Aligned([u8; 4400]);

    fn noise() -> Box<Aligned> {
        let mut backing = Box::new(Aligned([0; 4400]));
        let mut x = 0x9E37_79B9u32;
        for byte in backing.0.iter_mut() {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            *byte = (x >> 24) as u8;
        }
        backing
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

    /// The check value through each kernel by name. Nine bytes are under
    /// the folding kernel's minimum, so it gets them after a prefix whose
    /// CRC state the tables supply: the state streams, so the kernels
    /// must agree on the whole.
    #[test]
    fn check_value_through_both_kernels_by_name() {
        let check = 0xCBF4_3926 ^ 0xFFFF_FFFF;
        assert_eq!(table_update(0xFFFF_FFFF, b"123456789"), check);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // 64 bytes whose last nine are the vector; the 55 before them
            // are undone by starting from the state that, after 55 zero
            // bytes, reads 0xFFFF_FFFF — found by running the register
            // backwards.
            let mut block = [0u8; 64];
            block[55..].copy_from_slice(b"123456789");
            let mut start = 0xFFFF_FFFFu32;
            for _ in 0..55 * 8 {
                start = if start & 0x8000_0000 != 0 {
                    ((start ^ POLY) << 1) | 1
                } else {
                    start << 1
                };
            }
            assert_eq!(table_update(start, &block[..55]), 0xFFFF_FFFF);
            // SAFETY: features detected above; 64 bytes, four lanes.
            assert_eq!(unsafe { clmul::fold(start, &block) }, check);
        }
    }

    /// The folding constants, recomputed from `POLY`.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn folding_constants_are_what_the_polynomial_gives() {
        // `x^n mod P` as the reflected multiply wants it: bit-reflected
        // (bit 31 is x^0, multiplying by x shifts right) and shifted up
        // one — the reflection of a 64×64 product sits one bit low.
        fn x_pow_mod_p(n: u32) -> i64 {
            let mut r = 0x8000_0000u32;
            for _ in 0..n {
                r = if r & 1 != 0 { (r >> 1) ^ POLY } else { r >> 1 };
            }
            (r as i64) << 1
        }
        // A lane moves 512 bits in the main loop and 128 once the four
        // merge; its halves want `x^(d+32)` and `x^(d−32)` (32, not 64:
        // the state runs 32 bits ahead of the message).
        assert_eq!(clmul::K1, x_pow_mod_p(4 * 128 + 32));
        assert_eq!(clmul::K2, x_pow_mod_p(4 * 128 - 32));
        assert_eq!(clmul::K3, x_pow_mod_p(128 + 32));
        assert_eq!(clmul::K4, x_pow_mod_p(128 - 32));
        assert_eq!(clmul::K5, x_pow_mod_p(64));
        assert_eq!(clmul::P_X, ((POLY as i64) << 1) | 1);
        // floor(x^64 / P) by long division in the normal domain, where P
        // is x^32 and the reflection of POLY; then reflected, 33 bits.
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let (mut rem, mut quotient) = (1u128 << 64, 0u64);
        for bit in (0..33).rev() {
            if rem >> (bit + 32) & 1 != 0 {
                quotient |= 1 << bit;
                rem ^= p << bit;
            }
        }
        assert_eq!(clmul::MU, (quotient.reverse_bits() >> 31) as i64);
    }

    /// Dispatch == tables == definition at every length 0..=1100 (zero
    /// to seventeen 64-byte blocks, every count of trailing lanes, every
    /// remainder) × every start alignment × three starting states.
    #[test]
    fn kernel_matches_reference_at_every_length_and_alignment() {
        let backing = noise();
        for state in [0xFFFF_FFFFu32, 0, 0x1234_5678] {
            for align in 0..16 {
                for len in 0..=1100 {
                    let data = &backing.0[align..align + len];
                    let expect = reference_update(state, data);
                    assert_eq!(
                        crc32_update(state, data),
                        expect,
                        "state {state:#x} align {align} len {len}"
                    );
                    assert_eq!(
                        table_update(state, data),
                        expect,
                        "tables: state {state:#x} align {align} len {len}"
                    );
                }
            }
        }
    }

    /// Where the kernel starts, where it gains a second block, and a page.
    #[test]
    fn kernel_matches_reference_around_block_boundaries() {
        let backing = noise();
        for edge in [64usize, 128, 4096] {
            for len in edge - 17..=edge + 17 {
                for align in [0, 1, 7, 15] {
                    let data = &backing.0[align..align + len];
                    assert_eq!(
                        crc32_update(0xFFFF_FFFF, data),
                        reference_update(0xFFFF_FFFF, data),
                        "align {align} len {len}"
                    );
                }
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let backing = noise();
        let data = &backing.0[3..303];
        let whole = crc32(data);
        assert_eq!(whole, reference_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF);
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
