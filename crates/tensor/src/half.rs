//! IEEE-754 binary16 ("f16") codec: scalar conversions and their slice
//! forms.
//!
//! SYMI's wire protocol ships expert weights as fp16 (2 B/param), and the
//! Adam optimizer publishes parameters *on the fp16 grid* (each published
//! value round-trips f32→f16→f32 losslessly).
//!
//! The scalar conversions here are the canonical ones for the whole
//! workspace (the wire codec and baselines re-use them through the `adam`
//! re-exports): round-to-nearest-even on encode, exact on decode. The slice
//! forms [`encode`]/[`decode`] run them through `VCVTPS2PH`/`VCVTPH2PS`
//! where the CPU has F16C; scalar and hardware agree on every input.

#[cfg(target_arch = "x86_64")]
use crate::kernels::f16_fast_path;

/// Rounds an `f32` through IEEE-754 binary16 and back — the model weights in
/// SYMI live in fp16 on the accelerator while the optimizer keeps fp32
/// masters, and this models that quantization loss.
pub fn quantize_f16(x: f32) -> f32 {
    f16_to_f32(f32_to_f16(x))
}

/// `f32` → IEEE-754 binary16 bits, round-to-nearest-even — on every input
/// the bits `VCVTPS2PH` produces (NaNs quieted, sign and top payload bits
/// kept).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        if mant == 0 {
            return sign | 0x7c00; // inf
        }
        // NaN: quieted, the payload's top ten bits kept (as `VCVTPS2PH`).
        return sign | 0x7e00 | (mant >> 13) as u16;
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal half.
        let half_exp = ((unbiased + 15) as u16) << 10;
        let half_mant = (mant >> 13) as u16;
        let round_bit = (mant >> 12) & 1;
        let sticky = mant & 0x0fff;
        let mut h = sign | half_exp | half_mant;
        if round_bit == 1 && (sticky != 0 || (half_mant & 1) == 1) {
            h += 1; // may carry into the exponent, which is correct behaviour
        }
        return h;
    }
    if unbiased >= -25 {
        // Subnormal half. The lowest binade, [2^-25, 2^-24), has no half
        // mantissa bit of its own and is decided by rounding alone: above
        // 2^-25 it rounds up to the smallest subnormal, exactly 2^-25 ties
        // to even (zero).
        let full_mant = mant | 0x0080_0000;
        let shift = (-unbiased - 14 + 13) as u32;
        let half_mant = (full_mant >> shift) as u16;
        let round = (full_mant >> (shift - 1)) & 1;
        let sticky = full_mant & ((1u32 << (shift - 1)) - 1);
        let mut h = sign | half_mant;
        if round == 1 && (sticky != 0 || (half_mant & 1) == 1) {
            h += 1;
        }
        return h;
    }
    sign // underflow → signed zero
}

/// IEEE-754 binary16 bits → `f32` (exact; a signalling NaN comes out quiet,
/// as from `VCVTPH2PS`).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    let bits = if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal: renormalize. After s left-shifts the value is
            // 1.f x 2^(-14 - s), i.e. e = -s below the minimum normal.
            let mut e = 0i32;
            let mut m = mant;
            while m & 0x0400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x03ff;
            sign | (((127 - 15 + e + 1) as u32) << 23) | (m << 13)
        }
    } else if exp == 0x1f {
        // Inf, or NaN quieted as `VCVTPH2PS` quiets a signalling half.
        let quiet = if mant != 0 { 0x0040_0000 } else { 0 };
        sign | 0x7f80_0000 | quiet | (mant << 13)
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// `dst[i] = f32_to_f16(src[i])`: `VCVTPS2PH` eight at a time where the CPU
/// has AVX2+F16C ([`crate::kernels::f16_fast_path`]), the scalar conversion otherwise — the
/// same bits either way.
///
/// # Panics
/// Panics if the lengths differ.
pub fn encode(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "f16 encode length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16_fast_path() {
        return crate::simd::encode_f16(src, dst);
    }
    for (h, &w) in dst.iter_mut().zip(src) {
        *h = f32_to_f16(w);
    }
}

/// `dst[i] = f16_to_f32(src[i])`, on the same dispatch as [`encode`].
///
/// # Panics
/// Panics if the lengths differ.
pub fn decode(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "f16 decode length mismatch");
    #[cfg(target_arch = "x86_64")]
    if f16_fast_path() {
        return crate::simd::decode_f16(src, dst);
    }
    for (w, &h) in dst.iter_mut().zip(src) {
        *w = f16_to_f32(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &[f32]) -> Vec<f32> {
        let mut bits = vec![0u16; src.len()];
        encode(src, &mut bits);
        let mut back = vec![0.0f32; src.len()];
        decode(&bits, &mut back);
        back
    }

    #[test]
    fn encode_decode_round_trip_is_quantize() {
        let m: Vec<f32> = (0..35).map(|i| (i as f32 * 0.137).sin() * 3.0).collect();
        for (a, b) in m.iter().zip(round_trip(&m)) {
            assert_eq!(b, quantize_f16(*a));
        }
    }

    #[test]
    fn grid_values_round_trip_exactly() {
        // Values already on the fp16 grid (what the optimizer publishes)
        // must survive the wire bit-for-bit.
        let m: Vec<f32> =
            (0..16).map(|i| quantize_f16(((i / 4) as f32 - 1.5) * 0.31 + (i % 4) as f32)).collect();
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn lowest_subnormal_binade_rounds_to_nearest_even() {
        let tie = f32::from_bits(0x3300_0000); // 2^-25: halfway to the smallest subnormal
        assert_eq!(f32_to_f16(tie), 0x0000, "the tie goes to even (zero)");
        assert_eq!(f32_to_f16(-tie), 0x8000);
        for bits in [0x3300_0001u32, 0x3340_0000, 0x337f_ffff] {
            let x = f32::from_bits(bits); // inside (2^-25, 2^-24)
            assert_eq!(f32_to_f16(x), 0x0001, "{x:e} is nearer 2^-24 than 0");
            assert_eq!(f32_to_f16(-x), 0x8001);
        }
        assert_eq!(f32_to_f16(f32::from_bits(0x32ff_ffff)), 0x0000, "below the tie");
        assert_eq!(f32_to_f16(f32::from_bits(0x3380_0000)), 0x0001, "2^-24 itself");
    }

    #[test]
    fn nan_keeps_its_sign_and_top_payload_bits_and_is_quiet() {
        assert_eq!(f32_to_f16(f32::from_bits(0x7fc0_0000)), 0x7e00);
        assert_eq!(f32_to_f16(f32::from_bits(0xffc0_0000)), 0xfe00);
        assert_eq!(f32_to_f16(f32::from_bits(0x7f80_2000)), 0x7e01, "signalling in, quiet out");
        assert_eq!(f32_to_f16(f32::from_bits(0x7fff_ffff)), 0x7fff);
        assert_eq!(f32_to_f16(f32::from_bits(0x7f80_0001)), 0x7e00, "low payload bits drop");
        assert_eq!(f16_to_f32(0x7c01).to_bits(), 0x7fc0_2000, "decode quiets too");
        assert_eq!(f16_to_f32(0xfe00).to_bits(), 0xffc0_0000);
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
    }
}
