//! Message payloads carried between ranks.

use std::ops::{Deref, Range};
use std::sync::Arc;
use symi_tensor::{HalfTerm, ScaledHalf};

/// Cheaply-cloneable immutable byte buffer (internal stand-in for the
/// `bytes` crate: the collectives only need shared ownership + length).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    #[cfg(test)]
    pub(crate) fn from_static(data: &'static [u8]) -> Self {
        Bytes(Arc::from(data))
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes(Arc::from(data))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes(Arc::from(v))
    }
}

/// A read-only window onto a binary16 gradient the sender shares
/// ([`ScaledHalf`]): what a NIC reads where the data lies, instead of a
/// copy packed for the wire. The buffer's exponent rides beside the bits
/// (a message header's worth, not counted as payload); the buffer stays
/// alive, and immutable, for as long as any view of it does.
#[derive(Clone, Debug)]
pub struct F16View {
    buf: Arc<ScaledHalf>,
    range: Range<usize>,
}

impl F16View {
    /// Elements `range` of `buf`.
    ///
    /// # Panics
    /// Panics if `range` runs past the buffer.
    pub fn new(buf: Arc<ScaledHalf>, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= buf.len(), "view past its buffer");
        Self { buf, range }
    }

    /// The window's elements and their exponent.
    pub fn term(&self) -> HalfTerm<'_> {
        self.buf.term(self.range.clone())
    }

    pub fn len(&self) -> usize {
        self.range.len()
    }

    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// A typed payload. Collectives carrying tensor data use [`Payload::F32`];
/// gradients travel at 2 B/element as binary16 under a power-of-two
/// exponent — [`Payload::F16View`] for a range of a shared gradient sent
/// without a copy (read where the backward wrote it), [`Payload::ScaledF16`]
/// for one packed or summed into a wire buffer; fp16-quantized weight
/// shards travel as [`Payload::F16`] (raw half bits, 2 B/element on the
/// wire — the width `adam.rs` documents for working weights); routing
/// metadata (token→expert assignments, popularity counts) as
/// [`Payload::U64`]; opaque blobs as [`Payload::Raw`].
#[derive(Debug, Clone)]
pub enum Payload {
    F32(Vec<f32>),
    F16(Vec<u16>),
    /// Binary16 bits and the exponent they are scaled by: element `i` is
    /// `f16_to_f32(bits[i]) · 2^-exp`.
    ScaledF16(Vec<u16>, i32),
    F16View(F16View),
    U64(Vec<u64>),
    Raw(Bytes),
}

impl Payload {
    /// Wire size in bytes, used for traffic accounting. A view counts its
    /// range only.
    pub fn byte_len(&self) -> u64 {
        match self {
            Payload::F32(v) => (v.len() * 4) as u64,
            Payload::F16(v) | Payload::ScaledF16(v, _) => (v.len() * 2) as u64,
            Payload::F16View(v) => (v.len() * 2) as u64,
            Payload::U64(v) => (v.len() * 8) as u64,
            Payload::Raw(b) => b.len() as u64,
        }
    }

    /// Element count regardless of width — what wire-level length
    /// validation compares against a receive's expected count.
    pub fn elements(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::F16(v) | Payload::ScaledF16(v, _) => v.len(),
            Payload::F16View(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::Raw(b) => b.len(),
        }
    }

    pub(crate) fn variant_name(&self) -> &'static str {
        match self {
            Payload::F32(_) => "F32",
            Payload::F16(_) => "F16",
            Payload::ScaledF16(..) => "ScaledF16",
            Payload::F16View(_) => "F16View",
            Payload::U64(_) => "U64",
            Payload::Raw(_) => "Raw",
        }
    }

    /// Extracts the `F32` payload. A view is an error, not a silent copy.
    pub fn into_f32(self) -> Result<Vec<f32>, crate::CommError> {
        match self {
            Payload::F32(v) => Ok(v),
            other => Err(crate::CommError::PayloadMismatch {
                expected: "F32",
                got: other.variant_name(),
            }),
        }
    }

    /// The f32 elements of an `F32` payload, borrowed.
    pub fn as_f32(&self) -> Result<&[f32], crate::CommError> {
        match self {
            Payload::F32(v) => Ok(v),
            other => Err(crate::CommError::PayloadMismatch {
                expected: "F32",
                got: other.variant_name(),
            }),
        }
    }

    /// The binary16 elements and exponent of a `ScaledF16` payload or an
    /// `F16View`, borrowed.
    pub fn as_half_term(&self) -> Result<HalfTerm<'_>, crate::CommError> {
        match self {
            Payload::ScaledF16(bits, exp) => Ok(HalfTerm { bits, exp: *exp }),
            Payload::F16View(v) => Ok(v.term()),
            other => Err(crate::CommError::PayloadMismatch {
                expected: "ScaledF16 or F16View",
                got: other.variant_name(),
            }),
        }
    }

    /// Extracts the `F16` payload (raw half-precision bit patterns).
    pub fn into_f16(self) -> Result<Vec<u16>, crate::CommError> {
        match self {
            Payload::F16(v) => Ok(v),
            other => Err(crate::CommError::PayloadMismatch {
                expected: "F16",
                got: other.variant_name(),
            }),
        }
    }

    /// Extracts the `U64` payload.
    pub(crate) fn into_u64(self) -> Result<Vec<u64>, crate::CommError> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(crate::CommError::PayloadMismatch {
                expected: "U64",
                got: other.variant_name(),
            }),
        }
    }
}

/// Elements per worker share below which fp16 conversion stays sequential.
/// The hardware codec streams ≈0.2 ns per element out of cache
/// (`BENCH_kernels.json`, `f16_codec` rows), so a share is ≳50 µs of work;
/// smaller chunks don't amortize a pool wake-up.
const MIN_F16_ELEMS_PER_SHARE: usize = 256 * 1024;

/// Narrows an fp32 buffer to IEEE binary16 wire format (round-to-nearest-
/// even), converting disjoint chunks in parallel on the shared worker pool.
/// Chunking is element-wise, so the result is identical for any worker
/// count.
pub fn encode_f16(src: &[f32]) -> Vec<u16> {
    let mut dst = vec![0u16; src.len()];
    symi_tensor::pool::par_convert(
        src,
        &mut dst,
        MIN_F16_ELEMS_PER_SHARE,
        symi_tensor::half::encode,
    );
    dst
}

/// Widens fp16 wire data back to fp32 into `dst` (exact — every binary16
/// value is representable in f32), in parallel chunks on the shared pool.
///
/// # Panics
/// Panics if `src` and `dst` lengths differ.
pub fn decode_f16_into(src: &[u16], dst: &mut [f32]) {
    symi_tensor::pool::par_convert(src, dst, MIN_F16_ELEMS_PER_SHARE, symi_tensor::half::decode);
}

impl From<Vec<f32>> for Payload {
    fn from(v: Vec<f32>) -> Self {
        Payload::F32(v)
    }
}

impl From<F16View> for Payload {
    fn from(v: F16View) -> Self {
        Payload::F16View(v)
    }
}

impl From<Vec<u16>> for Payload {
    fn from(v: Vec<u16>) -> Self {
        Payload::F16(v)
    }
}

impl From<Vec<u64>> for Payload {
    fn from(v: Vec<u64>) -> Self {
        Payload::U64(v)
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload::Raw(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_len_accounts_element_width() {
        assert_eq!(Payload::F32(vec![0.0; 10]).byte_len(), 40);
        assert_eq!(Payload::F16(vec![0; 10]).byte_len(), 20, "fp16 is 2 B/param on the wire");
        assert_eq!(Payload::U64(vec![0; 10]).byte_len(), 80);
        assert_eq!(Payload::Raw(Bytes::from_static(b"abc")).byte_len(), 3);
    }

    #[test]
    fn elements_ignore_width() {
        assert_eq!(Payload::F32(vec![0.0; 7]).elements(), 7);
        assert_eq!(Payload::F16(vec![0; 7]).elements(), 7);
        assert_eq!(Payload::U64(vec![0; 7]).elements(), 7);
    }

    /// A gradient of `n` elements `0, 1, 2, …`, narrowed under the exponent
    /// its largest element picks.
    fn ramp(n: usize) -> Arc<ScaledHalf> {
        Arc::new(ScaledHalf::from_f32(&(0..n).map(|i| i as f32).collect::<Vec<f32>>()))
    }

    #[test]
    fn a_view_counts_its_range_only() {
        let buf = ramp(100);
        assert_eq!(buf.exp(), 8, "99 · 2^8 ≤ 2^15 < 99 · 2^9");
        let view = Payload::from(F16View::new(buf.clone(), 10..35));
        assert_eq!((view.byte_len(), view.elements()), (50, 25), "2 B/element, no exponent");
        let term = view.as_half_term().unwrap();
        assert_eq!((term.bits, term.exp), (&buf.bits()[10..35], 8));
        assert_eq!(term.to_f32(), (10..35).map(|i| i as f32).collect::<Vec<f32>>());
        assert_eq!(Arc::strong_count(&buf), 2, "the view shares the buffer");
        drop(view);
        assert_eq!(Arc::strong_count(&buf), 1);
        let packed = Payload::ScaledF16(vec![0x3c00; 3], 2);
        assert_eq!(
            (packed.byte_len(), packed.as_half_term().unwrap().to_f32()),
            (6, vec![0.25; 3])
        );
    }

    #[test]
    fn a_view_never_turns_into_an_owned_vec() {
        let view = Payload::from(F16View::new(ramp(4), 0..4));
        match view.into_f16() {
            Err(crate::CommError::PayloadMismatch { expected: "F16", got: "F16View" }) => {}
            other => panic!("expected a PayloadMismatch, got {other:?}"),
        }
        assert!(Payload::U64(vec![1]).as_half_term().is_err());
        assert!(Payload::F16(vec![1]).as_half_term().is_err(), "weights carry no exponent");
    }

    #[test]
    #[should_panic(expected = "view past its buffer")]
    fn a_view_past_its_buffer_panics() {
        F16View::new(ramp(4), 2..5);
    }

    #[test]
    fn wrong_variant_is_an_error() {
        let p = Payload::U64(vec![1, 2]);
        assert!(p.into_f32().is_err());
    }

    #[test]
    fn round_trip_preserves_data() {
        let v = vec![1.5f32, -2.5];
        assert_eq!(Payload::from(v.clone()).into_f32().unwrap(), v);
    }

    #[test]
    fn f16_helpers_match_scalar_conversion() {
        // Large enough to split across pool shares.
        let src: Vec<f32> = (0..600_000).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let enc = encode_f16(&src);
        let expect: Vec<u16> = src.iter().map(|&w| symi_tensor::adam::f32_to_f16(w)).collect();
        assert_eq!(enc, expect);

        let mut dec = vec![0.0f32; enc.len()];
        decode_f16_into(&enc, &mut dec);
        let expect: Vec<f32> = enc.iter().map(|&h| symi_tensor::adam::f16_to_f32(h)).collect();
        assert_eq!(dec, expect);
    }

    #[test]
    fn f16_encode_is_worker_count_invariant() {
        let src: Vec<f32> = (0..700_000).map(|i| ((i * 7) as f32 * 0.013).cos()).collect();
        let before = symi_tensor::pool::current_threads();
        symi_tensor::pool::set_threads(1);
        let one = encode_f16(&src);
        symi_tensor::pool::set_threads(4);
        let four = encode_f16(&src);
        symi_tensor::pool::set_threads(before);
        assert_eq!(one, four);
    }
}
