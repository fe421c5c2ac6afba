//! Message payloads carried between ranks.

use std::ops::{Deref, Range};
use std::sync::Arc;

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

/// A read-only window onto an f32 buffer the sender shares: what a NIC
/// reads where the data lies, instead of a copy packed for the wire. It
/// dereferences to the window's `&[f32]`; the buffer stays alive, and
/// immutable, for as long as any view of it does.
#[derive(Clone, Debug)]
pub struct F32View {
    buf: Arc<Vec<f32>>,
    range: Range<usize>,
}

impl F32View {
    /// Elements `range` of `buf`.
    ///
    /// # Panics
    /// Panics if `range` runs past the buffer.
    pub fn new(buf: Arc<Vec<f32>>, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= buf.len(), "view past its buffer");
        Self { buf, range }
    }
}

impl Deref for F32View {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.buf[self.range.clone()]
    }
}

/// A typed payload. Collectives carrying tensor data use [`Payload::F32`],
/// or [`Payload::F32View`] for a range of a shared buffer sent without a
/// copy (a gradient, read where the backward wrote it); fp16-quantized
/// weight shards travel as [`Payload::F16`] (raw half bits, 2 B/element on
/// the wire — the width `adam.rs` documents for working weights); routing
/// metadata (token→expert assignments, popularity counts) as
/// [`Payload::U64`]; opaque blobs as [`Payload::Raw`].
#[derive(Debug, Clone)]
pub enum Payload {
    F32(Vec<f32>),
    F32View(F32View),
    F16(Vec<u16>),
    U64(Vec<u64>),
    Raw(Bytes),
}

impl Payload {
    /// Wire size in bytes, used for traffic accounting. A view counts its
    /// range only.
    pub fn byte_len(&self) -> u64 {
        match self {
            Payload::F32(v) => (v.len() * 4) as u64,
            Payload::F32View(v) => (v.len() * 4) as u64,
            Payload::F16(v) => (v.len() * 2) as u64,
            Payload::U64(v) => (v.len() * 8) as u64,
            Payload::Raw(b) => b.len() as u64,
        }
    }

    /// Element count regardless of width — what wire-level length
    /// validation compares against a receive's expected count.
    pub fn elements(&self) -> usize {
        match self {
            Payload::F32(v) => v.len(),
            Payload::F32View(v) => v.len(),
            Payload::F16(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::Raw(b) => b.len(),
        }
    }

    pub(crate) fn variant_name(&self) -> &'static str {
        match self {
            Payload::F32(_) => "F32",
            Payload::F32View(_) => "F32View",
            Payload::F16(_) => "F16",
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

    /// The f32 elements of an `F32` payload or an `F32View`, borrowed.
    pub fn as_f32(&self) -> Result<&[f32], crate::CommError> {
        match self {
            Payload::F32(v) => Ok(v),
            Payload::F32View(v) => Ok(v),
            other => Err(crate::CommError::PayloadMismatch {
                expected: "F32 or F32View",
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

impl From<F32View> for Payload {
    fn from(v: F32View) -> Self {
        Payload::F32View(v)
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

    #[test]
    fn a_view_counts_its_range_only() {
        let buf = Arc::new((0..100).map(|i| i as f32).collect::<Vec<f32>>());
        let view = Payload::from(F32View::new(buf.clone(), 10..35));
        assert_eq!((view.byte_len(), view.elements()), (100, 25));
        assert_eq!(view.as_f32().unwrap(), &buf[10..35]);
        assert_eq!(Arc::strong_count(&buf), 2, "the view shares the buffer");
        drop(view);
        assert_eq!(Arc::strong_count(&buf), 1);
    }

    #[test]
    fn a_view_never_turns_into_an_owned_vec() {
        let view = Payload::from(F32View::new(Arc::new(vec![1.0; 4]), 0..4));
        match view.into_f32() {
            Err(crate::CommError::PayloadMismatch { expected: "F32", got: "F32View" }) => {}
            other => panic!("expected a PayloadMismatch, got {other:?}"),
        }
        assert!(Payload::U64(vec![1]).as_f32().is_err());
    }

    #[test]
    #[should_panic(expected = "view past its buffer")]
    fn a_view_past_its_buffer_panics() {
        F32View::new(Arc::new(vec![0.0; 4]), 2..5);
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
