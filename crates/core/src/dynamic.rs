//! Runtime-typed wrapper over all 16 `(float, index)` type combinations.
//!
//! The benchmark harness sweeps compression settings the way the paper's
//! Fig. 5 and Fig. 7 do — across `{bfloat16, float16, float32, float64} ×
//! {int8, int16, int32, int64}` — which needs runtime dispatch over the
//! statically-typed [`CompressedArray`]. [`DynCompressed`] is that
//! dispatch, generated by a macro over every combination.

use crate::ops::SsimParams;
use crate::{compress, BlazError, CompressedArray, IndexType, ScalarType, Settings};
use blazr_precision::{Real, BF16, F16};
use blazr_tensor::NdArray;

macro_rules! dyn_compressed {
    ($( $variant:ident => ($stag:ident, $itag:ident, $p:ty, $i:ty) ),+ $(,)?) => {
        /// A compressed array whose float/index types were chosen at runtime.
        #[derive(Debug, Clone)]
        pub enum DynCompressed {
            $(
                #[doc = concat!("`", stringify!($p), "` scales with `", stringify!($i), "` indices.")]
                $variant(CompressedArray<$p, $i>),
            )+
        }

        /// Compresses with runtime-chosen float and index types.
        pub fn compress_dyn(
            input: &NdArray<f64>,
            settings: &Settings,
            float_type: ScalarType,
            index_type: IndexType,
        ) -> Result<DynCompressed, BlazError> {
            match (float_type, index_type) {
                $(
                    (ScalarType::$stag, IndexType::$itag) => {
                        compress::<$p, $i>(input, settings).map(DynCompressed::$variant)
                    }
                )+
            }
        }

        /// Deserializes a stream into `slot`, reusing the previous
        /// occupant's buffers when its runtime types match the stream's
        /// (see [`CompressedArray::from_bytes_into`]) — the store's
        /// thread-local-scratch scan path. Only inspect `slot` after
        /// `Ok`; an error leaves it empty or with its prior occupant.
        pub fn from_bytes_dyn_into(
            bytes: &[u8],
            slot: &mut Option<DynCompressed>,
        ) -> Result<(), BlazError> {
            let (ft, it) = crate::serialize::peek_types(bytes)
                .ok_or_else(|| BlazError::Deserialize("empty stream or bad type tags".into()))?;
            match (ft, it) {
                $(
                    (ScalarType::$stag, crate::IndexType::$itag) => {
                        let mut inner = match slot.take() {
                            Some(DynCompressed::$variant(c)) => Some(c),
                            _ => None,
                        };
                        let r = CompressedArray::<$p, $i>::from_bytes_into(bytes, &mut inner);
                        *slot = inner.map(DynCompressed::$variant);
                        r
                    }
                )+
            }
        }

        impl DynCompressed {
            /// Serializes with the automatically chosen index coder (see
            /// [`crate::serialize`]).
            pub fn to_bytes(&self) -> Vec<u8> {
                match self { $( Self::$variant(c) => c.to_bytes(), )+ }
            }

            /// Serializes with an explicit index coder.
            pub fn to_bytes_with(&self, coder: crate::Coder) -> Vec<u8> {
                match self { $( Self::$variant(c) => c.to_bytes_with(coder), )+ }
            }

            /// The index coder [`DynCompressed::to_bytes`] would pick.
            pub fn choose_coder(&self) -> crate::Coder {
                match self { $( Self::$variant(c) => c.choose_coder(), )+ }
            }

            /// The runtime float format.
            pub fn float_type(&self) -> ScalarType {
                match self { $( Self::$variant(_) => ScalarType::$stag, )+ }
            }

            /// The runtime index type.
            pub fn index_type(&self) -> IndexType {
                match self { $( Self::$variant(_) => IndexType::$itag, )+ }
            }

            /// The original shape `s`.
            pub fn shape(&self) -> &[usize] {
                match self { $( Self::$variant(c) => c.shape(), )+ }
            }

            /// The compression settings.
            pub fn settings(&self) -> &Settings {
                match self { $( Self::$variant(c) => c.settings(), )+ }
            }

            /// Combinable compressed-space statistics (see
            /// [`crate::ops::ChunkStats`]).
            pub fn stats_partial(&self) -> Result<crate::ops::ChunkStats, BlazError> {
                match self { $( Self::$variant(c) => c.stats_partial(), )+ }
            }

            /// Another name for [`DynCompressed::stats_partial`], which is
            /// already the sequential, allocation-free fold.
            pub fn stats_partial_seq(&self) -> Result<crate::ops::ChunkStats, BlazError> {
                self.stats_partial()
            }

            /// Allocation-free block-envelope overlap test (see
            /// [`CompressedArray::any_envelope_overlaps`]).
            pub fn any_envelope_overlaps(
                &self,
                lo: f64,
                hi: f64,
                slack: f64,
            ) -> Result<bool, BlazError> {
                match self { $( Self::$variant(c) => c.any_envelope_overlaps(lo, hi, slack), )+ }
            }

            /// The §IV-D binning error-model bounds (see
            /// [`crate::ops::ErrorBounds`]).
            pub fn error_bounds(&self) -> crate::ops::ErrorBounds {
                match self { $( Self::$variant(c) => c.error_bounds(), )+ }
            }

            /// Per-block value envelopes in block order (see
            /// [`CompressedArray::block_envelopes`]).
            pub fn block_envelopes(&self) -> Result<Vec<(f64, f64)>, BlazError> {
                match self { $( Self::$variant(c) => c.block_envelopes(), )+ }
            }

            /// Decompresses to `f64`.
            pub fn decompress(&self) -> NdArray<f64> {
                match self { $( Self::$variant(c) => c.decompress(), )+ }
            }

            /// Compression ratio against an FP64 original.
            pub fn compression_ratio(&self) -> f64 {
                match self { $( Self::$variant(c) => c.compression_ratio(), )+ }
            }

            /// Serialized payload size in bits.
            pub fn payload_bits(&self) -> u64 {
                match self { $( Self::$variant(c) => c.payload_bits(), )+ }
            }

            /// Compressed-space negation.
            pub fn negate(&self) -> Self {
                match self { $( Self::$variant(c) => Self::$variant(c.negate()), )+ }
            }

            /// Compressed-space scalar multiplication.
            pub fn mul_scalar(&self, x: f64) -> Self {
                match self { $( Self::$variant(c) => Self::$variant(c.mul_scalar(x)), )+ }
            }

            /// Compressed-space scalar addition.
            pub fn add_scalar(&self, x: f64) -> Result<Self, BlazError> {
                match self { $( Self::$variant(c) => c.add_scalar(x).map(Self::$variant), )+ }
            }

            /// Compressed-space element-wise addition (same runtime types
            /// required).
            pub fn add(&self, other: &Self) -> Result<Self, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) => a.add(b).map(Self::$variant), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Compressed-space element-wise subtraction.
            pub fn sub(&self, other: &Self) -> Result<Self, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) => a.sub(b).map(Self::$variant), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Compressed-space mean, widened to `f64`.
            pub fn mean(&self) -> Result<f64, BlazError> {
                match self { $( Self::$variant(c) => c.mean().map(|v| v.to_f64()), )+ }
            }

            /// Compressed-space variance, widened to `f64`.
            pub fn variance(&self) -> Result<f64, BlazError> {
                match self { $( Self::$variant(c) => c.variance().map(|v| v.to_f64()), )+ }
            }

            /// Compressed-space L2 norm, widened to `f64`.
            pub fn l2_norm(&self) -> f64 {
                match self { $( Self::$variant(c) => c.l2_norm().to_f64(), )+ }
            }

            /// Compressed-space dot product, widened to `f64`.
            pub fn dot(&self, other: &Self) -> Result<f64, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) => a.dot(b).map(|v| v.to_f64()), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Compressed-space cosine similarity, widened to `f64`.
            pub fn cosine_similarity(&self, other: &Self) -> Result<f64, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) =>
                        a.cosine_similarity(b).map(|v| v.to_f64()), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Compressed-space covariance, widened to `f64`.
            pub fn covariance(&self, other: &Self) -> Result<f64, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) =>
                        a.covariance(b).map(|v| v.to_f64()), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Compressed-space SSIM, widened to `f64`.
            pub fn ssim(&self, other: &Self, p: &SsimParams) -> Result<f64, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) =>
                        a.ssim(b, p).map(|v| v.to_f64()), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Approximate Wasserstein distance.
            pub fn wasserstein(&self, other: &Self, p: f64) -> Result<f64, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) => a.wasserstein(b, p), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Approximate p-norm distance on block means.
            pub fn approx_lp_distance(&self, other: &Self, p: f64) -> Result<f64, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) => a.approx_lp_distance(b, p), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }

            /// Approximate L∞ distance on block means.
            pub fn approx_linf_distance(&self, other: &Self) -> Result<f64, BlazError> {
                match (self, other) {
                    $( (Self::$variant(a), Self::$variant(b)) => a.approx_linf_distance(b), )+
                    _ => Err(BlazError::SettingsMismatch),
                }
            }
        }
    };
}

dyn_compressed! {
    Bf16I8  => (BF16, I8,  BF16, i8),
    Bf16I16 => (BF16, I16, BF16, i16),
    Bf16I32 => (BF16, I32, BF16, i32),
    Bf16I64 => (BF16, I64, BF16, i64),
    F16I8   => (F16,  I8,  F16,  i8),
    F16I16  => (F16,  I16, F16,  i16),
    F16I32  => (F16,  I32, F16,  i32),
    F16I64  => (F16,  I64, F16,  i64),
    F32I8   => (F32,  I8,  f32,  i8),
    F32I16  => (F32,  I16, f32,  i16),
    F32I32  => (F32,  I32, f32,  i32),
    F32I64  => (F32,  I64, f32,  i64),
    F64I8   => (F64,  I8,  f64,  i8),
    F64I16  => (F64,  I16, f64,  i16),
    F64I32  => (F64,  I32, f64,  i32),
    F64I64  => (F64,  I64, f64,  i64),
}

/// Deserializes a stream whose float/index types are read from its
/// leading type tags (paper §IV-C's 4-bit type nibble).
pub fn from_bytes_dyn(bytes: &[u8]) -> Result<DynCompressed, BlazError> {
    let mut slot = None;
    from_bytes_dyn_into(bytes, &mut slot)?;
    Ok(slot.expect("from_bytes_dyn_into fills the slot on success"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazr_util::rng::Xoshiro256pp;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform())
    }

    #[test]
    fn all_sixteen_combinations_compress_and_decompress() {
        let a = random_array(vec![12, 12], 1);
        let s = Settings::new(vec![4, 4]).unwrap();
        for st in ScalarType::ALL {
            for it in IndexType::ALL {
                let c = compress_dyn(&a, &s, st, it).unwrap();
                assert_eq!(c.float_type(), st);
                assert_eq!(c.index_type(), it);
                let d = c.decompress();
                assert_eq!(d.shape(), &[12, 12]);
                // Even bf16/int8 should land within coarse range on [0,1] data.
                let err = blazr_util::stats::max_abs_diff(a.as_slice(), d.as_slice());
                assert!(err < 0.25, "{st}/{it} err {err}");
            }
        }
    }

    #[test]
    fn dyn_scalar_ops_match_static() {
        let a = random_array(vec![16, 16], 2);
        let s = Settings::new(vec![4, 4]).unwrap();
        let dynamic = compress_dyn(&a, &s, ScalarType::F64, IndexType::I16).unwrap();
        let statics = compress::<f64, i16>(&a, &s).unwrap();
        assert_eq!(dynamic.mean().unwrap(), statics.mean().unwrap());
        assert_eq!(dynamic.l2_norm(), statics.l2_norm());
        assert_eq!(dynamic.variance().unwrap(), statics.variance().unwrap());
    }

    #[test]
    fn mixed_variant_binary_ops_error() {
        let a = random_array(vec![8, 8], 3);
        let s = Settings::new(vec![4, 4]).unwrap();
        let c1 = compress_dyn(&a, &s, ScalarType::F32, IndexType::I8).unwrap();
        let c2 = compress_dyn(&a, &s, ScalarType::F64, IndexType::I8).unwrap();
        assert!(c1.add(&c2).is_err());
        assert!(c1.dot(&c2).is_err());
        assert!(c1.ssim(&c2, &SsimParams::default()).is_err());
    }

    #[test]
    fn dyn_deserialization_detects_types() {
        let a = random_array(vec![12, 12], 8);
        let s = Settings::new(vec![4, 4]).unwrap();
        for ft in ScalarType::ALL {
            for it in IndexType::ALL {
                let c = compress_dyn(&a, &s, ft, it).unwrap();
                let back = from_bytes_dyn(&c.to_bytes()).unwrap();
                assert_eq!(back.float_type(), ft);
                assert_eq!(back.index_type(), it);
                assert_eq!(back.decompress().as_slice(), c.decompress().as_slice());
            }
        }
        assert!(from_bytes_dyn(&[]).is_err());
    }

    #[test]
    fn dyn_buffer_reusing_decode_matches_fresh() {
        let a = random_array(vec![12, 12], 9);
        let s = Settings::new(vec![4, 4]).unwrap();
        let mut slot = None;
        // Sweeping all 16 variants through one slot exercises both the
        // variant-match reuse path and the variant-swap fallback.
        for ft in ScalarType::ALL {
            for it in IndexType::ALL {
                let c = compress_dyn(&a, &s, ft, it).unwrap();
                from_bytes_dyn_into(&c.to_bytes(), &mut slot).unwrap();
                let got = slot.as_ref().unwrap();
                assert_eq!(got.float_type(), ft);
                assert_eq!(got.index_type(), it);
                assert_eq!(got.decompress().as_slice(), c.decompress().as_slice());
            }
        }
        assert!(from_bytes_dyn_into(&[], &mut slot).is_err());
    }

    #[test]
    fn dyn_seq_ops_match_parallel() {
        let a = random_array(vec![16, 16], 11);
        let s = Settings::new(vec![4, 4]).unwrap();
        let c = compress_dyn(&a, &s, ScalarType::F32, IndexType::I16).unwrap();
        let envs = c.block_envelopes().unwrap();
        let (lo, hi) = (0.2, 0.4);
        let expect = envs.iter().any(|&(bl, bh)| bl <= hi && bh >= lo);
        assert_eq!(c.any_envelope_overlaps(lo, hi, 0.0).unwrap(), expect);
    }

    #[test]
    fn dyn_distances_reject_bad_orders_and_keep_nan() {
        let s = Settings::new(vec![8, 8]).unwrap();
        let hot = NdArray::from_fn(vec![8, 16], |i| if i[1] < 8 { 60000.0 } else { 1.0 });
        let ones = NdArray::full(vec![8, 16], 1.0);
        let a = compress_dyn(&hot, &s, ScalarType::F16, IndexType::I16).unwrap();
        let b = compress_dyn(&ones, &s, ScalarType::F16, IndexType::I16).unwrap();
        for p in [0.5, f64::NAN] {
            assert!(matches!(
                a.wasserstein(&b, p),
                Err(BlazError::InvalidArgument(_))
            ));
            assert!(matches!(
                a.approx_lp_distance(&b, p),
                Err(BlazError::InvalidArgument(_))
            ));
        }
        assert!(a.wasserstein(&b, 2.0).unwrap().is_nan());
        assert!(a.approx_lp_distance(&b, 2.0).unwrap().is_nan());
        assert!(a.approx_linf_distance(&b).unwrap().is_nan());
        assert_eq!(b.wasserstein(&b, 2.0).unwrap(), 0.0);
    }

    #[test]
    fn ratio_depends_on_types_not_data() {
        let a = random_array(vec![16, 16], 4);
        let b = random_array(vec![16, 16], 5);
        let s = Settings::new(vec![4, 4]).unwrap();
        let ca = compress_dyn(&a, &s, ScalarType::F32, IndexType::I8).unwrap();
        let cb = compress_dyn(&b, &s, ScalarType::F32, IndexType::I8).unwrap();
        assert_eq!(ca.compression_ratio(), cb.compression_ratio());
        let c16 = compress_dyn(&a, &s, ScalarType::F32, IndexType::I16).unwrap();
        assert!(ca.compression_ratio() > c16.compression_ratio());
    }
}
