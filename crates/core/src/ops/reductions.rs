//! Scalar-valued compressed-space reductions: dot product, mean, L2 norm,
//! cosine similarity (Algorithms 6, 7, 10, 11).
//!
//! Accumulation happens in the compressed array's precision `P`, mirroring
//! how PyBlaz reduces tensors in the configured dtype on the GPU — so
//! float16/bfloat16 settings show genuine accumulation error (and the
//! overflow-induced NaNs of the paper's Fig. 5).

use crate::{BinIndex, BlazError, CompressedArray};
use blazr_precision::Real;
use rayon::prelude::*;

impl<P: Real, I: BinIndex> CompressedArray<P, I> {
    /// Sums `f(kb, slot)` over every block `kb` and kept slot, in `P`.
    /// Per-block partial sums are computed in parallel and combined in
    /// block order, keeping results deterministic at any thread count.
    pub(crate) fn coeff_fold(&self, f: impl Fn(usize, usize) -> P + Send + Sync) -> P {
        let k = self.kept_per_block();
        let partials: Vec<P> = (0..self.block_count())
            .into_par_iter()
            .with_min_len(32)
            .map(|kb| {
                let mut acc = P::zero();
                for slot in 0..k {
                    acc = acc + f(kb, slot);
                }
                acc
            })
            .collect();
        let mut total = P::zero();
        for p in partials {
            total = total + p;
        }
        total
    }

    /// Per-block DC coefficients `Ĉ…₁` (requires the DC slot).
    pub(crate) fn dc_coefficients(&self) -> Result<Vec<P>, BlazError> {
        let slot = self.dc_slot()?;
        // Each item is two loads and a multiply: only worth fanning out
        // for thousands of blocks (the min-length hint keeps small
        // gathers on the calling thread).
        Ok((0..self.block_count())
            .into_par_iter()
            .with_min_len(1024)
            .map(|kb| self.coeff(kb, slot))
            .collect())
    }

    /// Dot product (Algorithm 6): `Σ(Ĉ₁ ⊙ Ĉ₂)`. Exact with respect to the
    /// compressed data because the orthonormal transform preserves dot
    /// products; zero-padded regions contribute (approximately) zero.
    pub fn dot(&self, other: &Self) -> Result<P, BlazError> {
        self.check_compatible(other)?;
        Ok(self.coeff_fold(|kb, slot| self.coeff(kb, slot) * other.coeff(kb, slot)))
    }

    /// Mean (Algorithm 7): average the per-block DC coefficients and
    /// divide by `√(Πi)`.
    ///
    /// Paper-faithful: averages over *all* blocks, so zero padding dilutes
    /// the result for shapes that are not block multiples — see
    /// [`CompressedArray::mean_exact`] for the corrected version.
    pub fn mean(&self) -> Result<P, BlazError> {
        let dcs = self.dc_coefficients()?;
        let mut acc = P::zero();
        for &c in &dcs {
            acc = acc + c;
        }
        let nb = P::from_f64(dcs.len() as f64);
        let scale = P::from_f64(self.settings.dc_scale());
        Ok(acc / nb / scale)
    }

    /// Padding-corrected mean: `√(Πi)·ΣĈ…₁ / Πs`, exact for any shape
    /// (up to compression error). Returned in `f64`.
    pub fn mean_exact(&self) -> Result<f64, BlazError> {
        let dcs = self.dc_coefficients()?;
        let sum: f64 = dcs.iter().map(|c| c.to_f64()).sum();
        let n: usize = self.shape.iter().product();
        Ok(sum * self.settings.dc_scale() / n as f64)
    }

    /// Block-wise means (§IV-A-6): `Ĉ…₁ ⊘ √(Πi)` as a flat vector in block
    /// order (one entry per block).
    pub fn block_means(&self) -> Result<Vec<f64>, BlazError> {
        let dcs = self.dc_coefficients()?;
        let scale = self.settings.dc_scale();
        Ok(dcs.iter().map(|c| c.to_f64() / scale).collect())
    }

    /// L2 norm (Algorithm 10): `‖Ĉ‖₂`, exact thanks to orthonormality.
    pub fn l2_norm(&self) -> P {
        self.coeff_fold(|kb, slot| {
            let c = self.coeff(kb, slot);
            c * c
        })
        .sqrt()
    }

    /// Cosine similarity (Algorithm 11): `⟨A,B⟩ / (‖A‖·‖B‖)`.
    pub fn cosine_similarity(&self, other: &Self) -> Result<P, BlazError> {
        let p = self.dot(other)?;
        let m = self.l2_norm() * other.l2_norm();
        Ok(p / m)
    }
}

#[cfg(test)]
mod tests {
    use crate::{compress, Settings};
    use blazr_tensor::reduce;
    use blazr_tensor::NdArray;
    use blazr_util::rng::Xoshiro256pp;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform_in(-1.0, 1.0))
    }

    fn settings() -> Settings {
        Settings::new(vec![4, 4]).unwrap()
    }

    #[test]
    fn dot_matches_reference() {
        let a = random_array(vec![16, 16], 1);
        let b = random_array(vec![16, 16], 2);
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let got = ca.dot(&cb).unwrap();
        let expect = reduce::dot(&a, &b);
        assert!((got - expect).abs() < 0.05, "got {got} expect {expect}");
    }

    #[test]
    fn dot_of_decompressed_equals_compressed_dot() {
        // "No additional error": the compressed dot must match the dot of
        // the decompressed arrays to fp precision.
        let a = random_array(vec![16, 16], 3);
        let b = random_array(vec![16, 16], 4);
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let compressed = ca.dot(&cb).unwrap();
        let decompressed = reduce::dot(&ca.decompress(), &cb.decompress());
        assert!(
            (compressed - decompressed).abs() < 1e-9,
            "{compressed} vs {decompressed}"
        );
    }

    #[test]
    fn mean_matches_reference_no_padding() {
        let a = random_array(vec![16, 16], 5);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let got = c.mean().unwrap();
        let expect = reduce::mean(&a);
        assert!((got - expect).abs() < 1e-3, "got {got} expect {expect}");
    }

    #[test]
    fn mean_exact_corrects_padding() {
        // Shape 6×6 with 4×4 blocks pads to 8×8: the paper-faithful mean
        // is diluted by 36/64; mean_exact is not.
        let a = NdArray::full(vec![6, 6], 1.0f64);
        let c = compress::<f64, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        let faithful = c.mean().unwrap();
        let exact = c.mean_exact().unwrap();
        assert!((exact - 1.0).abs() < 1e-3, "exact {exact}");
        assert!((faithful - 36.0 / 64.0).abs() < 1e-3, "faithful {faithful}");
    }

    #[test]
    fn block_means_match_per_block_averages() {
        let a = random_array(vec![8, 8], 6);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let bm = c.block_means().unwrap();
        assert_eq!(bm.len(), 4);
        // Block (0,0) covers rows 0..4 × cols 0..4.
        let mut expect = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                expect += a.get(&[i, j]);
            }
        }
        expect /= 16.0;
        assert!((bm[0] - expect).abs() < 1e-3, "{} vs {expect}", bm[0]);
    }

    #[test]
    fn l2_norm_matches_reference() {
        let a = random_array(vec![16, 16], 7);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let got = c.l2_norm();
        let expect = reduce::norm_l2(&a);
        assert!(
            (got - expect).abs() / expect < 1e-3,
            "got {got} expect {expect}"
        );
    }

    #[test]
    fn cosine_similarity_self_is_one() {
        let a = random_array(vec![16, 16], 8);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let s = c.cosine_similarity(&c).unwrap();
        assert!((s - 1.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn cosine_similarity_matches_reference() {
        let a = random_array(vec![16, 16], 9);
        let b = random_array(vec![16, 16], 10);
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let got = ca.cosine_similarity(&cb).unwrap();
        let expect = reduce::cosine_similarity(&a, &b);
        assert!((got - expect).abs() < 5e-3, "got {got} expect {expect}");
    }

    #[test]
    fn mean_requires_dc() {
        use crate::{PruningMask, TransformKind};
        let a = random_array(vec![8, 8], 11);
        let mut keep = vec![true; 16];
        keep[0] = false;
        let s = settings()
            .with_mask(PruningMask::from_keep(vec![4, 4], keep).unwrap())
            .unwrap();
        let c = compress::<f64, i16>(&a, &s).unwrap();
        assert!(c.mean().is_err());
        // Identity transform has no DC basis either.
        let s2 = settings().with_transform(TransformKind::Identity);
        let c2 = compress::<f64, i16>(&a, &s2).unwrap();
        assert!(c2.mean().is_err());
    }

    #[test]
    fn f16_norm_of_large_array_can_overflow() {
        // Accumulating squares in f16 overflows 65504 quickly — the
        // mechanism behind the paper's missing (NaN) squares in Fig. 5.
        // Here each block's squared DC coefficient alone exceeds the f16
        // maximum, so the fold hits +inf.
        let a = NdArray::full(vec![64, 64], 50.0f64);
        let c = compress::<crate::F16, i16>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        let norm = c.l2_norm();
        assert!(!norm.is_finite(), "expected overflow, got {norm}");
    }
}
