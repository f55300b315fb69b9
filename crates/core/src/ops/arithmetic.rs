//! Array-valued compressed-space operations: negation, addition,
//! subtraction, scalar addition, scalar multiplication
//! (Algorithms 1, 2, 4, 5).

use crate::{BinIndex, BlazError, CompressedArray};
use blazr_precision::Real;
use rayon::prelude::*;

impl<P: Real, I: BinIndex> CompressedArray<P, I> {
    /// Negation (Algorithm 1): negate every bin index. Introduces no error
    /// — the indices are proportional to the coefficients.
    pub fn negate(&self) -> Self {
        let mut out = self.clone();
        out.negate_in_place();
        out
    }

    /// In-place negation.
    pub fn negate_in_place(&mut self) {
        for f in &mut self.indices {
            *f = I::from_i64(-f.to_i64());
        }
    }

    /// Element-wise addition (Algorithm 2): sum the specified
    /// coefficients, find each block's new biggest coefficient, and rebin.
    /// The only new error is that rebinning.
    pub fn add(&self, other: &Self) -> Result<Self, BlazError> {
        self.check_compatible(other)?;
        self.combine_coefficients(other, |a, b| a + b)
    }

    /// Element-wise subtraction: `self − other`. The paper realizes the
    /// difference as negation followed by addition; this computes the same
    /// coefficients in one pass (tested equivalent).
    pub fn sub(&self, other: &Self) -> Result<Self, BlazError> {
        self.check_compatible(other)?;
        self.combine_coefficients(other, |a, b| a - b)
    }

    fn combine_coefficients(
        &self,
        other: &Self,
        f: impl Fn(P, P) -> P + Send + Sync,
    ) -> Result<Self, BlazError> {
        let k = self.kept_per_block();
        let n_blocks = self.block_count();
        let mut biggest = vec![P::zero(); n_blocks];
        let mut indices = vec![I::from_i64(0); n_blocks * k];
        biggest
            .par_iter_mut()
            .zip(indices.par_chunks_mut(k))
            .enumerate()
            .with_min_len(32)
            .for_each_init(
                || vec![P::zero(); k],
                |coeffs, (kb, (n_out, idx_out))| {
                    let mut n = P::zero();
                    for (slot, c_out) in coeffs.iter_mut().enumerate() {
                        let c = f(self.coeff(kb, slot), other.coeff(kb, slot));
                        *c_out = c;
                        n = n.max_val(c.abs());
                    }
                    *n_out = n;
                    for (&c, i_out) in coeffs.iter().zip(idx_out.iter_mut()) {
                        let q = if n == P::zero() {
                            0.0
                        } else {
                            (c / n).to_f64()
                        };
                        *i_out = I::bin(q);
                    }
                },
            );
        Ok(Self {
            shape: self.shape.clone(),
            settings: self.settings.clone(),
            biggest,
            indices,
        })
    }

    /// Scalar addition (Algorithm 4): add `x·√(Πi)` to every block's DC
    /// coefficient, then rebin. Requires the DC coefficient to be kept.
    ///
    /// Deviation from the paper: Algorithm 4 computes
    /// the new `N` *before* updating the DC coefficient, which can push
    /// indices out of range; we recompute `N` afterwards, matching
    /// Algorithm 2's convention.
    pub fn add_scalar(&self, x: f64) -> Result<Self, BlazError> {
        self.require_dc()?;
        let k = self.kept_per_block();
        let dc_slot = self
            .settings
            .mask
            .dc_kept_slot()
            .ok_or(BlazError::DcUnavailable)?;
        let delta = P::from_f64(x * self.settings.dc_scale());
        let n_blocks = self.block_count();
        let mut biggest = vec![P::zero(); n_blocks];
        let mut indices = vec![I::from_i64(0); n_blocks * k];
        biggest
            .par_iter_mut()
            .zip(indices.par_chunks_mut(k))
            .enumerate()
            .with_min_len(32)
            .for_each_init(
                || vec![P::zero(); k],
                |coeffs, (kb, (n_out, idx_out))| {
                    let mut n = P::zero();
                    for (slot, c_out) in coeffs.iter_mut().enumerate() {
                        let mut c = self.coeff(kb, slot);
                        if slot == dc_slot {
                            c = c + delta;
                        }
                        *c_out = c;
                        n = n.max_val(c.abs());
                    }
                    *n_out = n;
                    for (&c, i_out) in coeffs.iter().zip(idx_out.iter_mut()) {
                        let q = if n == P::zero() {
                            0.0
                        } else {
                            (c / n).to_f64()
                        };
                        *i_out = I::bin(q);
                    }
                },
            );
        Ok(Self {
            shape: self.shape.clone(),
            settings: self.settings.clone(),
            biggest,
            indices,
        })
    }

    /// Scalar multiplication (Algorithm 5): scale `N` by `|x|` and flip
    /// index signs if `x < 0`. Introduces no error.
    pub fn mul_scalar(&self, x: f64) -> Self {
        let mut out = self.clone();
        let ax = P::from_f64(x.abs());
        for n in &mut out.biggest {
            *n = *n * ax;
        }
        if x < 0.0 {
            out.negate_in_place();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::{compress, Settings};
    use blazr_tensor::NdArray;
    use blazr_util::rng::Xoshiro256pp;
    use blazr_util::stats::max_abs_diff;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform_in(-1.0, 1.0))
    }

    fn settings() -> Settings {
        Settings::new(vec![4, 4]).unwrap()
    }

    #[test]
    fn negation_is_exact_in_compressed_space() {
        let a = random_array(vec![12, 12], 1);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let n = c.negate();
        // decompress(negate(c)) == -decompress(c) exactly (bit-level).
        let lhs = n.decompress();
        let rhs = c.decompress().neg();
        assert_eq!(lhs.as_slice(), rhs.as_slice());
    }

    #[test]
    fn double_negation_is_identity() {
        let a = random_array(vec![8, 8], 2);
        let c = compress::<f32, i8>(&a, &settings()).unwrap();
        assert_eq!(c.negate().negate(), c);
    }

    #[test]
    fn addition_approximates_uncompressed_sum() {
        let a = random_array(vec![16, 16], 3);
        let b = random_array(vec![16, 16], 4);
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let sum = ca.add(&cb).unwrap().decompress();
        let expect = a.add(&b);
        let err = max_abs_diff(sum.as_slice(), expect.as_slice());
        assert!(err < 5e-3, "err {err}");
    }

    #[test]
    fn sub_equals_negate_then_add() {
        let a = random_array(vec![16, 16], 5);
        let b = random_array(vec![16, 16], 6);
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let direct = ca.sub(&cb).unwrap();
        let via_neg = ca.add(&cb.negate()).unwrap();
        assert_eq!(direct, via_neg);
    }

    #[test]
    fn add_rejects_mismatched_shapes() {
        let a = random_array(vec![8, 8], 7);
        let b = random_array(vec![8, 12], 8);
        let ca = compress::<f64, i8>(&a, &settings()).unwrap();
        let cb = compress::<f64, i8>(&b, &settings()).unwrap();
        assert!(ca.add(&cb).is_err());
    }

    #[test]
    fn add_rejects_mismatched_settings() {
        let a = random_array(vec![16, 16], 9);
        let ca = compress::<f64, i8>(&a, &settings()).unwrap();
        let cb = compress::<f64, i8>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        assert!(ca.add(&cb).is_err());
    }

    #[test]
    fn scalar_addition_shifts_mean() {
        let a = random_array(vec![16, 16], 10);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let shifted = c.add_scalar(0.75).unwrap();
        let d = shifted.decompress();
        let expect = a.add_scalar(0.75);
        let err = max_abs_diff(d.as_slice(), expect.as_slice());
        assert!(err < 5e-3, "err {err}");
    }

    #[test]
    fn scalar_addition_requires_dc() {
        use crate::PruningMask;
        let a = random_array(vec![8, 8], 11);
        let mut keep = vec![true; 16];
        keep[0] = false;
        let s = settings()
            .with_mask(PruningMask::from_keep(vec![4, 4], keep).unwrap())
            .unwrap();
        let c = compress::<f64, i16>(&a, &s).unwrap();
        assert!(matches!(
            c.add_scalar(1.0),
            Err(crate::BlazError::DcUnavailable)
        ));
    }

    #[test]
    fn scalar_multiplication_is_exact() {
        let a = random_array(vec![16, 16], 12);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        // mul by positive scalar: decompressed values scale exactly.
        let m = c.mul_scalar(3.0);
        let lhs = m.decompress();
        let rhs = c.decompress().mul_scalar(3.0);
        let err = max_abs_diff(lhs.as_slice(), rhs.as_slice());
        assert!(err < 1e-12, "err {err}");
        // Negative scalar flips signs exactly.
        let neg = c.mul_scalar(-2.0);
        let lhs = neg.decompress();
        let rhs = c.decompress().mul_scalar(-2.0);
        let err = max_abs_diff(lhs.as_slice(), rhs.as_slice());
        assert!(err < 1e-12, "err {err}");
    }

    #[test]
    fn mul_by_zero_zeroes_everything() {
        let a = random_array(vec![8, 8], 13);
        let c = compress::<f64, i8>(&a, &settings()).unwrap();
        let z = c.mul_scalar(0.0).decompress();
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn paper_difference_recipe_finds_perturbations() {
        // The Fig. 4 recipe: difference via negation + addition highlights
        // where two fields diverge.
        let a = random_array(vec![32, 32], 14);
        let mut b = a.clone();
        // Perturb one region.
        for i in 8..12 {
            for j in 8..12 {
                let v = b.get(&[i, j]);
                b.set(&[i, j], v + 0.5);
            }
        }
        let s = Settings::new(vec![8, 8]).unwrap();
        let ca = compress::<f32, i16>(&a, &s).unwrap();
        let cb = compress::<f32, i16>(&b, &s).unwrap();
        let diff = cb.add(&ca.negate()).unwrap().decompress();
        // The perturbed region should carry most of the energy.
        let inside: f64 = (8..12)
            .flat_map(|i| (8..12).map(move |j| (i, j)))
            .map(|(i, j)| diff.get(&[i, j]).abs())
            .sum();
        let total: f64 = diff.as_slice().iter().map(|x| x.abs()).sum();
        assert!(inside / total > 0.5, "inside {inside} total {total}");
    }
}
