//! Covariance, variance, standard deviation, and their block-wise
//! variants (Algorithms 8, 9).

use crate::{BinIndex, BlazError, CompressedArray};
use blazr_precision::Real;
use rayon::prelude::*;

impl<P: Real, I: BinIndex> CompressedArray<P, I> {
    /// Covariance (Algorithm 8): center both arrays' DC coefficients by
    /// the mean DC, then take the mean of the element-wise product of
    /// specified coefficients. Exact up to compression error because the
    /// transform preserves dot products.
    ///
    /// The divisor is the *total coefficient count* `Πb·Πi` (the padded
    /// element count), faithful to the paper's `mean(Ĉ₁ ⊙ Ĉ₂)`.
    pub fn covariance(&self, other: &Self) -> Result<P, BlazError> {
        self.check_compatible(other)?;
        let dc_slot = self.dc_slot()?;

        // Mean DC per array (the ā·√(Πi) correction of §IV-A-7). A plain
        // block-order fold: cheap enough that parallel dispatch would
        // cost more than the loads it distributes, and the combine order
        // is what the determinism contract fixes anyway.
        let nb = P::from_f64(self.block_count() as f64);
        let mean_dc = |c: &Self| -> P {
            let mut acc = P::zero();
            for kb in 0..c.block_count() {
                acc = acc + c.coeff(kb, dc_slot);
            }
            acc / nb
        };
        let (m1, m2) = (mean_dc(self), mean_dc(other));
        let acc = self.coeff_fold(|kb, slot| {
            let (a, b) = (self.coeff(kb, slot), other.coeff(kb, slot));
            if slot == dc_slot {
                (a - m1) * (b - m2)
            } else {
                a * b
            }
        });
        let total = P::from_f64((self.block_count() * self.settings.block_len()) as f64);
        Ok(acc / total)
    }

    /// Variance (Algorithm 9): the covariance of the array with itself.
    pub fn variance(&self) -> Result<P, BlazError> {
        self.covariance(self)
    }

    /// Standard deviation: `√variance`.
    pub fn std_dev(&self) -> Result<P, BlazError> {
        Ok(self.variance()?.sqrt())
    }

    /// Block-wise variances (§IV-A-8): for each block, the mean of squared
    /// block-wise-centered coefficients, i.e. `(Σ_j c_j² − c_DC²) / Πi`.
    /// Returned in `f64`, one entry per block in block order.
    pub fn block_variances(&self) -> Result<Vec<f64>, BlazError> {
        let dc_slot = self.dc_slot()?;
        let len = self.settings.block_len() as f64;
        Ok((0..self.block_count())
            .into_par_iter()
            .with_min_len(32)
            .map(|kb| self.block_moments(kb, dc_slot).2 / len)
            .collect())
    }

    /// Block-wise standard deviations.
    pub fn block_std_devs(&self) -> Result<Vec<f64>, BlazError> {
        Ok(self.block_variances()?.into_iter().map(f64::sqrt).collect())
    }

    /// Block-wise covariances (§IV-A-7: "Block-wise covariance is also
    /// available by getting the block-wise means of this product"): for
    /// each block, the mean of the products of block-centered coefficients
    /// — i.e. `(Σ_j c1_j·c2_j − c1_DC·c2_DC) / Πi`.
    pub fn block_covariances(&self, other: &Self) -> Result<Vec<f64>, BlazError> {
        self.check_compatible(other)?;
        let dc_slot = self.dc_slot()?;
        let k = self.kept_per_block();
        let len = self.settings.block_len() as f64;
        Ok((0..self.block_count())
            .into_par_iter()
            .with_min_len(32)
            .map(|kb| {
                let mut acc = 0.0;
                for slot in 0..k {
                    if slot == dc_slot {
                        continue; // centering removes the DC product
                    }
                    acc += self.coeff(kb, slot).to_f64() * other.coeff(kb, slot).to_f64();
                }
                acc / len
            })
            .collect())
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
    fn variance_matches_reference() {
        let a = random_array(vec![16, 16], 1);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let got = c.variance().unwrap();
        let expect = reduce::variance(&a);
        assert!(
            (got - expect).abs() / expect < 5e-3,
            "got {got} expect {expect}"
        );
    }

    #[test]
    fn covariance_matches_reference() {
        let a = random_array(vec![16, 16], 2);
        let b = random_array(vec![16, 16], 3)
            .mul_scalar(0.5)
            .add(&a.mul_scalar(0.5)); // correlate with a
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let got = ca.covariance(&cb).unwrap();
        let expect = reduce::covariance(&a, &b);
        assert!((got - expect).abs() < 2e-3, "got {got} expect {expect}");
    }

    #[test]
    fn covariance_is_symmetric() {
        let a = random_array(vec![12, 12], 4);
        let b = random_array(vec![12, 12], 5);
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let ab = ca.covariance(&cb).unwrap();
        let ba = cb.covariance(&ca).unwrap();
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn variance_is_nonnegative_and_std_is_sqrt() {
        let a = random_array(vec![16, 16], 6);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let v = c.variance().unwrap();
        let s = c.std_dev().unwrap();
        assert!(v >= 0.0);
        assert!((s * s - v).abs() < 1e-12);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let a = NdArray::full(vec![8, 8], 3.0f64);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let v = c.variance().unwrap();
        assert!(v.abs() < 1e-9, "got {v}");
    }

    #[test]
    fn block_variances_match_per_block_reference() {
        let a = random_array(vec![8, 8], 7);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let bv = c.block_variances().unwrap();
        assert_eq!(bv.len(), 4);
        // Reference variance of block (0,0).
        let vals: Vec<f64> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .map(|(i, j)| a.get(&[i, j]))
            .collect();
        let m = vals.iter().sum::<f64>() / 16.0;
        let var = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / 16.0;
        assert!((bv[0] - var).abs() < 1e-3, "{} vs {var}", bv[0]);
    }

    #[test]
    fn block_covariance_of_self_is_block_variance() {
        let a = random_array(vec![12, 12], 9);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let bv = c.block_variances().unwrap();
        let bc = c.block_covariances(&c).unwrap();
        assert_eq!(bv.len(), bc.len());
        for (v, cv) in bv.iter().zip(&bc) {
            assert!((v - cv).abs() < 1e-12, "{v} vs {cv}");
        }
    }

    #[test]
    fn block_covariance_matches_per_block_reference() {
        let a = random_array(vec![8, 8], 10);
        let b = random_array(vec![8, 8], 11);
        let ca = compress::<f64, i16>(&a, &settings()).unwrap();
        let cb = compress::<f64, i16>(&b, &settings()).unwrap();
        let bc = ca.block_covariances(&cb).unwrap();
        // Reference covariance of block (0,0) on the decompressed data
        // (the op is exact w.r.t. compressed content).
        let da = ca.decompress();
        let db = cb.decompress();
        let (mut ma, mut mb) = (0.0, 0.0);
        for i in 0..4 {
            for j in 0..4 {
                ma += da.get(&[i, j]);
                mb += db.get(&[i, j]);
            }
        }
        ma /= 16.0;
        mb /= 16.0;
        let mut cov = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                cov += (da.get(&[i, j]) - ma) * (db.get(&[i, j]) - mb);
            }
        }
        cov /= 16.0;
        assert!((bc[0] - cov).abs() < 1e-9, "{} vs {cov}", bc[0]);
    }

    #[test]
    fn moment_ops_compose_with_decompressed_equivalence() {
        // "No additional error" claim: variance computed in compressed
        // space equals variance of the decompressed array to fp precision
        // (same shape, no padding).
        let a = random_array(vec![16, 16], 8);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let comp = c.variance().unwrap();
        let dec = reduce::variance(&c.decompress());
        assert!((comp - dec).abs() < 1e-9, "{comp} vs {dec}");
    }
}
