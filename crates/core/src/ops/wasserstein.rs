//! The approximate Wasserstein distance (Algorithm 13, §IV-B).
//!
//! The one *approximate* operation in the repertoire: block-wise means
//! serve as a coarse proxy for the decompressed arrays, so the error is a
//! function of the block size — one-element blocks would make it exact at
//! the cost of all compression (§IV-B). Because a sort is involved, this
//! operation is not differentiable.

use crate::{BinIndex, BlazError, CompressedArray};
use blazr_precision::Real;
use blazr_tensor::reduce::wasserstein_1d;

impl<P: Real, I: BinIndex> CompressedArray<P, I> {
    /// Approximate p-order Wasserstein distance (Algorithm 13): extract
    /// both arrays' block-wise means, softmax each if it does not already
    /// sum to 1, sort, and take `(Σ|PA′−PB′|^p / Π⌈s⊘i⌉)^(1/p)`.
    ///
    /// The power mean is max-normalized internally so large orders (the
    /// paper sweeps p up to 80) do not underflow to zero.
    pub fn wasserstein(&self, other: &Self, p: f64) -> Result<f64, BlazError> {
        self.check_compatible(other)?;
        check_order(p)?;
        let a = self.block_means()?;
        let b = other.block_means()?;
        Ok(wasserstein_1d(&a, &b, p))
    }

    /// Approximate p-norm distance on the block-mean proxies (the same
    /// §IV-B approximation idea, without the sort — so it compares
    /// *spatially aligned* structure rather than distributions):
    /// `(Σ_k |ā_k − b̄_k|^p / Πb)^(1/p)`, max-normalized against underflow.
    ///
    /// The paper's §V-C notes "higher-order norms such as L∞ are also able
    /// to ignore the noise"; this is that operation. See
    /// [`CompressedArray::approx_linf_distance`] for the p → ∞ limit.
    pub fn approx_lp_distance(&self, other: &Self, p: f64) -> Result<f64, BlazError> {
        self.check_compatible(other)?;
        check_order(p)?;
        let diffs = self.block_mean_diffs(other)?;
        let dmax = max_or_nan(&diffs);
        if dmax == 0.0 {
            return Ok(0.0);
        }
        let sum: f64 = diffs.iter().map(|&d| (d / dmax).powf(p)).sum();
        Ok(dmax * (sum / diffs.len() as f64).powf(1.0 / p))
    }

    /// Approximate L∞ distance on the block-mean proxies: the largest
    /// per-block mean difference — the limit of
    /// [`CompressedArray::approx_lp_distance`] as p → ∞.
    pub fn approx_linf_distance(&self, other: &Self) -> Result<f64, BlazError> {
        self.check_compatible(other)?;
        Ok(max_or_nan(&self.block_mean_diffs(other)?))
    }

    /// `|ā_k − b̄_k|` per block, in block order.
    fn block_mean_diffs(&self, other: &Self) -> Result<Vec<f64>, BlazError> {
        let a = self.block_means()?;
        let b = other.block_means()?;
        Ok(a.iter().zip(&b).map(|(x, y)| (x - y).abs()).collect())
    }
}

/// Rejects a distance order below 1, or NaN: the power mean is a norm
/// only for `p ≥ 1`.
fn check_order(p: f64) -> Result<(), BlazError> {
    if p >= 1.0 {
        Ok(())
    } else {
        Err(BlazError::InvalidArgument(format!(
            "distance order p must be >= 1, got {p}"
        )))
    }
}

/// The largest of non-negative differences (0 for none), or NaN if any
/// is NaN: a NaN block mean (f16 overflow) makes every distance NaN
/// rather than vanish from a `max`.
fn max_or_nan(diffs: &[f64]) -> f64 {
    diffs
        .iter()
        .fold(0.0, |m, &d| if d > m || d.is_nan() { d } else { m })
}

#[cfg(test)]
mod tests {
    use crate::{compress, BlazError, Settings, F16};
    use blazr_tensor::NdArray;
    use blazr_util::rng::Xoshiro256pp;

    fn settings(bs: usize) -> Settings {
        Settings::new(vec![bs, bs]).unwrap()
    }

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform())
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = random_array(vec![16, 16], 1);
        let c = compress::<f64, i16>(&a, &settings(4)).unwrap();
        assert_eq!(c.wasserstein(&c, 2.0).unwrap(), 0.0);
    }

    #[test]
    fn is_symmetric() {
        let a = random_array(vec![16, 16], 2);
        let b = random_array(vec![16, 16], 3);
        let ca = compress::<f64, i16>(&a, &settings(4)).unwrap();
        let cb = compress::<f64, i16>(&b, &settings(4)).unwrap();
        let d1 = ca.wasserstein(&cb, 2.0).unwrap();
        let d2 = cb.wasserstein(&ca, 2.0).unwrap();
        assert!((d1 - d2).abs() < 1e-15);
        assert!(d1 > 0.0);
    }

    #[test]
    fn smaller_blocks_give_finer_approximation() {
        // §IV-B: approximation granularity follows block shape. Against a
        // localized perturbation, the 2×2-block distance should see
        // structure the 8×8-block distance smooths away; at the extreme,
        // 1×1 blocks reproduce the exact (uncompressed) distance.
        let a = random_array(vec![16, 16], 4);
        let mut b = a.clone();
        for i in 0..4 {
            for j in 0..4 {
                let v = b.get(&[i, j]);
                b.set(&[i, j], v + 1.0);
            }
        }
        let exact = blazr_tensor::reduce::wasserstein_1d(a.as_slice(), b.as_slice(), 2.0);
        let approx_fine = {
            let ca = compress::<f64, i32>(&a, &settings(2)).unwrap();
            let cb = compress::<f64, i32>(&b, &settings(2)).unwrap();
            ca.wasserstein(&cb, 2.0).unwrap()
        };
        let approx_coarse = {
            let ca = compress::<f64, i32>(&a, &settings(8)).unwrap();
            let cb = compress::<f64, i32>(&b, &settings(8)).unwrap();
            ca.wasserstein(&cb, 2.0).unwrap()
        };
        // Finer blocks should land closer to the exact value.
        let err_fine = (approx_fine - exact).abs();
        let err_coarse = (approx_coarse - exact).abs();
        assert!(
            err_fine <= err_coarse,
            "fine {approx_fine} coarse {approx_coarse} exact {exact}"
        );
    }

    #[test]
    fn requires_matching_settings() {
        let a = random_array(vec![16, 16], 5);
        let ca = compress::<f64, i16>(&a, &settings(4)).unwrap();
        let cb = compress::<f64, i16>(&a, &settings(8)).unwrap();
        assert!(ca.wasserstein(&cb, 2.0).is_err());
    }

    #[test]
    fn lp_distance_identity_symmetry_and_limits() {
        let a = random_array(vec![16, 16], 10);
        let b = random_array(vec![16, 16], 11);
        let ca = compress::<f64, i16>(&a, &settings(4)).unwrap();
        let cb = compress::<f64, i16>(&b, &settings(4)).unwrap();
        assert_eq!(ca.approx_lp_distance(&ca, 2.0).unwrap(), 0.0);
        assert_eq!(ca.approx_linf_distance(&ca).unwrap(), 0.0);
        let d1 = ca.approx_lp_distance(&cb, 3.0).unwrap();
        let d2 = cb.approx_lp_distance(&ca, 3.0).unwrap();
        assert!((d1 - d2).abs() < 1e-15);
        // p-norm means are monotone nondecreasing in p and converge to L∞.
        let linf = ca.approx_linf_distance(&cb).unwrap();
        let mut last = 0.0;
        for p in [1.0, 2.0, 4.0, 16.0, 64.0] {
            let d = ca.approx_lp_distance(&cb, p).unwrap();
            assert!(d >= last - 1e-12, "p={p}: {d} < {last}");
            assert!(d <= linf * (1.0 + 1e-12), "p={p}: {d} > linf {linf}");
            last = d;
        }
        assert!(
            (ca.approx_lp_distance(&cb, 512.0).unwrap() - linf).abs() < 0.05 * linf,
            "high p should approach L∞"
        );
    }

    #[test]
    fn linf_ignores_diffuse_noise_like_the_paper_says() {
        // §V-C: higher-order norms suppress diffuse noise relative to a
        // localized topology change.
        let base = random_array(vec![32, 32], 12);
        let mut noisy = base.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(13);
        for i in 0..32 {
            for j in 0..32 {
                let v = noisy.get(&[i, j]);
                noisy.set(&[i, j], v + rng.uniform_in(-0.01, 0.01));
            }
        }
        let mut localized = base.clone();
        for i in 0..4 {
            for j in 0..4 {
                let v = localized.get(&[i, j]);
                localized.set(&[i, j], v + 1.0);
            }
        }
        let s = settings(4);
        let cb = compress::<f64, i32>(&base, &s).unwrap();
        let cn = compress::<f64, i32>(&noisy, &s).unwrap();
        let cl = compress::<f64, i32>(&localized, &s).unwrap();
        let sep_l1 =
            cl.approx_lp_distance(&cb, 1.0).unwrap() / cn.approx_lp_distance(&cb, 1.0).unwrap();
        let sep_linf =
            cl.approx_linf_distance(&cb).unwrap() / cn.approx_linf_distance(&cb).unwrap();
        assert!(
            sep_linf > sep_l1,
            "L∞ should separate the event better: L1 {sep_l1} vs L∞ {sep_linf}"
        );
    }

    #[test]
    fn higher_order_suppresses_small_differences() {
        // The Fig. 6(b) mechanism: many small diffs + one large diff; as p
        // grows the distance is dominated by the large one.
        let base = random_array(vec![32, 32], 6);
        let mut small = base.clone();
        for i in 0..32 {
            for j in 0..32 {
                let v = small.get(&[i, j]);
                small.set(&[i, j], v + 1e-4 * ((i + j) % 3) as f64);
            }
        }
        let mut large = base.clone();
        for i in 0..8 {
            for j in 0..8 {
                let v = large.get(&[i, j]);
                large.set(&[i, j], v + 2.0);
            }
        }
        let s = settings(4);
        let cb = compress::<f64, i32>(&base, &s).unwrap();
        let cs = compress::<f64, i32>(&small, &s).unwrap();
        let cl = compress::<f64, i32>(&large, &s).unwrap();
        let ratio_p2 =
            cl.wasserstein(&cb, 2.0).unwrap() / cs.wasserstein(&cb, 2.0).unwrap().max(1e-300);
        let ratio_p32 =
            cl.wasserstein(&cb, 32.0).unwrap() / cs.wasserstein(&cb, 32.0).unwrap().max(1e-300);
        assert!(
            ratio_p32 > ratio_p2,
            "peak separation should grow with p: p2 {ratio_p2} p32 {ratio_p32}"
        );
    }

    #[test]
    fn orders_below_one_or_nan_are_invalid_arguments() {
        let a = random_array(vec![16, 16], 20);
        let c = compress::<f64, i16>(&a, &settings(4)).unwrap();
        for p in [0.5, 0.0, -1.0, f64::NAN] {
            assert!(
                matches!(c.wasserstein(&c, p), Err(BlazError::InvalidArgument(_))),
                "wasserstein p={p}"
            );
            assert!(
                matches!(
                    c.approx_lp_distance(&c, p),
                    Err(BlazError::InvalidArgument(_))
                ),
                "approx_lp_distance p={p}"
            );
        }
        assert_eq!(c.wasserstein(&c, 1.0).unwrap(), 0.0);
        assert_eq!(c.approx_lp_distance(&c, f64::INFINITY).unwrap(), 0.0);
    }

    #[test]
    fn nan_block_means_make_every_distance_nan() {
        // The paper's f16 overflow: a block of 60000s transforms past the
        // f16 maximum, so its block mean is NaN. Two blocks here, then one.
        let s = settings(8);
        for cols in [16, 8] {
            let a = NdArray::from_fn(vec![8, cols], |i| if i[1] < 8 { 60000.0 } else { 1.0 });
            let b = NdArray::from_fn(vec![8, cols], |_| 1.0);
            let ca = compress::<F16, i16>(&a, &s).unwrap();
            let cb = compress::<F16, i16>(&b, &s).unwrap();
            assert!(
                ca.block_means().unwrap()[0].is_nan(),
                "premise: the overflowing block's mean is NaN"
            );
            for (x, y) in [(&ca, &cb), (&cb, &ca), (&ca, &ca)] {
                assert!(x.wasserstein(y, 2.0).unwrap().is_nan(), "{cols} cols");
                assert!(x.approx_lp_distance(y, 2.0).unwrap().is_nan());
                assert!(x.approx_linf_distance(y).unwrap().is_nan());
            }
            assert!(cb.wasserstein(&cb, 2.0).unwrap() == 0.0);
        }
    }
}
