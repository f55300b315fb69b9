//! Uncompressed-space reference operations.
//!
//! These are the "plain PyTorch" counterparts the paper compares its
//! compressed-space operations against (§V-B): mean, variance, covariance,
//! dot product, L2 norm, cosine similarity, SSIM, and the exact 1-D
//! p-order Wasserstein distance. Every compressed-space operation in
//! `blazr::ops` has a test pitting it against the functions here.

use crate::NdArray;

/// Sum of all elements (`ΣX`).
pub fn sum(a: &NdArray<f64>) -> f64 {
    a.as_slice().iter().sum()
}

/// Arithmetic mean. Returns NaN for empty arrays.
pub fn mean(a: &NdArray<f64>) -> f64 {
    sum(a) / a.len() as f64
}

/// Population variance.
pub fn variance(a: &NdArray<f64>) -> f64 {
    let m = mean(a);
    a.as_slice().iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Population standard deviation.
pub fn std_dev(a: &NdArray<f64>) -> f64 {
    variance(a).sqrt()
}

/// Population covariance of two same-shaped arrays.
pub fn covariance(a: &NdArray<f64>, b: &NdArray<f64>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "shape mismatch");
    let ma = mean(a);
    let mb = mean(b);
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x - ma) * (y - mb))
        .sum::<f64>()
        / a.len() as f64
}

/// Dot product over all elements.
pub fn dot(a: &NdArray<f64>, b: &NdArray<f64>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x * y)
        .sum()
}

/// L2 (Euclidean) norm.
pub fn norm_l2(a: &NdArray<f64>) -> f64 {
    a.as_slice().iter().map(|&x| x * x).sum::<f64>().sqrt()
}

/// L∞ norm (largest magnitude).
pub fn norm_linf(a: &NdArray<f64>) -> f64 {
    a.as_slice().iter().fold(0.0, |m, &x| m.max(x.abs()))
}

/// Cosine similarity `⟨a,b⟩ / (‖a‖‖b‖)`.
pub fn cosine_similarity(a: &NdArray<f64>, b: &NdArray<f64>) -> f64 {
    dot(a, b) / (norm_l2(a) * norm_l2(b))
}

/// Stabilizers and weights for [`ssim`], mirroring Algorithm 12's
/// parameters. Defaults follow the standard SSIM constants for data in
/// `[0, 1]`: `sl = (0.01)²`, `sc = (0.03)²`, unit weights.
#[derive(Debug, Clone, Copy)]
pub struct SsimParams {
    /// Luminance stabilizer `sl`.
    pub luminance_stabilizer: f64,
    /// Contrast stabilizer `sc`.
    pub contrast_stabilizer: f64,
    /// Luminance weight `wl`.
    pub luminance_weight: f64,
    /// Contrast weight `wc`.
    pub contrast_weight: f64,
    /// Structure weight `ws`.
    pub structure_weight: f64,
}

impl Default for SsimParams {
    fn default() -> Self {
        Self {
            luminance_stabilizer: 1e-4,
            contrast_stabilizer: 9e-4,
            luminance_weight: 1.0,
            contrast_weight: 1.0,
            structure_weight: 1.0,
        }
    }
}

/// Global structural similarity index between two same-shaped arrays,
/// following Algorithm 12 (single-window SSIM over the whole array).
pub fn ssim(a: &NdArray<f64>, b: &NdArray<f64>, p: &SsimParams) -> f64 {
    let mu_a = mean(a);
    let mu_b = mean(b);
    let var_a = variance(a);
    let var_b = variance(b);
    let sd_a = var_a.sqrt();
    let sd_b = var_b.sqrt();
    let cov = covariance(a, b);
    let l = (2.0 * mu_a * mu_b + p.luminance_stabilizer)
        / (mu_a * mu_a + mu_b * mu_b + p.luminance_stabilizer);
    let c = (2.0 * sd_a * sd_b + p.contrast_stabilizer) / (var_a + var_b + p.contrast_stabilizer);
    let s = (cov + p.contrast_stabilizer / 2.0) / (sd_a * sd_b + p.contrast_stabilizer / 2.0);
    l.powf(p.luminance_weight) * c.powf(p.contrast_weight) * s.powf(p.structure_weight)
}

/// Softmax over all elements: `e^X / Σe^X`, computed with the usual
/// max-subtraction for numerical stability.
pub fn softmax(a: &[f64]) -> Vec<f64> {
    let max = a.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = a.iter().map(|&x| (x - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / total).collect()
}

/// Exact 1-D p-order Wasserstein distance between two equal-length
/// samples interpreted as distributions (Algorithm 13's uncompressed
/// counterpart): sorts both, then `(mean |diff|^p)^(1/p)`.
///
/// If either input does not sum to 1 (within `1e-9`), it is passed through
/// [`softmax`] first, as the paper does. The power sum is max-normalized so
/// large `p` (the paper sweeps up to 80) cannot underflow to zero unless
/// all differences are zero. A NaN in either input makes the distance
/// NaN. Panics unless `p ≥ 1`.
pub fn wasserstein_1d(a: &[f64], b: &[f64], p: f64) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    assert!(p >= 1.0, "order must be >= 1");
    let normalize = |xs: &[f64]| -> Vec<f64> {
        let s: f64 = xs.iter().sum();
        if (s - 1.0).abs() > 1e-9 {
            softmax(xs)
        } else {
            xs.to_vec()
        }
    };
    let mut pa = normalize(a);
    let mut pb = normalize(b);
    pa.sort_by(f64::total_cmp);
    pb.sort_by(f64::total_cmp);
    let diffs: Vec<f64> = pa.iter().zip(&pb).map(|(x, y)| (x - y).abs()).collect();
    // A NaN difference must survive the max, not be skipped by it.
    let dmax = diffs
        .iter()
        .fold(0.0, |m, &d| if d > m || d.is_nan() { d } else { m });
    if dmax == 0.0 {
        return 0.0;
    }
    // Factor out the largest difference to keep powers representable.
    let sum: f64 = diffs.iter().map(|&d| (d / dmax).powf(p)).sum();
    dmax * (sum / a.len() as f64).powf(1.0 / p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazr_util::rng::Xoshiro256pp;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform_in(-1.0, 1.0))
    }

    #[test]
    fn mean_and_variance_basic() {
        let a = NdArray::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(mean(&a), 2.5);
        assert_eq!(variance(&a), 1.25);
        assert_eq!(std_dev(&a), 1.25f64.sqrt());
    }

    #[test]
    fn covariance_of_self_is_variance() {
        let a = random_array(vec![7, 9], 1);
        assert!((covariance(&a, &a) - variance(&a)).abs() < 1e-12);
    }

    #[test]
    fn covariance_is_symmetric_and_bilinear() {
        let a = random_array(vec![50], 2);
        let b = random_array(vec![50], 3);
        assert!((covariance(&a, &b) - covariance(&b, &a)).abs() < 1e-12);
        let a2 = a.mul_scalar(3.0);
        assert!((covariance(&a2, &b) - 3.0 * covariance(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn dot_and_norm_agree() {
        let a = random_array(vec![100], 4);
        assert!((dot(&a, &a).sqrt() - norm_l2(&a)).abs() < 1e-12);
    }

    #[test]
    fn cosine_similarity_bounds() {
        let a = random_array(vec![64], 5);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
        let na = a.neg();
        assert!((cosine_similarity(&a, &na) + 1.0).abs() < 1e-12);
        let b = random_array(vec![64], 6);
        let c = cosine_similarity(&a, &b);
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn ssim_identity_is_one() {
        let a = random_array(vec![16, 16], 7).map(|x| (x + 1.0) / 2.0); // [0,1]
        let s = ssim(&a, &a, &SsimParams::default());
        assert!((s - 1.0).abs() < 1e-9, "ssim {s}");
    }

    #[test]
    fn ssim_detects_difference() {
        let a = random_array(vec![16, 16], 8).map(|x| (x + 1.0) / 2.0);
        let b = random_array(vec![16, 16], 9).map(|x| (x + 1.0) / 2.0);
        let s = ssim(&a, &b, &SsimParams::default());
        assert!(s < 0.9, "independent noise should score low, got {s}");
    }

    #[test]
    fn softmax_sums_to_one() {
        let xs = [1.0, -2.0, 0.5, 3.0];
        let p = softmax(&xs);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v > 0.0));
        // Monotone: bigger logit, bigger probability.
        assert!(p[3] > p[0] && p[0] > p[2] && p[2] > p[1]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let xs = [1000.0, 1001.0];
        let p = softmax(&xs);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0]);
    }

    #[test]
    fn wasserstein_identity_is_zero() {
        let a: Vec<f64> = (0..10).map(|i| (i as f64 + 1.0) / 55.0).collect();
        assert_eq!(wasserstein_1d(&a, &a, 2.0), 0.0);
    }

    #[test]
    fn wasserstein_symmetry() {
        let mut rng = Xoshiro256pp::seed_from_u64(10);
        let a: Vec<f64> = (0..32).map(|_| rng.uniform()).collect();
        let b: Vec<f64> = (0..32).map(|_| rng.uniform()).collect();
        let d1 = wasserstein_1d(&a, &b, 3.0);
        let d2 = wasserstein_1d(&b, &a, 3.0);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn wasserstein_high_order_does_not_underflow_to_zero() {
        let a = vec![0.25, 0.25, 0.25, 0.25];
        let b = vec![0.2501, 0.2499, 0.25, 0.25];
        // Direct powf would underflow (1e-4)^68 ≈ 1e-272 per term but the
        // max-normalized form keeps the result ≈ dmax.
        let d = wasserstein_1d(&a, &b, 68.0);
        assert!(d > 1e-6, "got {d}");
        assert!(d < 1e-3);
    }

    #[test]
    fn wasserstein_propagates_nan() {
        // A NaN block mean (f16 overflow upstream) must neither panic the
        // sort nor vanish from the max, at any length.
        assert!(wasserstein_1d(&[f64::NAN], &[0.5], 2.0).is_nan());
        assert!(wasserstein_1d(&[0.1, f64::NAN, 0.3], &[0.2, 0.4, 0.6], 2.0).is_nan());
        assert!(wasserstein_1d(&[0.2, 0.4], &[f64::NAN, f64::NAN], 1.0).is_nan());
    }

    #[test]
    fn wasserstein_orders_suppress_small_diffs() {
        // One big difference + many small ones: raising p should move the
        // distance toward the max difference.
        let n = 64;
        let base = vec![1.0 / n as f64; n];
        let mut pert = base.clone();
        pert[0] += 0.01;
        pert[1] -= 0.01;
        for i in 2..n {
            pert[i] += if i % 2 == 0 { 1e-6 } else { -1e-6 };
        }
        let d2 = wasserstein_1d(&base, &pert, 2.0);
        let d64 = wasserstein_1d(&base, &pert, 64.0);
        // Higher order weights the dominant diff more heavily relative to
        // the mean, so the max-normalized mean term grows toward dmax.
        assert!(d64 > d2);
    }

    #[test]
    fn norm_linf_is_max_abs() {
        let a = NdArray::from_vec(vec![3], vec![-5.0, 2.0, 4.0]);
        assert_eq!(norm_linf(&a), 5.0);
    }
}
