//! Per-array reduction partials and error-model bounds for cross-chunk
//! combining.
//!
//! A chunked store (many compressed arrays behind one index) needs each
//! chunk to contribute a small, *combinable* summary so that aggregates
//! over any chunk subset — sum, mean, variance, L2 — can be assembled
//! without decompressing anything. [`ChunkStats`] is that summary,
//! computed entirely in compressed space from the `{s, i, N, F}` form:
//!
//! * `sum` comes from the per-block DC coefficients (Algorithm 7,
//!   padding-corrected as in [`CompressedArray::mean_exact`]);
//! * `sum_sq` is `Σ Ĉ²` — orthonormality makes coefficient energy equal
//!   element energy (the identity behind Algorithm 10);
//! * `min_bound`/`max_bound` envelope every reconstructed element: within
//!   a block, `element − mean = Σ_{j≠DC} c_j·φ_j(x)`, and because the
//!   transform matrix is orthogonal its columns are unit vectors —
//!   `Σ_j φ_j(x)² = 1` at every position `x` — so Cauchy–Schwarz gives
//!   `|element − mean| ≤ √(Σ_{j≠DC} c_j²)` (the block's AC energy).
//!
//! [`ErrorBounds`] carries the paper's §IV-D binning error model alongside:
//! each stored coefficient is off by at most half a bin (`N_k/(2r)`), and
//! orthonormality turns those coefficient bounds into L∞/L2/mean bounds on
//! the decompressed elements. Both types combine associatively in chunk
//! order, which keeps multi-chunk results bit-identical at any thread
//! count (the PR-2 determinism contract).

use crate::{BinIndex, BlazError, CompressedArray};
use blazr_precision::Real;

/// Combinable compressed-space statistics of one array ("chunk").
///
/// All fields describe the *reconstruction* (the data the compressed form
/// actually stores); [`ErrorBounds`] relates them to the original data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Logical (unpadded) element count `Πs`.
    pub count: u64,
    /// Sum of the logical elements (padding-corrected, like
    /// [`CompressedArray::mean_exact`]).
    pub sum: f64,
    /// Sum of squared elements over the padded block grid (`Σ Ĉ²` by
    /// orthonormality). Padded positions reconstruct to (near) zero, so
    /// this matches the logical `Σx²` up to compression error.
    pub sum_sq: f64,
    /// Conservative lower bound on every reconstructed element.
    pub min_bound: f64,
    /// Conservative upper bound on every reconstructed element.
    pub max_bound: f64,
}

impl ChunkStats {
    /// The identity element: statistics of zero chunks.
    pub fn empty() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min_bound: f64::INFINITY,
            max_bound: f64::NEG_INFINITY,
        }
    }

    /// Folds another chunk's statistics into this one. Callers must apply
    /// merges in chunk order for bit-deterministic multi-chunk results.
    pub fn merge(&mut self, other: &ChunkStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min_bound = self.min_bound.min(other.min_bound);
        self.max_bound = self.max_bound.max(other.max_bound);
    }

    /// Mean of the covered elements (NaN for zero chunks).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }

    /// Population variance via `E[x²] − E[x]²` (NaN for zero chunks;
    /// clamped at zero against floating-point cancellation).
    pub fn variance(&self) -> f64 {
        let n = self.count as f64;
        let m = self.sum / n;
        (self.sum_sq / n - m * m).max(0.0)
    }

    /// L2 norm of the covered elements: `√Σx²`.
    pub fn l2_norm(&self) -> f64 {
        self.sum_sq.sqrt()
    }

    /// True if the value interval `[min_bound, max_bound]` (widened by
    /// `slack ≥ 0` on both sides) intersects `[lo, hi]`.
    pub fn value_range_overlaps(&self, lo: f64, hi: f64, slack: f64) -> bool {
        self.min_bound - slack <= hi && self.max_bound + slack >= lo
    }
}

/// The paper's §IV-D binning error model, per statistic.
///
/// Every stored coefficient is within half a bin width `N_k/(2r)` of the
/// true coefficient. With `k` kept coefficients per block this gives, per
/// block, a coefficient-error L∞ of `h_k = N_k/(2r)` and hence:
///
/// * element L∞: `|x̂ − x| ≤ Σ|Δc_j| ≤ k·h_k` (basis entries ≤ 1);
/// * whole-array L2: `‖x̂ − x‖₂ = ‖ΔĈ‖₂ ≤ √(Σ_blocks k·h_k²)`;
/// * mean: `|Δmean| ≤ ‖Δx‖₂/√n` (Cauchy–Schwarz), and also ≤ the L∞.
///
/// The model covers *binning* error only: pruned-away coefficients are not
/// recoverable from the compressed form, so with a pruning mask these
/// bounds understate the total error by the dropped coefficients'
/// magnitudes (measure those at compression time via
/// [`crate::compress_with_report`] if needed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBounds {
    /// Bound on any single element's reconstruction error.
    pub linf: f64,
    /// Bound on the L2 norm of the whole reconstruction error.
    pub l2: f64,
}

impl ErrorBounds {
    /// The identity element: exact (zero-error) data.
    pub fn exact() -> Self {
        Self { linf: 0.0, l2: 0.0 }
    }

    /// Folds another chunk's bounds into this one: element bounds take the
    /// max, L2 bounds add in quadrature (disjoint element sets).
    pub fn merge(&mut self, other: &ErrorBounds) {
        self.linf = self.linf.max(other.linf);
        self.l2 = (self.l2 * self.l2 + other.l2 * other.l2).sqrt();
    }

    /// Bound on the error of a mean over `count` elements:
    /// `min(linf, l2/√count)`.
    pub fn mean_bound(&self, count: u64) -> f64 {
        if count == 0 {
            return 0.0;
        }
        self.linf.min(self.l2 / (count as f64).sqrt())
    }

    /// Bound on the error of a sum over `count` elements:
    /// `l2·√count` (Cauchy–Schwarz), capped by `count·linf`.
    pub fn sum_bound(&self, count: u64) -> f64 {
        let n = count as f64;
        (self.l2 * n.sqrt()).min(n * self.linf)
    }
}

/// A block's value envelope `(mean − spread, mean + spread)` from its DC
/// coefficient and AC energy: `mean = DC/√(Πi)` and `spread = √(Σ_{j≠DC}
/// c_j²)` (Cauchy–Schwarz against the transform's unit column norms).
/// A block whose moments overflowed (an f16 block of 60000s) has a NaN
/// bound and may hold any value, so its envelope is `(−∞, +∞)`: it
/// widens every hull it joins and overlaps every range.
fn envelope(dc: f64, ac_energy: f64, dc_scale: f64) -> (f64, f64) {
    let (mean, spread) = (dc / dc_scale, ac_energy.sqrt());
    let (lo, hi) = (mean - spread, mean + spread);
    if lo.is_nan() || hi.is_nan() {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (lo, hi)
    }
}

impl<P: Real, I: BinIndex> CompressedArray<P, I> {
    /// Per-block value envelopes `(block_mean − spread, block_mean +
    /// spread)` with `spread = √(Σ_{j≠DC} c_j²)` (Cauchy–Schwarz against
    /// the transform's unit column norms), in block order. Every
    /// reconstructed element of block `kb` lies inside envelope `kb`.
    pub fn block_envelopes(&self) -> Result<Vec<(f64, f64)>, BlazError> {
        let dc_slot = self.dc_slot()?;
        let scale = self.settings.dc_scale();
        Ok((0..self.block_count())
            .map(|kb| {
                let (dc, _, ac_energy) = self.block_moments(kb, dc_slot);
                envelope(dc, ac_energy, scale)
            })
            .collect())
    }

    /// The combinable compressed-space statistics of this array: sums from
    /// the DC coefficients, energy from `Σ Ĉ²`, and the block-envelope
    /// hull. Requires the DC coefficient (like [`CompressedArray::mean`]).
    ///
    /// One sequential, allocation-free fold in block order, in `f64` so
    /// cross-chunk combining does not inherit narrow-precision
    /// accumulation error. It never starts a thread team, so the result
    /// is the same at any thread count; a store scan fans out across
    /// chunks instead.
    pub fn stats_partial(&self) -> Result<ChunkStats, BlazError> {
        let dc_slot = self.dc_slot()?;
        let scale = self.settings.dc_scale();
        let (mut dc_sum, mut sum_sq) = (0.0, 0.0);
        let (mut min_bound, mut max_bound) = (f64::INFINITY, f64::NEG_INFINITY);
        for kb in 0..self.block_count() {
            let (dc, energy, ac_energy) = self.block_moments(kb, dc_slot);
            let (lo, hi) = envelope(dc, ac_energy, scale);
            dc_sum += dc;
            sum_sq += energy;
            min_bound = min_bound.min(lo);
            max_bound = max_bound.max(hi);
        }
        Ok(ChunkStats {
            count: self.shape().iter().product::<usize>() as u64,
            sum: dc_sum * scale,
            sum_sq,
            min_bound,
            max_bound,
        })
    }

    /// Allocation-free zone test over the block envelopes: true if any
    /// envelope of [`CompressedArray::block_envelopes`], widened by
    /// `slack ≥ 0` on both sides, intersects `[lo, hi]`. Equivalent to
    /// collecting the envelopes and scanning them, but short-circuits on
    /// the first hit and allocates nothing.
    pub fn any_envelope_overlaps(&self, lo: f64, hi: f64, slack: f64) -> Result<bool, BlazError> {
        let dc_slot = self.dc_slot()?;
        let scale = self.settings.dc_scale();
        Ok((0..self.block_count()).any(|kb| {
            let (dc, _, ac_energy) = self.block_moments(kb, dc_slot);
            let (bl, bh) = envelope(dc, ac_energy, scale);
            bl - slack <= hi && bh + slack >= lo
        }))
    }

    /// The §IV-D binning error-model bounds for this array (see
    /// [`ErrorBounds`] for what is and is not covered).
    pub fn error_bounds(&self) -> ErrorBounds {
        let k = self.kept_per_block() as f64;
        let two_r = 2.0 * I::radius_f64();
        let mut linf = 0.0f64;
        let mut l2_sq = 0.0f64;
        for &n in self.biggest() {
            let hb = n.to_f64().abs() / two_r;
            linf = linf.max(k * hb);
            l2_sq += k * hb * hb;
        }
        ErrorBounds {
            linf,
            l2: l2_sq.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, PruningMask, Settings, TransformKind};
    use blazr_tensor::{reduce, NdArray};
    use blazr_util::rng::Xoshiro256pp;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform_in(-1.5, 1.5))
    }

    fn settings() -> Settings {
        Settings::new(vec![4, 4]).unwrap()
    }

    #[test]
    fn stats_match_direct_reductions() {
        let a = random_array(vec![16, 16], 1);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let s = c.stats_partial().unwrap();
        assert_eq!(s.count, 256);
        assert!((s.mean() - c.mean_exact().unwrap()).abs() < 1e-12);
        assert!((s.l2_norm() - c.l2_norm()).abs() < 1e-9);
        assert!((s.mean() - reduce::mean(&a)).abs() < 1e-3);
        assert!((s.variance() - reduce::variance(&a)).abs() < 5e-3);
    }

    #[test]
    fn envelope_contains_every_reconstructed_element() {
        for seed in 0..4 {
            let a = random_array(vec![18, 14], seed); // padded shape
            let c = compress::<f32, i16>(&a, &settings()).unwrap();
            let s = c.stats_partial().unwrap();
            let d = c.decompress();
            for &x in d.as_slice() {
                assert!(
                    s.min_bound <= x && x <= s.max_bound,
                    "{x} outside [{}, {}]",
                    s.min_bound,
                    s.max_bound
                );
            }
        }
    }

    #[test]
    fn block_envelopes_bracket_blocks() {
        let a = random_array(vec![8, 8], 7);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let envs = c.block_envelopes().unwrap();
        assert_eq!(envs.len(), 4);
        let d = c.decompress();
        // Block (0,0) covers rows 0..4 × cols 0..4.
        for i in 0..4 {
            for j in 0..4 {
                let x = d.get(&[i, j]);
                assert!(envs[0].0 <= x && x <= envs[0].1);
            }
        }
    }

    #[test]
    fn merge_equals_whole_array_stats() {
        // Two stacked halves vs the whole: sums and energy must agree.
        let top = random_array(vec![8, 16], 2);
        let bot = random_array(vec![8, 16], 3);
        let whole = NdArray::from_fn(vec![16, 16], |i| {
            if i[0] < 8 {
                top.get(&[i[0], i[1]])
            } else {
                bot.get(&[i[0] - 8, i[1]])
            }
        });
        let s = settings();
        let ct = compress::<f64, i16>(&top, &s).unwrap();
        let cb = compress::<f64, i16>(&bot, &s).unwrap();
        let cw = compress::<f64, i16>(&whole, &s).unwrap();
        let mut merged = ChunkStats::empty();
        merged.merge(&ct.stats_partial().unwrap());
        merged.merge(&cb.stats_partial().unwrap());
        let wstats = cw.stats_partial().unwrap();
        assert_eq!(merged.count, wstats.count);
        assert!((merged.sum - wstats.sum).abs() < 1e-9);
        assert!((merged.sum_sq - wstats.sum_sq).abs() < 1e-9);
        assert!((merged.variance() - reduce::variance(&whole)).abs() < 5e-3);
    }

    #[test]
    fn binning_bounds_cover_actual_error() {
        // With no pruning, the §IV-D model must dominate the measured
        // reconstruction error.
        for seed in 0..4 {
            let a = random_array(vec![16, 16], 10 + seed);
            let c = compress::<f64, i16>(&a, &settings()).unwrap();
            let b = c.error_bounds();
            let d = c.decompress();
            let mut err_l2 = 0.0;
            let mut err_linf = 0.0f64;
            for (x, y) in a.as_slice().iter().zip(d.as_slice()) {
                let e = (x - y).abs();
                err_linf = err_linf.max(e);
                err_l2 += e * e;
            }
            let err_l2 = err_l2.sqrt();
            assert!(err_linf <= b.linf + 1e-12, "{err_linf} > {}", b.linf);
            assert!(err_l2 <= b.l2 + 1e-12, "{err_l2} > {}", b.l2);
            assert!(
                (c.mean_exact().unwrap() - reduce::mean(&a)).abs() <= b.mean_bound(256) + 1e-12
            );
        }
    }

    #[test]
    fn bounds_merge_semantics() {
        let mut b = ErrorBounds { linf: 0.1, l2: 3.0 };
        b.merge(&ErrorBounds { linf: 0.2, l2: 4.0 });
        assert_eq!(b.linf, 0.2);
        assert!((b.l2 - 5.0).abs() < 1e-12);
        assert!(b.mean_bound(100) <= 0.2);
        assert_eq!(ErrorBounds::exact().mean_bound(10), 0.0);
        assert_eq!(ErrorBounds::exact().sum_bound(10), 0.0);
    }

    #[test]
    fn envelope_overlap_scan_matches_collected_envelopes() {
        let a = random_array(vec![20, 20], 40);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let envs = c.block_envelopes().unwrap();
        for (lo, hi, slack) in [
            (-0.5, 0.5, 0.0),
            (2.0, 3.0, 0.0),
            (2.0, 3.0, 1.5),
            (-10.0, -9.0, 0.0),
            (f64::NEG_INFINITY, f64::INFINITY, 0.0),
        ] {
            let collected = envs
                .iter()
                .any(|&(bl, bh)| bl - slack <= hi && bh + slack >= lo);
            assert_eq!(
                c.any_envelope_overlaps(lo, hi, slack).unwrap(),
                collected,
                "[{lo}, {hi}] slack {slack}"
            );
        }
    }

    #[test]
    fn an_overflowed_block_envelope_covers_everything() {
        // 60000 fits in f16, but an 8×8 block of it has a DC of 480000,
        // which does not: that block's moments overflow.
        let a = NdArray::from_fn(vec![8, 16], |i| if i[1] < 8 { 0.5 } else { 60000.0 });
        let c =
            compress::<blazr_precision::F16, i16>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        let envs = c.block_envelopes().unwrap();
        assert!(envs[0].0.is_finite() && envs[0].1.is_finite(), "{envs:?}");
        assert_eq!(envs[1], (f64::NEG_INFINITY, f64::INFINITY));
        let s = c.stats_partial().unwrap();
        assert_eq!((s.min_bound, s.max_bound), envs[1]);
        assert!(c.any_envelope_overlaps(1e9, 2e9, 0.0).unwrap());
        assert!(c.any_envelope_overlaps(-2e9, -1e9, 0.0).unwrap());
    }

    #[test]
    fn stats_require_dc() {
        let a = random_array(vec![8, 8], 5);
        let mut keep = vec![true; 16];
        keep[0] = false;
        let s = settings()
            .with_mask(PruningMask::from_keep(vec![4, 4], keep).unwrap())
            .unwrap();
        let c = compress::<f64, i16>(&a, &s).unwrap();
        assert!(c.stats_partial().is_err());
        assert!(c.any_envelope_overlaps(0.0, 1.0, 0.0).is_err());
        assert!(c.block_envelopes().is_err());
        let s2 = settings().with_transform(TransformKind::Identity);
        let c2 = compress::<f64, i16>(&a, &s2).unwrap();
        assert!(c2.stats_partial().is_err());
    }

    #[test]
    fn empty_stats_are_the_identity() {
        let a = random_array(vec![12, 12], 6);
        let c = compress::<f64, i16>(&a, &settings()).unwrap();
        let s = c.stats_partial().unwrap();
        let mut acc = ChunkStats::empty();
        acc.merge(&s);
        assert_eq!(acc, s);
        assert!(!ChunkStats::empty().value_range_overlaps(-1.0, 1.0, 0.0));
    }
}
