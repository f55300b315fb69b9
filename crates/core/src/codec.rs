//! Compression: the five-step pipeline of paper §III-A.

use crate::report::CompressionReport;
use crate::{BinIndex, BlazError, CompressedArray, Settings};
use blazr_precision::Real;
use blazr_telemetry as tel;
use blazr_tensor::blocking::gather_block;
use blazr_tensor::shape::{ceil_div, num_elements};
use blazr_tensor::NdArray;
use blazr_transform::BlockTransform;
use rayon::prelude::*;

/// Compresses `input` with the given settings, choosing the internal
/// float format `P` and bin index type `I` at the type level.
///
/// ```
/// use blazr::{compress, Settings};
/// use blazr_tensor::NdArray;
/// let a = NdArray::from_fn(vec![16, 16], |i| (i[0] as f64).sin() + i[1] as f64 / 16.0);
/// let c = compress::<f32, i8>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
/// assert_eq!(c.shape(), &[16, 16]);
/// ```
pub fn compress<P: Real, I: BinIndex>(
    input: &NdArray<f64>,
    settings: &Settings,
) -> Result<CompressedArray<P, I>, BlazError> {
    compress_impl(input, settings, false).map(|(c, _)| c)
}

/// Like [`compress`], but also returns a [`CompressionReport`] with the
/// actual per-block coefficient errors and the §IV-D error bounds.
pub fn compress_with_report<P: Real, I: BinIndex>(
    input: &NdArray<f64>,
    settings: &Settings,
) -> Result<(CompressedArray<P, I>, CompressionReport), BlazError> {
    compress_impl(input, settings, true).map(|(c, r)| (c, r.expect("report requested")))
}

/// Compresses an array already expressed in the working precision `P`,
/// skipping the data-type-conversion step.
///
/// This is how differentiation through the codec works: instantiate with
/// `P =` [`blazr_precision::Dual`] and seed derivative directions in the
/// input; every compressed-space operation then propagates the tangent
/// (see `tests/differentiability.rs`). For ordinary numeric types this is
/// also useful when the data is already in `P`.
pub fn compress_values<P: Real, I: BinIndex>(
    input: &NdArray<P>,
    settings: &Settings,
) -> Result<CompressedArray<P, I>, BlazError> {
    compress_fused(input, input.shape().to_vec(), settings)
}

fn compress_impl<P: Real, I: BinIndex>(
    input: &NdArray<f64>,
    settings: &Settings,
    want_report: bool,
) -> Result<(CompressedArray<P, I>, Option<CompressionReport>), BlazError> {
    // Step (a): data type conversion to the working precision.
    let mut sw = tel::Stopwatch::start();
    let converted: NdArray<P> = input.convert();
    sw.lap(tel::histogram!("codec.compress.convert"));
    let compressed = compress_fused(&converted, input.shape().to_vec(), settings)?;
    let report = want_report.then(|| build_report(input, &converted, &compressed));
    Ok((compressed, report))
}

/// Steps (b)–(e) fused into one pass over blocks: gather each block into
/// thread-local scratch, transform it there, and bin straight into the
/// output `biggest`/`indices` slices — no `n_blocks × block_len`
/// coefficient buffer is ever materialized.
///
/// Per-block work is independent and writes disjoint output slices, and
/// every block's arithmetic matches the staged formula (partition →
/// forward → bin) operation for operation, so the result is
/// bit-identical to it at any thread count (`tests/fused_pipeline.rs`
/// keeps the staged formula as its oracle).
fn compress_fused<P: Real, I: BinIndex>(
    converted: &NdArray<P>,
    shape: Vec<usize>,
    settings: &Settings,
) -> Result<CompressedArray<P, I>, BlazError> {
    settings.validate_for_ndim(converted.ndim())?;
    let _span = tel::span!("codec.compress");

    let bt = BlockTransform::<P>::new(settings.transform, &settings.block_shape);
    let block_len = bt.block_len().max(1);
    let kept = settings.mask.kept_positions();
    let k = kept.len();
    let num_blocks = ceil_div(&shape, &settings.block_shape);
    let n_blocks = num_elements(&num_blocks);
    tel::count!("codec.compress.blocks", n_blocks as u64);
    let mut biggest = vec![P::zero(); n_blocks];
    let mut indices = vec![I::from_i64(0); n_blocks * k];

    let src = converted.as_slice();
    let s = converted.shape();
    let bs = &settings.block_shape;
    // `None` takes `bin_block`'s full-mask path.
    let kept = (k != block_len).then_some(kept);
    // Cover a few thousand elements per piece before fanning out, like
    // `Blocked::partition`.
    let min_blocks = (2048 / block_len).max(1);
    biggest
        .par_iter_mut()
        .zip(indices.par_chunks_mut(k))
        .enumerate()
        .with_min_len(min_blocks)
        .for_each_init(
            || (vec![P::zero(); block_len], vec![P::zero(); block_len]),
            |(block, scratch), (kb, (n_out, idx_out))| {
                let mut sw = tel::Stopwatch::start();
                gather_block(src, s, &num_blocks, bs, kb, block);
                sw.lap(tel::histogram!("codec.compress.gather"));
                bt.forward(block, scratch);
                sw.lap(tel::histogram!("codec.compress.transform"));
                *n_out = bin_block::<P, I>(block, kept, idx_out);
                sw.lap(tel::histogram!("codec.compress.bin"));
            },
        );

    Ok(CompressedArray {
        shape,
        settings: settings.clone(),
        biggest,
        indices,
    })
}

/// Steps (d)+(e) for one block of coefficients: computes `N = ‖C‖∞` over
/// the whole block (binning precedes pruning) and bins the coefficients
/// at `kept` positions (`None`: every position, in order) into
/// `idx_out`. Compression and the rebinning operations (Algorithms 2
/// and 4) all bin through here.
///
/// With every position kept, the block is divided by `N` in place in its
/// own pass so the divisions vectorize — IEEE division is correctly
/// rounded in both scalar and SIMD form, so the emitted bins are
/// unchanged — which leaves `block` holding the ratios.
#[inline]
pub(crate) fn bin_block<P: Real, I: BinIndex>(
    block: &mut [P],
    kept: Option<&[usize]>,
    idx_out: &mut [I],
) -> P {
    let mut n = P::zero();
    for &c in block.iter() {
        n = n.max_val(c.abs());
    }
    if n == P::zero() {
        // All ratios would bin to the center; skip the per-coefficient
        // zero test and division entirely (`I::bin(0.0)` is exactly 0).
        idx_out.fill(I::from_i64(0));
    } else if let Some(kept) = kept {
        for (v, &pos) in idx_out.iter_mut().zip(kept) {
            *v = I::bin((block[pos] / n).to_f64());
        }
    } else {
        for c in block.iter_mut() {
            *c = *c / n;
        }
        for (v, &q) in idx_out.iter_mut().zip(block.iter()) {
            *v = I::bin(q.to_f64());
        }
    }
    n
}

/// Measures actual coefficient errors (binning + pruning) and evaluates
/// the §IV-D bounds. Each block's exact coefficients are rebuilt in
/// per-thread scratch by the same gather and forward transform the fused
/// pass ran, so they are bit-identical to the ones it binned.
fn build_report<P: Real, I: BinIndex>(
    input: &NdArray<f64>,
    converted: &NdArray<P>,
    compressed: &CompressedArray<P, I>,
) -> CompressionReport {
    let settings = &compressed.settings;
    let mask = &settings.mask;
    let block_len = settings.block_len();
    let n_blocks = compressed.block_count();
    let r = I::radius_f64();
    let bt = BlockTransform::<P>::new(settings.transform, &settings.block_shape);
    let scratch_len = bt.block_len().max(1);
    let num_blocks = ceil_div(&compressed.shape, &settings.block_shape);
    let (src, s, bs) = (
        converted.as_slice(),
        converted.shape(),
        &settings.block_shape,
    );

    let mut per_block_l2 = vec![0.0f64; n_blocks];
    let mut per_block_linf = vec![0.0f64; n_blocks];
    let mut binning_bound = vec![0.0f64; n_blocks];
    let mut paper_binning_bound = vec![0.0f64; n_blocks];
    let mut loose_linf_bound = vec![0.0f64; n_blocks];
    let mut abs_bound = vec![0.0f64; n_blocks];

    per_block_l2
        .par_iter_mut()
        .zip(per_block_linf.par_iter_mut())
        .zip(binning_bound.par_iter_mut())
        .zip(paper_binning_bound.par_iter_mut())
        .zip(loose_linf_bound.par_iter_mut())
        .zip(abs_bound.par_iter_mut())
        .enumerate()
        .for_each_init(
            || (vec![P::zero(); scratch_len], vec![P::zero(); scratch_len]),
            |(block, scratch), (kb, (((((l2, linf), bb), pbb), loose), ab))| {
                gather_block(src, s, &num_blocks, bs, kb, block);
                bt.forward(block, scratch);
                let n = compressed.biggest[kb].to_f64();
                let mut sum_sq = 0.0f64;
                let mut max_abs = 0.0f64;
                let mut sum_abs = 0.0f64;
                let mut slot = 0usize;
                for (pos, &c) in block.iter().enumerate() {
                    let c = c.to_f64();
                    let reconstructed = if mask.is_kept(pos) {
                        let v = compressed.coeff(kb, slot).to_f64();
                        slot += 1;
                        v
                    } else {
                        0.0
                    };
                    let e = (c - reconstructed).abs();
                    sum_sq += e * e;
                    max_abs = max_abs.max(e);
                    sum_abs += e;
                }
                *l2 = sum_sq.sqrt();
                *linf = max_abs;
                // §IV-D bounds. Our binning convention (round(r·c/N)) gives a
                // half-step of N/(2r); the paper's 2r+1-bin statement is
                // N/(2r+1). Both are reported.
                *bb = n / (2.0 * r);
                *pbb = n / (2.0 * r + 1.0);
                *loose = n.abs() * block_len as f64;
                // Sum of per-coefficient error magnitudes: a valid (tighter
                // than the paper's loose) L∞ bound on any decompressed element
                // since basis entries have magnitude ≤ 1.
                *ab = sum_abs;
            },
        );

    let total_l2 = per_block_l2.iter().map(|e| e * e).sum::<f64>().sqrt();

    // Data-type conversion error (step (a)), reported separately as the
    // paper excludes it from the coefficient-error analysis.
    let dtype_max_err = input
        .as_slice()
        .iter()
        .zip(converted.as_slice())
        .map(|(&x, &c)| (x - c.to_f64()).abs())
        .fold(0.0f64, f64::max);

    CompressionReport {
        per_block_coeff_l2: per_block_l2,
        per_block_coeff_linf: per_block_linf,
        binning_bound_per_block: binning_bound,
        paper_binning_bound_per_block: paper_binning_bound,
        paper_loose_linf_bound_per_block: loose_linf_bound,
        abs_sum_linf_bound_per_block: abs_bound,
        total_coeff_l2: total_l2,
        dtype_max_err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PruningMask;
    use blazr_util::rng::Xoshiro256pp;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform_in(-1.0, 1.0))
    }

    #[test]
    fn roundtrip_error_small_for_f64_i16() {
        let a = random_array(vec![16, 16], 1);
        let c = compress::<f64, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        let d = c.decompress();
        let max_err = a
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        // 16-bit bins on coefficients of magnitude ≲ 4 ⇒ error ≲ 4/65534·16.
        assert!(max_err < 2e-3, "max err {max_err}");
        assert!(max_err > 0.0, "lossy codec should not be exact");
    }

    #[test]
    fn roundtrip_exact_for_constant_blocks() {
        // A constant array has only DC energy; with the DC kept and N = DC,
        // the ratio c/N is exactly ±1 and binning is exact.
        let a = NdArray::full(vec![8, 8], 0.5f64);
        let c = compress::<f64, i8>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        let d = c.decompress();
        for (&x, &y) in a.as_slice().iter().zip(d.as_slice()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn index_width_orders_error() {
        let a = random_array(vec![32, 32], 2);
        let s = Settings::new(vec![8, 8]).unwrap();
        let e8 = {
            let c = compress::<f64, i8>(&a, &s).unwrap();
            let d = c.decompress();
            blazr_util::stats::rms_diff(a.as_slice(), d.as_slice())
        };
        let e16 = {
            let c = compress::<f64, i16>(&a, &s).unwrap();
            let d = c.decompress();
            blazr_util::stats::rms_diff(a.as_slice(), d.as_slice())
        };
        assert!(e16 < e8, "int16 ({e16}) should beat int8 ({e8})");
    }

    #[test]
    fn float_precision_orders_error() {
        let a = random_array(vec![32, 32], 3);
        let s = Settings::new(vec![8, 8]).unwrap();
        let rms = |d: &NdArray<f64>| blazr_util::stats::rms_diff(a.as_slice(), d.as_slice());
        let e64 = rms(&compress::<f64, i16>(&a, &s).unwrap().decompress());
        let e32 = rms(&compress::<f32, i16>(&a, &s).unwrap().decompress());
        let e16 = rms(&compress::<crate::F16, i16>(&a, &s).unwrap().decompress());
        let ebf = rms(&compress::<crate::BF16, i16>(&a, &s).unwrap().decompress());
        assert!(e64 <= e32 * 1.5);
        assert!(e32 < e16, "f32 {e32} vs f16 {e16}");
        assert!(e16 < ebf, "f16 {e16} vs bf16 {ebf}");
    }

    #[test]
    fn pruning_discards_high_frequencies() {
        let a = random_array(vec![16, 16], 4);
        let full = Settings::new(vec![4, 4]).unwrap();
        let pruned = Settings::new(vec![4, 4])
            .unwrap()
            .with_mask(PruningMask::keep_low_frequency_box(&[4, 4], &[2, 2]).unwrap())
            .unwrap();
        let e_full = {
            let d = compress::<f64, i16>(&a, &full).unwrap().decompress();
            blazr_util::stats::rms_diff(a.as_slice(), d.as_slice())
        };
        let e_pruned = {
            let d = compress::<f64, i16>(&a, &pruned).unwrap().decompress();
            blazr_util::stats::rms_diff(a.as_slice(), d.as_slice())
        };
        assert!(e_pruned > e_full * 5.0, "pruned {e_pruned} full {e_full}");
    }

    #[test]
    fn padding_shapes_roundtrip() {
        for shape in [vec![5], vec![7, 3], vec![3, 5, 6], vec![9, 2, 4]] {
            let bs: Vec<usize> = shape.iter().map(|_| 4).collect();
            let a = random_array(shape.clone(), 5);
            let c = compress::<f64, i32>(&a, &Settings::new(bs).unwrap()).unwrap();
            let d = c.decompress();
            assert_eq!(d.shape(), a.shape());
            let err = blazr_util::stats::max_abs_diff(a.as_slice(), d.as_slice());
            assert!(err < 1e-6, "shape {shape:?} err {err}");
        }
    }

    #[test]
    fn zero_array_compresses_to_zeros() {
        let a = NdArray::<f64>::zeros(vec![8, 8]);
        let c = compress::<f32, i8>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        assert!(c.biggest().iter().all(|&n| n.to_f64() == 0.0));
        let d = c.decompress();
        assert!(d.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let a = random_array(vec![8, 8], 6);
        let s = Settings::new(vec![4, 4, 4]).unwrap();
        assert!(compress::<f64, i8>(&a, &s).is_err());
    }

    #[test]
    fn f16_overflow_produces_nan_or_inf_blocks() {
        // Values near the f16 max overflow during the transform
        // (coefficients scale by √Πi), reproducing the paper's observation
        // that f16 hits NaNs where bf16 does not.
        let a = NdArray::full(vec![8, 8], 60000.0f64);
        let c = compress::<crate::F16, i16>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        let d = c.decompress();
        assert!(
            d.as_slice().iter().any(|x| !x.is_finite()),
            "expected overflow artifacts"
        );
        let cb = compress::<crate::BF16, i16>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        let db = cb.decompress();
        assert!(
            db.as_slice().iter().all(|x| x.is_finite()),
            "bf16 range should absorb this"
        );
    }

    #[test]
    fn report_bounds_hold() {
        let a = random_array(vec![24, 24], 7);
        let s = Settings::new(vec![8, 8]).unwrap();
        let (c, report) = compress_with_report::<f64, i8>(&a, &s).unwrap();
        let d = c.decompress();
        // Whole-array L2 error equals the L2 norm of coefficient errors
        // (orthonormal transform), up to padding (none here) and fp noise.
        let l2_actual: f64 = a
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(
            (l2_actual - report.total_coeff_l2).abs() < 1e-9 * (1.0 + l2_actual),
            "actual {l2_actual} vs reported {}",
            report.total_coeff_l2
        );
        // Binning-only max coefficient error per block respects N/(2r).
        for (kb, &linf) in report.per_block_coeff_linf.iter().enumerate() {
            // No pruning ⇒ all coefficient error comes from binning; allow
            // fp slop on the half-bin bound.
            assert!(
                linf <= report.binning_bound_per_block[kb] * (1.0 + 1e-9) + 1e-15,
                "block {kb}: {linf} vs bound {}",
                report.binning_bound_per_block[kb]
            );
        }
        assert_eq!(report.dtype_max_err, 0.0); // f64 → f64 conversion is exact
    }

    #[test]
    fn report_linf_bound_holds_on_decompressed_elements() {
        let a = random_array(vec![16, 16], 8);
        let s = Settings::new(vec![4, 4]).unwrap();
        let (c, report) = compress_with_report::<f64, i8>(&a, &s).unwrap();
        let d = c.decompress();
        let global_abs_bound = report
            .abs_sum_linf_bound_per_block
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        let max_err = blazr_util::stats::max_abs_diff(a.as_slice(), d.as_slice());
        assert!(
            max_err <= global_abs_bound * (1.0 + 1e-9),
            "err {max_err} bound {global_abs_bound}"
        );
    }

    #[test]
    fn num_elements_consistency() {
        let a = random_array(vec![10, 6], 9);
        let c = compress::<f32, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        assert_eq!(c.block_count(), 3 * 2);
        assert_eq!(c.indices().len(), 6 * 16);
        assert_eq!(c.biggest().len(), 6);
        assert_eq!(blazr_tensor::shape::num_elements(c.shape()), 60);
    }
}
