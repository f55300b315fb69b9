//! An SZ-style error-bounded compressor (Di & Cappello, IPDPS 2016;
//! Liang et al., CLUSTER 2018) for 1-D/2-D/3-D `f64` arrays.
//!
//! Each element is predicted with an order-1 Lorenzo predictor from its
//! already-*reconstructed* neighbors (so encoder and decoder drift
//! identically), and the residual is quantized with linear-scaling
//! quantization: `code = round(residual / (2ε))`, giving the hard
//! guarantee `|x − x̂| ≤ ε`. Codes that fit the quantization range are
//! canonical-Huffman coded; the rest are stored verbatim as IEEE doubles
//! ("outliers"). Unlike PyBlaz, the achieved ratio depends on the data —
//! which is the contrast §III draws.

use blazr_tensor::shape::{advance, ravel};
use blazr_tensor::NdArray;
use blazr_util::bits::{BitReader, BitWriter};
use blazr_util::huffman::Codebook;

/// Quantization code radius: codes span −32767..=32767; the symbol 0 is
/// reserved for outliers, so the alphabet has 65536 entries.
const CODE_RADIUS: i64 = 32767;
const OUTLIER: u32 = 0;
const ALPHABET: usize = 2 * CODE_RADIUS as usize + 2;

/// The SZ-style codec configured with an absolute error bound ε.
#[derive(Debug, Clone, Copy)]
pub struct Szoid {
    /// Point-wise absolute error bound.
    pub error_bound: f64,
}

/// Compression result with its size and outlier accounting.
#[derive(Debug, Clone)]
pub struct SzoidStats {
    /// Encoded size in bytes.
    pub compressed_bytes: usize,
    /// Achieved ratio vs FP64.
    pub ratio: f64,
    /// Fraction of elements stored as raw outliers.
    pub outlier_fraction: f64,
}

impl Szoid {
    /// Creates a codec with absolute error bound `error_bound` (> 0).
    pub fn new(error_bound: f64) -> Self {
        assert!(
            error_bound > 0.0 && error_bound.is_finite(),
            "error bound must be positive and finite"
        );
        Self { error_bound }
    }

    /// Compresses an array, returning the stream and accounting stats.
    pub fn compress(&self, input: &NdArray<f64>) -> (Vec<u8>, SzoidStats) {
        let d = input.ndim();
        assert!((1..=3).contains(&d), "szoid supports 1..=3 dimensions");
        let shape = input.shape().to_vec();
        let n = input.len();
        let eps2 = 2.0 * self.error_bound;

        // Pass 1: predict, quantize, collect codes and outliers, and build
        // the reconstruction the predictor chains on.
        let mut recon = vec![0.0f64; n];
        let mut codes = Vec::with_capacity(n);
        let mut outliers = Vec::new();
        let mut idx = vec![0usize; d];
        let src = input.as_slice();
        for (flat, &x) in src.iter().enumerate() {
            let pred = lorenzo_predict(&recon, &shape, &idx);
            let code = ((x - pred) / eps2).round();
            let q = if code.is_finite() && code.abs() <= CODE_RADIUS as f64 {
                code as i64
            } else {
                i64::MAX // force outlier
            };
            if q != i64::MAX {
                let xr = pred + q as f64 * eps2;
                if (x - xr).abs() <= self.error_bound {
                    recon[flat] = xr;
                    codes.push((q + CODE_RADIUS + 1) as u32); // 1..=65535
                    advance(&mut idx, &shape);
                    continue;
                }
            }
            recon[flat] = x;
            codes.push(OUTLIER);
            outliers.push(x);
            advance(&mut idx, &shape);
        }

        // Pass 2: entropy-code the quantization codes.
        let mut freqs = vec![0u64; ALPHABET];
        for &c in &codes {
            freqs[c as usize] += 1;
        }
        let book = Codebook::from_frequencies(&freqs);

        let mut w = BitWriter::new();
        w.write_bits(d as u64, 2);
        for &e in &shape {
            w.write_bits(e as u64, 64);
        }
        w.write_bits(self.error_bound.to_bits(), 64);
        // Codebook: count of coded symbols, then (symbol, length) pairs.
        let used: Vec<u32> = (0..ALPHABET as u32)
            .filter(|&s| book.lengths[s as usize] > 0)
            .collect();
        w.write_bits(used.len() as u64, 32);
        for &s in &used {
            w.write_bits(s as u64, 17);
            w.write_bits(book.lengths[s as usize] as u64, 6);
        }
        w.write_bits(outliers.len() as u64, 64);
        for &o in &outliers {
            w.write_bits(o.to_bits(), 64);
        }
        book.encode(&codes, &mut w);
        let bytes = w.into_bytes();
        let stats = SzoidStats {
            compressed_bytes: bytes.len(),
            ratio: (n * 8) as f64 / bytes.len() as f64,
            outlier_fraction: outliers.len() as f64 / n.max(1) as f64,
        };
        (bytes, stats)
    }

    /// Decompresses a stream produced by [`Szoid::compress`].
    pub fn decompress(bytes: &[u8]) -> Option<NdArray<f64>> {
        let mut r = BitReader::new(bytes);
        let d = r.read_bits(2)? as usize;
        if !(1..=3).contains(&d) {
            return None;
        }
        let mut shape = Vec::with_capacity(d);
        for _ in 0..d {
            shape.push(r.read_u64()? as usize);
        }
        // Untrusted header: overflow-checked element count, bounded, and
        // the stream must plausibly hold that many symbols (≥1 bit each).
        let n = blazr_tensor::shape::checked_num_elements(&shape)?;
        if n > (1usize << 34) || (n as u64) > (bytes.len() as u64) * 8 {
            return None;
        }
        let eps = f64::from_bits(r.read_u64()?);
        let eps2 = 2.0 * eps;
        let used_count = r.read_bits(32)? as usize;
        if used_count > ALPHABET {
            return None;
        }
        let mut lengths = vec![0u32; ALPHABET];
        for _ in 0..used_count {
            let sym = r.read_bits(17)? as usize;
            let len = r.read_bits(6)? as u32;
            if sym >= ALPHABET {
                return None;
            }
            lengths[sym] = len;
        }
        let book = Codebook::from_lengths(lengths);
        let outlier_count = r.read_u64()? as usize;
        if outlier_count > n {
            return None;
        }
        let mut outliers = Vec::with_capacity(outlier_count);
        for _ in 0..outlier_count {
            outliers.push(f64::from_bits(r.read_u64()?));
        }
        let codes = book.decode(&mut r, n)?;

        let mut recon = vec![0.0f64; n];
        let mut idx = vec![0usize; d];
        let mut next_outlier = 0usize;
        for (flat, &code) in codes.iter().enumerate() {
            if code == OUTLIER {
                if next_outlier >= outliers.len() {
                    return None;
                }
                recon[flat] = outliers[next_outlier];
                next_outlier += 1;
            } else {
                let q = code as i64 - CODE_RADIUS - 1;
                let pred = lorenzo_predict(&recon, &shape, &idx);
                recon[flat] = pred + q as f64 * eps2;
            }
            advance(&mut idx, &shape);
        }
        Some(NdArray::from_vec(shape, recon))
    }
}

/// Order-1 Lorenzo prediction from already-reconstructed neighbors, by
/// inclusion–exclusion over the corner hyper-box (neighbors with any index
/// before the current one in each dimension; out-of-range neighbors are 0).
fn lorenzo_predict(recon: &[f64], shape: &[usize], idx: &[usize]) -> f64 {
    let d = shape.len();
    let mut pred = 0.0;
    // Iterate over non-empty subsets of dimensions to offset by −1.
    for subset in 1u32..(1 << d) {
        let mut neighbor = [0usize; 3];
        let mut ok = true;
        for (k, nb) in neighbor.iter_mut().enumerate().take(d) {
            if subset & (1 << k) != 0 {
                if idx[k] == 0 {
                    ok = false;
                    break;
                }
                *nb = idx[k] - 1;
            } else {
                *nb = idx[k];
            }
        }
        if !ok {
            continue;
        }
        let sign = if subset.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        pred += sign * recon[ravel(&neighbor[..d], shape)];
    }
    pred
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazr_util::rng::Xoshiro256pp;

    fn smooth_3d(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let (a, b, c) = (rng.uniform(), rng.uniform(), rng.uniform());
        NdArray::from_fn(shape, |i| {
            let x = i[0] as f64 * 0.2 + a;
            let y = i.get(1).map_or(0.0, |&v| v as f64 * 0.15) + b;
            let z = i.get(2).map_or(0.0, |&v| v as f64 * 0.1) + c;
            x.sin() + y.cos() + (z * 0.5).sin()
        })
    }

    fn check_bound(orig: &NdArray<f64>, eps: f64) -> SzoidStats {
        let codec = Szoid::new(eps);
        let (bytes, stats) = codec.compress(orig);
        let back = Szoid::decompress(&bytes).expect("valid stream");
        assert_eq!(back.shape(), orig.shape());
        for (i, (&x, &y)) in orig.as_slice().iter().zip(back.as_slice()).enumerate() {
            assert!(
                (x - y).abs() <= eps * (1.0 + 1e-12),
                "element {i}: |{x} − {y}| > {eps}"
            );
        }
        stats
    }

    #[test]
    fn error_bound_is_guaranteed_smooth() {
        for eps in [1e-1, 1e-3, 1e-6] {
            check_bound(&smooth_3d(vec![12, 10, 8], 1), eps);
        }
    }

    #[test]
    fn error_bound_is_guaranteed_noise() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let a = NdArray::from_fn(vec![40, 40], |_| rng.uniform_in(-100.0, 100.0));
        check_bound(&a, 0.5);
    }

    #[test]
    fn smooth_data_compresses_well() {
        let stats = check_bound(&smooth_3d(vec![32, 32, 16], 3), 1e-3);
        assert!(stats.ratio > 8.0, "ratio {}", stats.ratio);
        assert!(stats.outlier_fraction < 0.01);
    }

    #[test]
    fn looser_bound_gives_higher_ratio() {
        let a = smooth_3d(vec![24, 24, 12], 4);
        let loose = Szoid::new(1e-2).compress(&a).1.ratio;
        let tight = Szoid::new(1e-5).compress(&a).1.ratio;
        assert!(loose > tight, "loose {loose} should beat tight {tight}");
    }

    #[test]
    fn ratio_depends_on_data_unlike_pyblaz() {
        // The §III contrast: SZ's ratio is data-dependent.
        let smooth = smooth_3d(vec![32, 32], 5);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let noisy = NdArray::from_fn(vec![32, 32], |_| rng.uniform_in(-1.0, 1.0));
        let rs = Szoid::new(1e-4).compress(&smooth).1.ratio;
        let rn = Szoid::new(1e-4).compress(&noisy).1.ratio;
        assert!(rs > rn, "smooth {rs} vs noisy {rn}");
    }

    #[test]
    fn constants_compress_extremely_well() {
        // Huffman floors at 1 bit/symbol, so the ceiling is ~64× minus
        // header; anything above 50 means prediction hit every element.
        let a = NdArray::full(vec![64, 64], 3.25f64);
        let stats = check_bound(&a, 1e-9);
        assert!(stats.ratio > 50.0, "ratio {}", stats.ratio);
    }

    #[test]
    fn huge_values_become_outliers_but_stay_exact() {
        let mut a = smooth_3d(vec![10, 10], 7);
        a.set(&[3, 3], 1e250);
        a.set(&[7, 2], -1e250);
        let stats = check_bound(&a, 1e-3);
        assert!(stats.outlier_fraction > 0.0);
    }

    #[test]
    fn one_dimensional_roundtrip() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut acc = 0.0;
        let a = NdArray::from_fn(vec![500], |_| {
            acc += rng.uniform_in(-0.1, 0.1);
            acc
        });
        check_bound(&a, 1e-4);
    }

    #[test]
    fn truncated_stream_fails_cleanly() {
        let a = smooth_3d(vec![16, 16], 9);
        let (bytes, _) = Szoid::new(1e-3).compress(&a);
        assert!(Szoid::decompress(&bytes[..10]).is_none());
    }

    #[test]
    fn lorenzo_predicts_linear_fields_exactly() {
        // A bilinear field is exactly predicted by the order-1 Lorenzo
        // predictor away from the boundary.
        let shape = vec![8, 8];
        let a = NdArray::from_fn(shape.clone(), |i| 2.0 * i[0] as f64 + 3.0 * i[1] as f64);
        let recon: Vec<f64> = a.as_slice().to_vec();
        for r in 1..8 {
            for c in 1..8 {
                let p = lorenzo_predict(&recon, &shape, &[r, c]);
                assert!((p - a.get(&[r, c])).abs() < 1e-12);
            }
        }
    }
}
