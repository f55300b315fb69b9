//! Separable n-dimensional block transforms.
//!
//! Applies a 1-D orthonormal basis along every axis of a block — the
//! Einstein-summation contraction of the paper's §VI-A:
//! `C[γδ…] = B[αβ…]·H1[αγ]·H2[βδ]·…` — in the precision `P` the codec was
//! configured with, so low-precision settings accumulate genuine
//! low-precision rounding.

use crate::{Matrix, TransformKind};
use blazr_precision::Real;

/// A reusable separable transform for one block shape.
///
/// Construction builds (and rounds into `P`) one basis matrix per axis and
/// compiles each into a pair of `AxisKernel` plans — output-major weight
/// layouts plus nonzero-index lists for sparse bases — so the per-block
/// hot path is pure slice arithmetic with no index math or weight-zero
/// branches. [`BlockTransform::forward`] and [`BlockTransform::inverse`]
/// operate in place on block-length slices using a caller-provided scratch
/// buffer; nothing allocates per block.
///
/// The kernels accumulate each output coefficient over source index `from`
/// in ascending order, starting from zero and skipping exactly the weights
/// equal to zero — the same floating-point operation sequence as the naive
/// triple loop — so results are bit-identical to the reference contraction
/// in any precision `P` and at any thread count.
#[derive(Debug, Clone)]
pub struct BlockTransform<P> {
    shape: Vec<usize>,
    axes: Vec<AxisKernel<P>>,
    block_len: usize,
}

/// Per-axis kernel plan: geometry plus one compiled weight layout per
/// direction.
#[derive(Debug, Clone)]
struct AxisKernel<P> {
    n: usize,
    /// Product of extents before this axis.
    outer: usize,
    /// Product of extents after this axis (1 ⇒ the contiguous last axis).
    inner: usize,
    fwd: DirKernel<P>,
    inv: DirKernel<P>,
}

/// One direction of a 1-D contraction with a precompiled weight layout.
///
/// Both variants start every output at zero and accumulate its terms over
/// the source index `from` in ascending order, adding exactly the nonzero
/// weights — the same floating-point operation sequence as the naive
/// triple loop, so results are bit-identical to it. For sparse bases
/// (Haar, identity) the zero-weight terms are compiled out into CSR-style
/// nonzero lists instead of being branch-skipped per element; `dense`
/// marks matrices with no zero entries at all (DCT, Walsh–Hadamard),
/// which take a list-free path.
#[derive(Debug, Clone)]
struct DirKernel<P> {
    /// Row-major weights; which index is row-contiguous depends on the
    /// variant ([`DirKernel::compile_output_major`] vs
    /// [`DirKernel::compile_source_major`]).
    weights: Vec<P>,
    dense: bool,
    /// CSR layout over `weights`' major index: row `r`'s nonzero minor
    /// indices (ascending) and weights sit at
    /// `nz_idx/nz_w[nz_starts[r]..nz_starts[r + 1]]`.
    nz_starts: Vec<u32>,
    nz_idx: Vec<u32>,
    nz_w: Vec<P>,
}

impl<P: Real> DirKernel<P> {
    /// Compiles weights with major index `r` and minor index `c` mapped
    /// through `w(r, c)`.
    fn compile(n: usize, w: impl Fn(usize, usize) -> P) -> Self {
        let mut weights = Vec::with_capacity(n * n);
        let mut nz_starts = Vec::with_capacity(n + 1);
        let mut nz_idx = Vec::new();
        let mut nz_w = Vec::new();
        nz_starts.push(0u32);
        for r in 0..n {
            for c in 0..n {
                let v = w(r, c);
                weights.push(v);
                // Exactly the reference loop's skip test, so the compiled
                // nonzero set matches the terms the naive kernel adds.
                if v != P::zero() {
                    nz_idx.push(c as u32);
                    nz_w.push(v);
                }
            }
            nz_starts.push(nz_idx.len() as u32);
        }
        let dense = nz_idx.len() == n * n;
        Self {
            weights,
            dense,
            nz_starts,
            nz_idx,
            nz_w,
        }
    }

    /// Output-major layout for interior axes (`inner > 1`):
    /// `weights[to * n + from]`, CSR rows keyed by `to` listing `from`.
    fn compile_output_major(n: usize, w: impl Fn(usize, usize) -> P) -> Self {
        Self::compile(n, w)
    }

    /// Source-major layout for the last axis (`inner == 1`):
    /// `weights[from * n + to]`, CSR rows keyed by `from` listing `to`.
    fn compile_source_major(n: usize, w: impl Fn(usize, usize) -> P) -> Self {
        Self::compile(n, |from, to| w(to, from))
    }

    /// Interior-axis kernel (`inner > 1`), on an output-major compile:
    /// each output row of `inner` lanes is zeroed once and accumulated
    /// from its source rows with `copy`-free row-slice arithmetic, so the
    /// row stays in registers across the `from` loop.
    fn contract_rows(&self, src: &[P], dst: &mut [P], n: usize, outer: usize, inner: usize) {
        for o in 0..outer {
            let base = o * n * inner;
            let panel = &src[base..base + n * inner];
            for to in 0..n {
                let dst_row = &mut dst[base + to * inner..base + (to + 1) * inner];
                dst_row.fill(P::zero());
                if self.dense {
                    let wrow = &self.weights[to * n..(to + 1) * n];
                    for (from, &w) in wrow.iter().enumerate() {
                        let src_row = &panel[from * inner..(from + 1) * inner];
                        for (dv, &sv) in dst_row.iter_mut().zip(src_row) {
                            *dv = *dv + sv * w;
                        }
                    }
                } else {
                    let (lo, hi) = (self.nz_starts[to] as usize, self.nz_starts[to + 1] as usize);
                    for (&from, &w) in self.nz_idx[lo..hi].iter().zip(&self.nz_w[lo..hi]) {
                        let from = from as usize;
                        let src_row = &panel[from * inner..(from + 1) * inner];
                        for (dv, &sv) in dst_row.iter_mut().zip(src_row) {
                            *dv = *dv + sv * w;
                        }
                    }
                }
            }
        }
    }

    /// Last-axis mat-vec kernel (`inner == 1`), on a source-major compile:
    /// the whole `n`-coefficient output vector accumulates at once — one
    /// axpy of a contiguous weight row per source lane — so every output
    /// coefficient advances through the same ascending-`from` sum the
    /// reference computes, in vector-friendly unit-stride steps.
    fn contract_axpy(&self, src: &[P], dst: &mut [P], n: usize, outer: usize) {
        for o in 0..outer {
            let sv = &src[o * n..(o + 1) * n];
            let dv = &mut dst[o * n..(o + 1) * n];
            dv.fill(P::zero());
            if self.dense {
                for (from, &s) in sv.iter().enumerate() {
                    let wrow = &self.weights[from * n..(from + 1) * n];
                    for (d, &w) in dv.iter_mut().zip(wrow) {
                        *d = *d + s * w;
                    }
                }
            } else {
                for (from, &s) in sv.iter().enumerate() {
                    let (lo, hi) = (
                        self.nz_starts[from] as usize,
                        self.nz_starts[from + 1] as usize,
                    );
                    for (&to, &w) in self.nz_idx[lo..hi].iter().zip(&self.nz_w[lo..hi]) {
                        dv[to as usize] = dv[to as usize] + s * w;
                    }
                }
            }
        }
    }
}

impl<P: Real> BlockTransform<P> {
    /// Builds and compiles the per-axis kernel plans for `kind` over
    /// `block_shape`.
    pub fn new(kind: TransformKind, block_shape: &[usize]) -> Self {
        let d = block_shape.len();
        let mut axes = Vec::with_capacity(d);
        for (axis, &n) in block_shape.iter().enumerate() {
            let mat: Matrix<P> = kind.matrix(n);
            let inner: usize = block_shape[axis + 1..].iter().product();
            // Forward contracts data against basis columns
            // (`c_to = Σ_from b_from · H[from][to]`), inverse against rows.
            let (fwd, inv) = if inner == 1 {
                (
                    DirKernel::compile_source_major(n, |to, from| mat.entry(from, to)),
                    DirKernel::compile_source_major(n, |to, from| mat.entry(to, from)),
                )
            } else {
                (
                    DirKernel::compile_output_major(n, |to, from| mat.entry(from, to)),
                    DirKernel::compile_output_major(n, |to, from| mat.entry(to, from)),
                )
            };
            axes.push(AxisKernel {
                n,
                outer: block_shape[..axis].iter().product(),
                inner,
                fwd,
                inv,
            });
        }
        let block_len = block_shape.iter().product();
        Self {
            shape: block_shape.to_vec(),
            axes,
            block_len,
        }
    }

    /// Elements per block.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// The block shape this transform was built for.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Forward transform: data → coefficients, in place.
    ///
    /// `scratch` must be at least `block_len` long.
    pub fn forward(&self, data: &mut [P], scratch: &mut [P]) {
        self.apply(data, scratch, false);
    }

    /// Inverse transform: coefficients → data, in place.
    pub fn inverse(&self, data: &mut [P], scratch: &mut [P]) {
        self.apply(data, scratch, true);
    }

    fn apply(&self, data: &mut [P], scratch: &mut [P], inverse: bool) {
        let d = self.shape.len();
        assert!(data.len() >= self.block_len, "block buffer too small");
        assert!(scratch.len() >= self.block_len, "scratch buffer too small");
        if d == 0 || self.block_len == 0 {
            return;
        }
        let mut in_data = true; // current contents live in `data`
        for ax in &self.axes {
            let (src, dst): (&[P], &mut [P]) = if in_data {
                (&data[..self.block_len], &mut scratch[..self.block_len])
            } else {
                (&scratch[..self.block_len], &mut data[..self.block_len])
            };
            let kernel = if inverse { &ax.inv } else { &ax.fwd };
            if ax.inner == 1 {
                kernel.contract_axpy(src, dst, ax.n, ax.outer);
            } else {
                kernel.contract_rows(src, dst, ax.n, ax.outer, ax.inner);
            }
            in_data = !in_data;
        }
        if !in_data {
            data[..self.block_len].copy_from_slice(&scratch[..self.block_len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazr_precision::F16;
    use blazr_util::rng::Xoshiro256pp;

    fn random_block(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..len).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
    }

    fn roundtrip_error(kind: TransformKind, shape: &[usize], seed: u64) -> f64 {
        let t = BlockTransform::<f64>::new(kind, shape);
        let orig = random_block(t.block_len(), seed);
        let mut data = orig.clone();
        let mut scratch = vec![0.0; t.block_len()];
        t.forward(&mut data, &mut scratch);
        t.inverse(&mut data, &mut scratch);
        orig.iter()
            .zip(&data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn forward_inverse_identity_dct() {
        for shape in [
            vec![4],
            vec![4, 8],
            vec![4, 4, 4],
            vec![2, 4, 8],
            vec![16, 16],
        ] {
            let e = roundtrip_error(TransformKind::Dct, &shape, 1);
            assert!(e < 1e-12, "shape {shape:?} err {e}");
        }
    }

    #[test]
    fn forward_inverse_identity_haar() {
        for shape in [vec![8], vec![4, 4], vec![2, 8, 4]] {
            let e = roundtrip_error(TransformKind::Haar, &shape, 2);
            assert!(e < 1e-12, "shape {shape:?} err {e}");
        }
    }

    #[test]
    fn identity_transform_is_noop() {
        let t = BlockTransform::<f64>::new(TransformKind::Identity, &[4, 4]);
        let orig = random_block(16, 3);
        let mut data = orig.clone();
        let mut scratch = vec![0.0; 16];
        t.forward(&mut data, &mut scratch);
        assert_eq!(data, orig);
    }

    #[test]
    fn parseval_energy_preservation() {
        // Orthonormality ⇒ Σc² = Σx².
        let t = BlockTransform::<f64>::new(TransformKind::Dct, &[4, 8]);
        let orig = random_block(32, 4);
        let mut data = orig.clone();
        let mut scratch = vec![0.0; 32];
        t.forward(&mut data, &mut scratch);
        let e_in: f64 = orig.iter().map(|x| x * x).sum();
        let e_out: f64 = data.iter().map(|x| x * x).sum();
        assert!((e_in - e_out).abs() < 1e-12 * e_in.max(1.0));
    }

    #[test]
    fn dot_product_preservation() {
        // The property §IV-A's operations rely on.
        let t = BlockTransform::<f64>::new(TransformKind::Dct, &[4, 4, 4]);
        let a = random_block(64, 5);
        let b = random_block(64, 6);
        let mut ca = a.clone();
        let mut cb = b.clone();
        let mut scratch = vec![0.0; 64];
        t.forward(&mut ca, &mut scratch);
        t.forward(&mut cb, &mut scratch);
        let dot_raw: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let dot_coef: f64 = ca.iter().zip(&cb).map(|(x, y)| x * y).sum();
        assert!((dot_raw - dot_coef).abs() < 1e-12);
    }

    #[test]
    fn dc_coefficient_is_scaled_block_mean() {
        // §IV-A: "the first coefficient in each block is the mean of the
        // uncompressed block scaled by c = Π√i".
        for kind in [TransformKind::Dct, TransformKind::Haar] {
            let shape = [4, 8];
            let t = BlockTransform::<f64>::new(kind, &shape);
            let block = random_block(32, 7);
            let mut data = block.clone();
            let mut scratch = vec![0.0; 32];
            t.forward(&mut data, &mut scratch);
            let mean: f64 = block.iter().sum::<f64>() / 32.0;
            let c = (4f64).sqrt() * (8f64).sqrt();
            assert!(
                (data[0] - mean * c).abs() < 1e-12,
                "{kind:?}: dc={} expected={}",
                data[0],
                mean * c
            );
        }
    }

    #[test]
    fn low_precision_roundtrip_has_bounded_error() {
        let t = BlockTransform::<F16>::new(TransformKind::Dct, &[8, 8]);
        let orig = random_block(64, 8);
        let mut data: Vec<F16> = orig.iter().map(|&x| F16::from_f64(x)).collect();
        let mut scratch = vec![F16::ZERO; 64];
        t.forward(&mut data, &mut scratch);
        t.inverse(&mut data, &mut scratch);
        let max_err = orig
            .iter()
            .zip(&data)
            .map(|(a, b)| (a - b.to_f64()).abs())
            .fold(0.0, f64::max);
        // f16 has ~1e-3 ulp at 1.0 and we do ~16 accumulations per element.
        assert!(max_err < 0.05, "err {max_err}");
        assert!(max_err > 1e-8, "f16 arithmetic should actually lose bits");
    }

    #[test]
    fn constant_block_concentrates_into_dc() {
        let t = BlockTransform::<f64>::new(TransformKind::Dct, &[4, 4]);
        let mut data = vec![2.5f64; 16];
        let mut scratch = vec![0.0; 16];
        t.forward(&mut data, &mut scratch);
        assert!((data[0] - 2.5 * 4.0).abs() < 1e-12); // mean·√16
        for &c in &data[1..] {
            assert!(c.abs() < 1e-12);
        }
    }

    #[test]
    fn scalar_block_is_untouched() {
        let t = BlockTransform::<f64>::new(TransformKind::Dct, &[]);
        let mut data = vec![3.0];
        let mut scratch = vec![0.0];
        t.forward(&mut data, &mut scratch);
        assert_eq!(data[0], 3.0);
    }
}
