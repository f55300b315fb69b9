//! The compressed representation `{s, i, N, F}` (paper §III-B).

use crate::{BinIndex, BlazError, Settings};
use blazr_precision::Real;
use blazr_telemetry as tel;
use blazr_tensor::blocking::{scatter_block, Blocked};
use blazr_tensor::shape::{ceil_div, ceil_div_count, num_elements};
use blazr_tensor::NdArray;
use blazr_transform::BlockTransform;
use rayon::prelude::*;

/// A compressed array: original shape `s`, settings (block shape `i`,
/// transform, pruning mask), per-block biggest coefficient `N`, and the
/// flattened kept bin indices `F` (block-major).
///
/// `P` is the floating-point format of all internal arithmetic and of the
/// stored `N`; `I` is the bin index type. Binary compressed-space
/// operations require both operands to share `P`, `I`, shape, and settings.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedArray<P, I> {
    pub(crate) shape: Vec<usize>,
    pub(crate) settings: Settings,
    /// `N`: the biggest-magnitude coefficient of each block.
    pub(crate) biggest: Vec<P>,
    /// `F`: kept bin indices, `kept_count` per block, block-major.
    pub(crate) indices: Vec<I>,
}

impl<P: Real, I: BinIndex> CompressedArray<P, I> {
    /// The original (uncompressed) shape `s`.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The compression settings.
    pub fn settings(&self) -> &Settings {
        &self.settings
    }

    /// The block shape `i`.
    pub fn block_shape(&self) -> &[usize] {
        &self.settings.block_shape
    }

    /// The block arrangement `b = ⌈s ⊘ i⌉`.
    pub fn num_blocks(&self) -> Vec<usize> {
        ceil_div(&self.shape, &self.settings.block_shape)
    }

    /// Total number of blocks `Πb`. Allocation-free (per-chunk hot
    /// paths call this once per chunk).
    pub fn block_count(&self) -> usize {
        ceil_div_count(&self.shape, &self.settings.block_shape)
    }

    /// Kept coefficients per block `ΣP`.
    pub fn kept_per_block(&self) -> usize {
        self.settings.mask.kept_count()
    }

    /// The per-block biggest coefficients `N`.
    pub fn biggest(&self) -> &[P] {
        &self.biggest
    }

    /// The flattened bin indices `F` (block-major, `kept_per_block` each).
    pub fn indices(&self) -> &[I] {
        &self.indices
    }

    /// Bin indices of block `kb`.
    pub fn block_indices(&self, kb: usize) -> &[I] {
        let k = self.kept_per_block();
        &self.indices[kb * k..(kb + 1) * k]
    }

    /// Reconstructs the specified coefficient at kept slot `slot` of block
    /// `kb` (Algorithm 3, one element): `N_k · (F/r)`.
    #[inline]
    pub(crate) fn coeff(&self, kb: usize, slot: usize) -> P {
        let f = self.indices[kb * self.kept_per_block() + slot];
        P::from_f64(f.unbin()) * self.biggest[kb]
    }

    /// The specified coefficients `Ĉ` (Algorithm 3), unflattened into full
    /// blocks with zeros at pruned positions.
    pub fn specified_coefficients(&self) -> Blocked<P> {
        let nb = self.num_blocks();
        let mut out = Blocked::<P>::zeros(nb, self.settings.block_shape.clone());
        let kept = self.settings.mask.kept_positions();
        out.par_blocks_mut()
            .enumerate()
            .for_each(|(kb, block)| self.unbin_block(kb, kept, block));
        out
    }

    /// Unbins one block's specified coefficients into `block` (zeros at
    /// pruned positions) — the per-block equivalent of
    /// [`CompressedArray::specified_coefficients`].
    #[inline]
    fn unbin_block(&self, kb: usize, kept: &[usize], block: &mut [P]) {
        let k = kept.len();
        let n = self.biggest[kb];
        if k == block.len() {
            // Full mask: kept positions are exactly 0..block_len in order,
            // so no zero-fill or position indirection is needed.
            let idx = &self.indices[kb * k..(kb + 1) * k];
            for (b, &f) in block.iter_mut().zip(idx) {
                *b = P::from_f64(f.unbin()) * n;
            }
        } else {
            block.fill(P::zero());
            for (slot, &pos) in kept.iter().enumerate() {
                let f = self.indices[kb * k + slot];
                block[pos] = P::from_f64(f.unbin()) * n;
            }
        }
    }

    /// Decompresses back to an `f64` array: scale indices by `N`,
    /// unflatten, inverse-transform each block, merge, crop (§III-B).
    pub fn decompress(&self) -> NdArray<f64> {
        self.decompress_values().convert()
    }

    /// Decompresses into the working precision `P`, fusing unbin → inverse
    /// transform → block scatter: each block is reconstructed in
    /// thread-local scratch and its in-bounds region row-copied straight
    /// into the output, so no `n_blocks × block_len` coefficient buffer is
    /// materialized.
    ///
    /// Work is parallelized over outermost-axis slabs — the contiguous
    /// output region a row of blocks writes — so writes stay disjoint and
    /// the result is bit-identical to the staged path
    /// ([`CompressedArray::specified_coefficients`] → inverse →
    /// [`Blocked::merge`]) at any thread count. When the leading axis is
    /// too thin to feed the thread team (few slabs, many blocks each),
    /// the staged path — parallel per block and per output row — is used
    /// instead; both paths produce the same bits
    /// (`tests/fused_pipeline.rs`), so the choice never shows in results.
    pub fn decompress_values(&self) -> NdArray<P> {
        let _span = tel::span!("codec.decompress");
        tel::count!("codec.decompress.blocks", self.block_count() as u64);
        let bt = BlockTransform::<P>::new(self.settings.transform, &self.settings.block_shape);
        let block_len = bt.block_len().max(1);
        let kept = self.settings.mask.kept_positions();
        let nb = self.num_blocks();
        let d = self.shape.len();

        if d == 0 {
            let mut out = NdArray::<P>::full(self.shape.clone(), P::zero());
            let mut block = vec![P::zero(); block_len];
            let mut scratch = vec![P::zero(); block_len];
            self.unbin_block(0, kept, &mut block);
            bt.inverse(&mut block, &mut scratch);
            out.as_mut_slice()[0] = block[0];
            return out;
        }

        let blocks_per_slab = nb[1..].iter().product::<usize>();
        if nb[0] < rayon::current_num_threads() && blocks_per_slab > 1 {
            // Thin leading axis: slab parallelism would idle most of the
            // team, so take the staged per-block/per-row parallel path.
            return self.decompress_values_staged(&bt);
        }

        let mut out = NdArray::<P>::full(self.shape.clone(), P::zero());
        if out.is_empty() {
            return out;
        }

        // One slab = all output rows covered by blocks sharing the first
        // block coordinate: `bs[0]` leading-axis layers (fewer at a ragged
        // tail), each a contiguous `Π s[1..]` span.
        let slab_len = self.settings.block_shape[0] * self.shape[1..].iter().product::<usize>();
        let shape = &self.shape;
        let bs = &self.settings.block_shape;
        let min_slabs = (2048 / slab_len.max(1)).max(1);
        out.as_mut_slice()
            .par_chunks_mut(slab_len)
            .enumerate()
            .with_min_len(min_slabs)
            .for_each_init(
                || (vec![P::zero(); block_len], vec![P::zero(); block_len]),
                |(block, scratch), (j0, slab)| {
                    let slab_start = j0 * slab_len;
                    for kb in j0 * blocks_per_slab..(j0 + 1) * blocks_per_slab {
                        let mut sw = tel::Stopwatch::start();
                        self.unbin_block(kb, kept, block);
                        sw.lap(tel::histogram!("codec.decompress.unbin"));
                        bt.inverse(block, scratch);
                        sw.lap(tel::histogram!("codec.decompress.inverse"));
                        scatter_block(block, shape, &nb, bs, kb, slab, slab_start);
                        sw.lap(tel::histogram!("codec.decompress.scatter"));
                    }
                },
            );
        out
    }

    /// The staged decompression pipeline: materialize the specified
    /// coefficients, inverse-transform blocks in parallel, then merge
    /// (row-parallel). Slower than the fused path on wide arrays but
    /// parallel in the block count rather than the leading-axis extent.
    fn decompress_values_staged(&self, bt: &BlockTransform<P>) -> NdArray<P> {
        let mut blocked = self.specified_coefficients();
        let block_len = bt.block_len().max(1);
        blocked.par_blocks_mut().for_each_init(
            || vec![P::zero(); block_len],
            |scratch, block| bt.inverse(block, scratch),
        );
        blocked.merge(&self.shape)
    }

    /// Checks binary-operation compatibility (Table I operations require
    /// equal shapes and identical settings).
    pub(crate) fn check_compatible(&self, other: &Self) -> Result<(), BlazError> {
        if self.shape != other.shape {
            return Err(BlazError::ShapeMismatch {
                left: self.shape.clone(),
                right: other.shape.clone(),
            });
        }
        if self.settings != other.settings {
            return Err(BlazError::SettingsMismatch);
        }
        Ok(())
    }

    /// The kept slot of the DC coefficient: the check every DC-based
    /// operation starts with. Fails when the transform has no constant
    /// basis vector or the mask dropped the DC coefficient.
    pub(crate) fn dc_slot(&self) -> Result<usize, BlazError> {
        match self.settings.mask.dc_kept_slot() {
            Some(slot) if self.settings.dc_available() => Ok(slot),
            _ => Err(BlazError::DcUnavailable),
        }
    }

    /// One block's specified-coefficient moments in `f64`, in slot order:
    /// the DC coefficient, the energy `Σ c²`, and the AC energy
    /// `Σ_{j≠DC} c²`. Block means, envelopes, block variances and the
    /// zone-map partials all derive from this triple.
    #[inline]
    pub(crate) fn block_moments(&self, kb: usize, dc_slot: usize) -> (f64, f64, f64) {
        let (mut dc, mut energy, mut ac_energy) = (0.0, 0.0, 0.0);
        for slot in 0..self.kept_per_block() {
            let c = self.coeff(kb, slot).to_f64();
            energy += c * c;
            if slot == dc_slot {
                dc = c;
            } else {
                ac_energy += c * c;
            }
        }
        (dc, energy, ac_energy)
    }
}

impl<P: blazr_precision::StorableReal, I: BinIndex> CompressedArray<P, I> {
    /// In-memory footprint of the compressed payload in bits, following
    /// the §IV-C accounting (see [`crate::ratio`] for the breakdown).
    pub fn payload_bits(&self) -> u64 {
        crate::ratio::serialized_bits(
            &self.shape,
            &self.settings.block_shape,
            P::BITS,
            I::BITS,
            self.kept_per_block(),
        )
    }

    /// Compression ratio achieved against a `u`-bit-per-element original.
    pub fn compression_ratio_from(&self, original_bits_per_element: u32) -> f64 {
        let raw = original_bits_per_element as u64 * num_elements(&self.shape) as u64;
        raw as f64 / self.payload_bits() as f64
    }

    /// Compression ratio against an FP64 original (the common case in the
    /// paper's experiments).
    pub fn compression_ratio(&self) -> f64 {
        self.compression_ratio_from(64)
    }
}
