//! Per-chunk zone maps: compressed-space statistics plus error-model
//! bounds, the store's pruning index.
//!
//! A zone map is the classic min/max chunk summary of column stores
//! (InfluxDB's TSM index, Parquet row-group statistics), except every
//! number in it is computed **in compressed space** — the chunk is never
//! decompressed, at ingest or at query time. The statistics come from
//! [`blazr::ops::ChunkStats`] (DC coefficients and coefficient energy),
//! one sequential block-order fold per chunk that never starts a thread
//! team: it costs a fraction of the chunk's compress or decode, and
//! scans fan out across chunks instead. The paper's §IV-D binning error model
//! ([`blazr::ops::ErrorBounds`]) rides along so that pruning decisions
//! can be widened to stay conservative with respect to the *original*
//! (pre-compression) data.

use blazr::dynamic::DynCompressed;
use blazr::ops::{ChunkStats, ErrorBounds};
use blazr::{BinIndex, BlazError, CompressedArray};
use blazr_precision::StorableReal;

/// Compressed-space summary of one chunk: what the query planner reads
/// instead of the chunk payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMap {
    /// Combinable statistics of the chunk's reconstruction.
    pub stats: ChunkStats,
    /// §IV-D binning error-model bounds relating the reconstruction to
    /// the original data.
    pub bounds: ErrorBounds,
}

impl ZoneMap {
    /// Builds the zone map of a typed compressed array, entirely in
    /// compressed space. Fails when the settings keep no DC coefficient
    /// (zone maps need block means).
    pub fn of<P: StorableReal, I: BinIndex>(c: &CompressedArray<P, I>) -> Result<Self, BlazError> {
        Ok(Self {
            stats: c.stats_partial()?,
            bounds: c.error_bounds(),
        })
    }

    /// Builds the zone map of a runtime-typed compressed array.
    pub fn of_dyn(c: &DynCompressed) -> Result<Self, BlazError> {
        Ok(Self {
            stats: c.stats_partial()?,
            bounds: c.error_bounds(),
        })
    }

    /// The fields as raw bits, in footer order. Two zone maps are the
    /// same exactly when their bits are: `==` on the floats would equate
    /// `0.0` with `-0.0` and never a NaN with itself.
    pub fn to_bits(&self) -> [u64; 7] {
        let (s, b) = (&self.stats, &self.bounds);
        [
            s.count,
            s.sum.to_bits(),
            s.sum_sq.to_bits(),
            s.min_bound.to_bits(),
            s.max_bound.to_bits(),
            b.linf.to_bits(),
            b.l2.to_bits(),
        ]
    }

    /// Chunk mean (compressed-space, padding-corrected).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// True if this chunk *may* contain original-data values in
    /// `[lo, hi]`: the reconstruction envelope, widened by the per-element
    /// error bound, overlaps the interval. A `false` is a safe prune — no
    /// element of the chunk (reconstructed or original) can fall inside.
    pub fn may_contain_value(&self, lo: f64, hi: f64) -> bool {
        self.stats.value_range_overlaps(lo, hi, self.bounds.linf)
    }

    /// True if this chunk's mean *may* lie in `[lo, hi]` once the mean
    /// error bound is allowed for.
    pub fn mean_may_be_in(&self, lo: f64, hi: f64) -> bool {
        let mb = self.bounds.mean_bound(self.stats.count);
        let m = self.mean();
        m - mb <= hi && m + mb >= lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blazr::{compress, Settings};
    use blazr_tensor::NdArray;
    use blazr_util::rng::Xoshiro256pp;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform_in(-1.0, 1.0))
    }

    #[test]
    fn zone_map_never_excludes_original_values() {
        for seed in 0..4 {
            let a = random_array(vec![13, 17], seed); // padded shape
            let c = compress::<f32, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
            let z = ZoneMap::of(&c).unwrap();
            for &x in a.as_slice() {
                assert!(z.may_contain_value(x, x), "original value {x} excluded");
            }
        }
    }

    #[test]
    fn disjoint_ranges_are_prunable() {
        let a = NdArray::from_fn(vec![8, 8], |_| 0.5);
        let c = compress::<f64, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        let z = ZoneMap::of(&c).unwrap();
        assert!(z.may_contain_value(0.4, 0.6));
        assert!(!z.may_contain_value(100.0, 200.0));
        assert!(!z.may_contain_value(-200.0, -100.0));
        assert!(z.mean_may_be_in(0.45, 0.55));
        assert!(!z.mean_may_be_in(10.0, 20.0));
    }

    #[test]
    fn typed_and_dyn_agree() {
        let a = random_array(vec![12, 12], 9);
        let s = Settings::new(vec![4, 4]).unwrap();
        let c = compress::<f32, i16>(&a, &s).unwrap();
        let d = blazr::dynamic::from_bytes_dyn(&c.to_bytes()).unwrap();
        assert_eq!(ZoneMap::of(&c).unwrap(), ZoneMap::of_dyn(&d).unwrap());
    }
}
