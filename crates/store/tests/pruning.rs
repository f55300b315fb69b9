//! Pruning correctness: a zone-map-pruned query must return results
//! **bit-identical** to a full scan — the zone map, widened by its error
//! bound, may never prune a chunk the exact evaluation would keep.

use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Predicate, Query, Store, StoreError, StoreWriter};
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("blazr-store-pruning");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn with_threads<R>(n: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
        .install(op)
}

/// A store whose chunks ramp upward in value (chunk t holds values near
/// `t`), so range predicates have real pruning power. The chunk shape is
/// a block multiple: zone maps are computed in compressed space, and
/// blocks that straddle the zero-padded tail would widen the value
/// envelope (their AC energy covers the data-to-padding step). Aligned
/// chunks keep the envelopes tight — the same alignment advice column
/// stores give for row-group statistics.
fn ramp_store(name: &str, chunks: u64, noisy: bool) -> Store {
    let p = tmp(name);
    let mut w = StoreWriter::create(
        &p,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(7);
    for t in 0..chunks {
        let base = t as f64;
        let frame = NdArray::from_fn(vec![12, 16], |i| {
            let wiggle = ((i[0] * 3 + i[1]) as f64 / 11.0).sin() * 0.25;
            let noise = if noisy {
                rng.uniform_in(-0.05, 0.05)
            } else {
                0.0
            };
            base + wiggle + noise
        });
        w.append(t, &frame).unwrap();
    }
    w.finish().unwrap();
    Store::open(&p).unwrap()
}

fn assert_bit_identical(a: &blazr_store::QueryResult, b: &blazr_store::QueryResult) {
    assert_eq!(a.value.to_bits(), b.value.to_bits(), "aggregate differs");
    assert_eq!(
        a.error_bound.to_bits(),
        b.error_bound.to_bits(),
        "bound differs"
    );
    assert_eq!(a.stats, b.stats, "merged stats differ");
    assert_eq!(a.bounds, b.bounds, "merged bounds differ");
    assert_eq!(a.matched_labels, b.matched_labels, "matched set differs");
}

/// The acceptance-criteria scenario: a range predicate that must prune at
/// least one chunk, with the pruned result bit-identical to the full scan
/// at every thread count.
#[test]
fn pruned_query_is_bit_identical_and_prunes() {
    let store = ramp_store("e2e.blzs", 8, true);
    let q = Query {
        from_label: 0,
        to_label: u64::MAX,
        predicate: Some(Predicate::ValueInRange { lo: 5.5, hi: 6.5 }),
        aggregate: Aggregate::Mean,
    };
    let reference = with_threads(1, || store.query_full_scan(&q).unwrap());
    for n in [1usize, 2, 4, 8] {
        let pruned = with_threads(n, || store.query(&q).unwrap());
        let full = with_threads(n, || store.query_full_scan(&q).unwrap());
        assert!(pruned.chunks_pruned >= 1, "no chunk pruned at {n} threads");
        assert_bit_identical(&pruned, &full);
        assert_bit_identical(&pruned, &reference);
    }
    // The ramp makes the matching set predictable: only chunks whose
    // value envelope (base ± wiggle energy) reaches [5.5, 6.5] survive.
    let pruned = store.query(&q).unwrap();
    assert!(pruned.matched_labels.contains(&6));
    assert!(!pruned.matched_labels.contains(&0));
    assert!(pruned.value > 5.0 && pruned.value < 7.5);
    assert!(pruned.error_bound > 0.0 && pruned.error_bound < 1e-2);
}

#[test]
fn pruning_never_drops_chunks_with_matching_original_values() {
    // Every original element sits inside its chunk's widened zone map, so
    // a point query at any original value must keep that chunk.
    let mut rng = Xoshiro256pp::seed_from_u64(13);
    let p = tmp("original.blzs");
    let mut w = StoreWriter::create(
        &p,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F32,
        IndexType::I8, // coarse bins: large (but bounded) error
    )
    .unwrap();
    let mut originals = Vec::new();
    for t in 0..4u64 {
        let frame = NdArray::from_fn(vec![9, 9], |_| rng.uniform_in(-2.0, 2.0) + t as f64);
        originals.push((t, frame.clone()));
        w.append(t, &frame).unwrap();
    }
    w.finish().unwrap();
    let store = Store::open(&p).unwrap();
    for (i, (label, frame)) in originals.iter().enumerate() {
        for &x in frame.as_slice().iter().step_by(7) {
            let q = Query {
                from_label: 0,
                to_label: u64::MAX,
                predicate: Some(Predicate::ValueInRange { lo: x, hi: x }),
                aggregate: Aggregate::Count,
            };
            let r = store.query(&q).unwrap();
            assert!(
                r.matched_labels.contains(label),
                "chunk {i} dropped though it holds original value {x}"
            );
        }
    }
}

#[test]
fn mean_predicate_prunes_and_matches_full_scan() {
    let store = ramp_store("meanpred.blzs", 8, false);
    let q = Query {
        from_label: 0,
        to_label: u64::MAX,
        predicate: Some(Predicate::MeanInRange { lo: 2.5, hi: 4.5 }),
        aggregate: Aggregate::Sum,
    };
    let pruned = store.query(&q).unwrap();
    let full = store.query_full_scan(&q).unwrap();
    assert_bit_identical(&pruned, &full);
    assert!(pruned.chunks_pruned >= 1);
    assert_eq!(pruned.matched_labels, vec![3, 4]);
}

#[test]
fn label_range_and_predicate_compose() {
    let store = ramp_store("compose.blzs", 10, true);
    let q = Query {
        from_label: 2,
        to_label: 8,
        predicate: Some(Predicate::ValueInRange {
            lo: 7.5,
            hi: f64::INFINITY,
        }),
        aggregate: Aggregate::Count,
    };
    let r = store.query(&q).unwrap();
    assert_eq!(r.chunks_in_range, 7); // labels 2..=8
    assert!(r.matched_labels.iter().all(|&l| (2..=8).contains(&l)));
    assert!(r.matched_labels.contains(&8));
    assert!(!r.matched_labels.contains(&2));
    assert_bit_identical(&r, &store.query_full_scan(&q).unwrap());
    // Inverted ranges are rejected, not silently empty.
    assert!(store
        .query(&Query {
            from_label: 9,
            to_label: 3,
            predicate: None,
            aggregate: Aggregate::Count,
        })
        .is_err());
    // So are inverted or NaN predicate bounds, on either predicate;
    // a point range `lo == hi` stays valid.
    for (predicate, valid) in [
        (Predicate::ValueInRange { lo: 5.0, hi: 1.0 }, false),
        (Predicate::MeanInRange { lo: 5.0, hi: 1.0 }, false),
        (
            Predicate::ValueInRange {
                lo: f64::NAN,
                hi: 1.0,
            },
            false,
        ),
        (
            Predicate::MeanInRange {
                lo: 0.0,
                hi: f64::NAN,
            },
            false,
        ),
        (Predicate::ValueInRange { lo: 5.0, hi: 5.0 }, true),
    ] {
        let q = Query {
            predicate: Some(predicate),
            ..q
        };
        for got in [store.query(&q), store.query_full_scan(&q)] {
            match got {
                Ok(_) => assert!(valid, "{predicate:?} accepted"),
                Err(StoreError::InvalidArgument(_)) => assert!(!valid, "{predicate:?} rejected"),
                Err(e) => panic!("{predicate:?}: unexpected {e}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary chunked data, arbitrary predicate intervals, and
    /// arbitrary label windows, the pruned query equals the full scan
    /// bit-for-bit on every aggregate.
    #[test]
    fn pruned_equals_full_scan(
        seed in 0u64..1000,
        chunks in 2usize..7,
        rows in 4usize..12,
        cols in 4usize..12,
        spread in 0.5f64..4.0,
        lo_frac in -0.2f64..1.2,
        width in 0.0f64..0.8,
        from in 0u64..3,
        span in 0u64..8,
    ) {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let p = tmp(&format!("prop-{seed}-{chunks}-{rows}x{cols}.blzs"));
        let mut w = StoreWriter::create(
            &p,
            Settings::new(vec![4, 4]).unwrap(),
            ScalarType::F32,
            IndexType::I16,
        )
        .unwrap();
        let mut lo_val = f64::INFINITY;
        let mut hi_val = f64::NEG_INFINITY;
        for t in 0..chunks as u64 {
            let center = rng.uniform_in(-spread, spread);
            let frame = NdArray::from_fn(vec![rows, cols], |_| {
                center + rng.uniform_in(-0.5, 0.5)
            });
            for &x in frame.as_slice() {
                lo_val = lo_val.min(x);
                hi_val = hi_val.max(x);
            }
            w.append(t, &frame).unwrap();
        }
        w.finish().unwrap();
        let store = Store::open(&p).unwrap();

        // Predicate interval placed relative to the data's value range so
        // it sometimes prunes everything, sometimes nothing.
        let lo = lo_val + lo_frac * (hi_val - lo_val);
        let hi = lo + width * (hi_val - lo_val);
        let q_base = Query {
            from_label: from,
            to_label: from + span,
            predicate: Some(Predicate::ValueInRange { lo, hi }),
            aggregate: Aggregate::Count,
        };
        for agg in [
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Mean,
            Aggregate::Variance,
            Aggregate::L2Norm,
        ] {
            let q = Query { aggregate: agg, ..q_base };
            let pruned = store.query(&q).unwrap();
            let full = store.query_full_scan(&q).unwrap();
            assert_bit_identical(&pruned, &full);
            prop_assert!(pruned.chunks_pruned + pruned.chunks_scanned == pruned.chunks_in_range);
            prop_assert!(full.chunks_pruned == 0);
        }
        fs::remove_file(&p).ok();
    }
}
