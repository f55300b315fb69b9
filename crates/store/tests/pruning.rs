//! Pruning correctness: a zone-map-pruned query must return results
//! **bit-identical** to a full scan — the zone map, widened by its error
//! bound, may never prune a chunk the exact evaluation would keep. The
//! same holds for chunks answered from their footer zone maps instead of
//! a decode, on every backing and under bit rot.

use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Predicate, Query, QueryOptions, Store, StoreError, StoreWriter};
use blazr_telemetry as tel;
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes this file's tests: one of them reads exact deltas of the
/// process-global telemetry counters, which a concurrent query would
/// disturb.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const AGGREGATES: [Aggregate; 5] = [
    Aggregate::Count,
    Aggregate::Sum,
    Aggregate::Mean,
    Aggregate::Variance,
    Aggregate::L2Norm,
];

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
    Store::open(write_ramp(name, chunks, noisy)).unwrap()
}

/// Writes [`ramp_store`]'s file and returns its path.
fn write_ramp(name: &str, chunks: u64, noisy: bool) -> PathBuf {
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
    p
}

/// The store at `path` on each backing: memory-mapped, positional reads,
/// and in memory.
fn every_backing(path: &PathBuf) -> [(&'static str, Store); 3] {
    [
        ("mmap", Store::open(path).unwrap()),
        ("file", Store::open_unmapped(path).unwrap()),
        (
            "memory",
            Store::from_bytes(fs::read(path).unwrap()).unwrap(),
        ),
    ]
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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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

/// Footer answers: with no predicate or a `MeanInRange` one, `query`
/// answers each surviving chunk from its footer zone map instead of a
/// decode. On every backing, at every thread count, over random label
/// windows, every aggregate equals the decode-and-recompute full scan bit
/// for bit.
#[test]
fn footer_answers_equal_the_decoded_scan() {
    let _serial = serial();
    const CHUNKS: u64 = 12;
    let path = write_ramp("footer.blzs", CHUNKS, true);
    let backings = every_backing(&path);
    let mut rng = Xoshiro256pp::seed_from_u64(21);
    let (mut compared, mut pruned, mut matched) = (0usize, 0usize, 0usize);
    for _ in 0..6 {
        let from = rng.below(CHUNKS);
        let to = from + rng.below(CHUNKS - from);
        // Chunk t's mean is near t, so this range keeps some chunks of
        // most windows and prunes others.
        let lo = rng.uniform_in(-1.0, CHUNKS as f64);
        let hi = lo + rng.uniform_in(0.0, 6.0);
        for predicate in [None, Some(Predicate::MeanInRange { lo, hi })] {
            for aggregate in AGGREGATES {
                let q = Query {
                    from_label: from,
                    to_label: to,
                    predicate,
                    aggregate,
                };
                for (_, store) in &backings {
                    for n in [1usize, 2, 4, 8] {
                        let (footer, full) = with_threads(n, || {
                            (store.query(&q).unwrap(), store.query_full_scan(&q).unwrap())
                        });
                        assert_bit_identical(&footer, &full);
                        assert_eq!(footer.chunks_in_range, full.chunks_in_range);
                        if predicate.is_none() {
                            assert_eq!(footer.chunks_scanned, full.chunks_scanned);
                            assert_eq!(footer.payload_bytes_read, full.payload_bytes_read);
                        }
                        compared += 1;
                        pruned += footer.chunks_pruned;
                        matched += footer.matched_labels.len();
                    }
                }
            }
        }
    }
    assert!(
        pruned > 0 && matched > 0,
        "the windows never pruned or never matched"
    );
    println!(
        "footer: {compared} footer answers bit-identical to the decoded scan \
         (mmap/file/memory, 1/2/4/8 threads; {pruned} chunks pruned, {matched} matched)"
    );
}

/// Bit rot under footer answers: one flipped payload byte. A strict query
/// fails with the same error on the footer and the decode path; a
/// degraded one quarantines exactly the chunks the decode path does, for
/// the same reason, and answers bit-identically over the survivors —
/// whichever path touches the rotten chunk first.
#[test]
fn footer_answers_quarantine_what_the_decode_path_does() {
    let _serial = serial();
    const VICTIM: usize = 3;
    let clean = write_ramp("footer-rot-clean.blzs", 8, true);
    let off = Store::open(&clean).unwrap().entries()[VICTIM].offset as usize;
    let mut bytes = fs::read(&clean).unwrap();
    bytes[off + 5] ^= 0x10;
    let rotten = tmp("footer-rot.blzs");
    fs::write(&rotten, &bytes).unwrap();

    let decode = QueryOptions {
        full_scan: true,
        degraded: true,
        cancel: None,
    };
    // Both queries keep the victim: the mean range covers its mean.
    let queries = [
        Query::all(Aggregate::Sum),
        Query {
            from_label: 1,
            to_label: 6,
            predicate: Some(Predicate::MeanInRange { lo: 2.5, hi: 4.5 }),
            aggregate: Aggregate::Variance,
        },
    ];
    let mut runs = 0usize;
    for footer_first in [true, false] {
        for (name, store) in every_backing(&rotten) {
            for q in &queries {
                let footer = || store.query_degraded(q).unwrap();
                let decoded = || store.run(q, &decode).unwrap();
                let ((fr, frep), (dr, drep)) = if footer_first {
                    let f = footer();
                    (f, decoded())
                } else {
                    let d = decoded();
                    (footer(), d)
                };
                assert_eq!(frep, drep, "{name}: quarantine differs");
                assert_eq!(frep.skipped.len(), 1, "{name}");
                assert_eq!(frep.skipped[0].label, VICTIM as u64, "{name}");
                assert_bit_identical(&fr, &dr);
                let strict = store.query(q).unwrap_err();
                assert!(matches!(strict, StoreError::Corrupt(_)), "{name}: {strict}");
                assert_eq!(
                    strict.to_string(),
                    store.query_full_scan(q).unwrap_err().to_string(),
                    "{name}: strict errors differ"
                );
                runs += 1;
            }
        }
    }
    println!(
        "footer: {runs} degraded footer answers quarantined chunk {VICTIM} as the decode \
         path does (mmap/file/memory, footer and decode first), answers bit-identical"
    );
}

/// A value range is not decided by the zone map: a chunk whose hull
/// overlaps the range while none of its blocks does survives pruning, and
/// only the decode's per-block test rejects it. A footer answer would
/// wrongly match it.
#[test]
fn value_range_rejects_a_chunk_the_zone_map_kept() {
    let _serial = serial();
    let p = tmp("gap.blzs");
    let mut w = StoreWriter::create(
        &p,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .unwrap();
    // Left block all 0, right block all 10: the hull spans [0, 10], no
    // block comes near 5.
    let frame = NdArray::from_fn(vec![4, 8], |i| if i[1] < 4 { 0.0 } else { 10.0 });
    w.append(0, &frame).unwrap();
    w.finish().unwrap();
    let store = Store::open(&p).unwrap();
    let q = Query {
        from_label: 0,
        to_label: 0,
        predicate: Some(Predicate::ValueInRange { lo: 4.0, hi: 6.0 }),
        aggregate: Aggregate::Count,
    };
    let r = store.query(&q).unwrap();
    assert_eq!(
        (r.chunks_pruned, r.chunks_scanned),
        (0, 1),
        "the zone map kept the chunk"
    );
    assert!(
        r.matched_labels.is_empty(),
        "the per-block test must reject it"
    );
    assert_bit_identical(&r, &store.query_full_scan(&q).unwrap());
}

/// A chunk with one overflowed block (an f16 block of 60000s, whose DC
/// does not fit in f16) has a NaN block envelope. Its zone map hull is
/// `(−∞, +∞)`, not a finite hull that leaves the block out, and no value
/// range prunes or rejects it.
#[test]
fn an_overflowed_block_widens_its_chunk_to_every_value() {
    let _serial = serial();
    let p = tmp("overflow.blzs");
    let mut w = StoreWriter::create(
        &p,
        Settings::new(vec![8, 8]).unwrap(),
        ScalarType::F16,
        IndexType::I16,
    )
    .unwrap();
    for t in 0..3u64 {
        let frame = NdArray::from_fn(vec![8, 16], |i| {
            if t == 1 && i[1] >= 8 {
                60000.0
            } else {
                t as f64 + ((i[0] + i[1]) as f64 / 5.0).sin()
            }
        });
        w.append(t, &frame).unwrap();
    }
    w.finish().unwrap();
    let store = Store::open(&p).unwrap();
    let hulls: Vec<(f64, f64)> = store
        .entries()
        .iter()
        .map(|e| (e.zone.stats.min_bound, e.zone.stats.max_bound))
        .collect();
    assert_eq!(hulls[1], (f64::NEG_INFINITY, f64::INFINITY), "{hulls:?}");
    assert!(hulls.iter().all(|&(lo, hi)| !lo.is_nan() && !hi.is_nan()));
    for (lo, hi) in [(-0.5, 0.5), (5.0, 6.0), (1e9, 2e9), (-2e9, -1e9)] {
        let q = Query {
            from_label: 0,
            to_label: 2,
            predicate: Some(Predicate::ValueInRange { lo, hi }),
            aggregate: Aggregate::Sum,
        };
        let r = store.query(&q).unwrap();
        assert!(r.matched_labels.contains(&1), "[{lo}, {hi}]: {r:?}");
        // The overflowed chunk's sum is NaN, so compare bits.
        let full = store.query_full_scan(&q).unwrap();
        let bits = |r: &blazr_store::QueryResult| {
            let zone = blazr_store::ZoneMap {
                stats: r.stats,
                bounds: r.bounds,
            };
            (r.value.to_bits(), zone.to_bits(), r.matched_labels.clone())
        };
        assert_eq!(bits(&r), bits(&full), "[{lo}, {hi}]");
    }
}

/// The full scan follows the payload, not the footer: with one footer
/// zone map's mean rewritten (and the footer checksum re-sealed, so the
/// store opens cleanly), a full-scan `MeanInRange` query around the
/// chunk's true mean still matches it, bit-identically to the honest
/// store's full scan. Footer answers trust the index by design; `store
/// verify` is what flags the lie.
#[test]
fn full_scan_follows_the_payload_not_a_lying_footer() {
    use blazr_store::format::{encode_footer, encode_trailer};
    let _serial = serial();
    const LIAR: usize = 3;
    let honest_path = write_ramp("footer-honest.blzs", 8, true);
    let honest = Store::open(&honest_path).unwrap();
    let mut entries = honest.entries().to_vec();
    let true_mean = entries[LIAR].zone.mean();
    entries[LIAR].zone.stats.sum += 1000.0 * entries[LIAR].zone.stats.count as f64;
    let footer = encode_footer(&entries);
    let trailer = encode_trailer(&footer);
    let mut bytes = fs::read(&honest_path).unwrap();
    bytes.truncate(bytes.len() - footer.len() - trailer.len());
    bytes.extend_from_slice(&footer);
    bytes.extend_from_slice(&trailer);
    let lying_path = tmp("footer-lying.blzs");
    fs::write(&lying_path, &bytes).unwrap();

    let q = |predicate| Query {
        from_label: 0,
        to_label: u64::MAX,
        predicate,
        aggregate: Aggregate::Sum,
    };
    let around_mean = Some(Predicate::MeanInRange {
        lo: true_mean - 0.05,
        hi: true_mean + 0.05,
    });
    // The lying mean is far from the truth, and from the other chunks.
    let around_lie = Some(Predicate::MeanInRange {
        lo: true_mean + 999.95,
        hi: true_mean + 1000.05,
    });
    for (name, lying) in every_backing(&lying_path) {
        assert_eq!(lying.entries()[LIAR].zone, entries[LIAR].zone, "{name}");
        for predicate in [None, around_mean, around_lie] {
            let got = lying.query_full_scan(&q(predicate)).unwrap();
            let want = honest.query_full_scan(&q(predicate)).unwrap();
            assert_bit_identical(&got, &want);
        }
        let r = lying.query_full_scan(&q(around_mean)).unwrap();
        assert_eq!(r.matched_labels, vec![LIAR as u64], "{name}");
        assert!(lying
            .query_full_scan(&q(around_lie))
            .unwrap()
            .matched_labels
            .is_empty());
    }
    let lying = Store::open(&lying_path).unwrap();
    println!(
        "full-scan: chunk {LIAR} footer mean rewritten {true_mean:.3} -> {:.3}: \
         full scan matched {:?} (honest store: {:?}), footer answer matched {:?}",
        entries[LIAR].zone.mean(),
        lying
            .query_full_scan(&q(around_mean))
            .unwrap()
            .matched_labels,
        honest
            .query_full_scan(&q(around_mean))
            .unwrap()
            .matched_labels,
        lying.query(&q(around_mean)).unwrap().matched_labels,
    );
}

/// A warm footer answer reads nothing: on the positional-read backing,
/// the first query reads and hashes each payload once, and a second adds
/// no chunk read, no hash, no decode and no parallel call.
#[test]
fn warm_footer_answers_read_no_payload_bytes() {
    let _serial = serial();
    const CHUNKS: u64 = 8;
    let store = Store::open_unmapped(write_ramp("footer-warm.blzs", CHUNKS, false)).unwrap();
    assert_eq!(store.backing_kind(), "file");
    let counters = || {
        let snap = tel::registry().snapshot();
        [
            "store.chunk_reads",
            "store.checksum.verified",
            "store.chunks_decoded",
            "rayon.parallel_calls",
        ]
        .map(|name| snap.counter(name).unwrap_or(0))
    };
    let delta = |before: [u64; 4], after: [u64; 4]| [0, 1, 2, 3].map(|k| after[k] - before[k]);
    let q = Query::all(Aggregate::Sum);
    tel::set_mode(tel::Mode::Counters);
    let (first, second, full) = with_threads(4, || {
        let t0 = counters();
        store.query(&q).unwrap();
        let t1 = counters();
        store.query(&q).unwrap();
        let t2 = counters();
        store.query_full_scan(&q).unwrap();
        let t3 = counters();
        (delta(t0, t1), delta(t1, t2), delta(t2, t3))
    });
    tel::set_mode(tel::Mode::Off);
    assert_eq!(
        first,
        [CHUNKS, CHUNKS, 0, 0],
        "first touch: reads, hashes, decodes, calls"
    );
    assert_eq!(
        second,
        [0, 0, 0, 0],
        "warm footer answer touched the payload"
    );
    assert_eq!(full[1], 0, "the full scan re-hashed a latched chunk");
    assert_eq!(full[2], CHUNKS, "the full scan must decode every chunk");
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
        let _serial = serial();
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
        for agg in AGGREGATES {
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
