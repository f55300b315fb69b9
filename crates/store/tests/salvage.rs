//! Salvage correctness: `open_salvage` rebuilds the index from chunk
//! preambles when the footer is damaged, recovering **exactly** the
//! chunks whose payload checksums pass, and degraded queries over a
//! partially-rotted store match a full scan restricted to the surviving
//! chunks bit-for-bit at any thread count.

use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Query, Store, StoreError, StoreWriter};
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use blazr_util::vfs::seeded_bit_rot;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("blazr-store-salvage");
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

/// Seeded multi-chunk frames; chunk `i` is labeled `i * 5`.
fn seeded_frames(seed: u64, chunks: usize, rows: usize, cols: usize) -> Vec<(u64, NdArray<f64>)> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..chunks)
        .map(|i| {
            let f = NdArray::from_fn(vec![rows, cols], |ix| {
                ((ix[0] + i) as f64 / 4.0).sin() + rng.uniform_in(-0.2, 0.2)
            });
            (i as u64 * 5, f)
        })
        .collect()
}

fn write_store(path: &PathBuf, data: &[(u64, NdArray<f64>)]) {
    let mut w = StoreWriter::create(
        path,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .unwrap();
    for (label, frame) in data {
        w.append(*label, frame).unwrap();
    }
    w.finish().unwrap();
}

#[test]
fn salvage_of_an_intact_store_is_a_normal_open() {
    let data = seeded_frames(1, 4, 12, 12);
    let p = tmp("intact.blzs");
    write_store(&p, &data);
    let (store, report) = Store::open_salvage(&p).unwrap();
    assert!(report.footer_intact);
    assert_eq!(report.recovered, data.len());
    assert_eq!(report.damaged, 0);
    assert_eq!(report.scanned_bytes, 0);
    let normal = Store::open(&p).unwrap();
    assert_eq!(store.entries(), normal.entries());
}

#[test]
fn corrupt_trailer_salvages_every_chunk_bit_identically_across_threads() {
    let data = seeded_frames(2, 5, 13, 11);
    let p = tmp("trailer.blzs");
    write_store(&p, &data);
    let clean = Store::open(&p).unwrap();
    let mut bytes = fs::read(&p).unwrap();
    let n = bytes.len();
    bytes[n - 4] ^= 0xFF; // inside the trailer magic

    assert!(matches!(
        Store::from_bytes(bytes.clone()),
        Err(StoreError::Corrupt(_))
    ));
    let (store, report) = Store::salvage_from_bytes(bytes).unwrap();
    assert!(!report.footer_intact);
    assert_eq!(report.recovered, data.len());
    assert_eq!(report.damaged, 0);
    assert_eq!(report.scanned_bytes, n as u64);
    // Chunk payloads, labels, and recomputed zone maps all round-trip.
    assert_eq!(store.entries(), clean.entries());
    for i in 0..clean.len() {
        assert_eq!(store.chunk_bytes(i).unwrap(), clean.chunk_bytes(i).unwrap());
    }
    // Queries over the salvaged index are bit-identical to the clean
    // store at every thread count.
    let q = Query::all(Aggregate::Mean);
    let want = clean.query_full_scan(&q).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let got = with_threads(threads, || store.query_full_scan(&q)).unwrap();
        assert_eq!(
            got.value.to_bits(),
            want.value.to_bits(),
            "{threads} threads"
        );
        assert_eq!(got.matched_labels, want.matched_labels);
    }
    println!(
        "salvage: recovered {}/{} chunks from a trailer-smashed store",
        report.recovered,
        data.len()
    );
}

#[test]
fn damaged_pre_v3_files_cannot_salvage() {
    use blazr_store::format::{HEADER_MAGIC, PRE_V3_MAGICS};
    let data = seeded_frames(3, 3, 12, 12);
    let p = tmp("prev3.blzs");
    write_store(&p, &data);
    let mut bytes = fs::read(&p).unwrap();
    // Rewrite the magic to a pre-v3 one and smash the trailer: the file
    // now claims a format with no preambles, so salvage refuses with a
    // clear reason instead of scanning for structure that cannot exist.
    assert_eq!(&bytes[..8], HEADER_MAGIC);
    bytes[..8].copy_from_slice(PRE_V3_MAGICS[1]);
    let n = bytes.len();
    bytes[n - 4] ^= 0xFF;
    match Store::salvage_from_bytes(bytes) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("pre-v3"), "{msg}"),
        other => panic!("expected pre-v3 refusal, got {other:?}"),
    }
}

#[test]
fn fully_rotted_store_is_unsalvageable() {
    let data = seeded_frames(4, 3, 12, 12);
    let p = tmp("hopeless.blzs");
    write_store(&p, &data);
    let clean = Store::open(&p).unwrap();
    let mut bytes = fs::read(&p).unwrap();
    // Rot every payload and the trailer: nothing passes its checksum.
    for e in clean.entries() {
        for (at, mask) in seeded_bit_rot(99, e.offset, e.offset + e.len, 2) {
            bytes[at as usize] ^= mask;
        }
    }
    let n = bytes.len();
    bytes[n - 4] ^= 0xFF;
    match Store::salvage_from_bytes(bytes) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("no salvageable chunks"), "{msg}")
        }
        other => panic!("expected unsalvageable verdict, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomly corrupt the footer (always) and a random subset of chunk
    /// payloads. Salvage must recover exactly the chunks whose checksums
    /// still pass, and both the salvaged store and a degraded query over
    /// the footer-intact-but-rotted variant must produce aggregates
    /// bit-identical to a full scan over only the surviving chunks — at
    /// 1, 2, 4, and 8 threads.
    #[test]
    fn salvage_recovers_exactly_the_checksum_valid_chunks(
        seed in 0u64..10_000,
        chunks in 4usize..7,
        rows in 8usize..14,
        cols in 8usize..14,
        victims in 0usize..3,
    ) {
        let data = seeded_frames(seed, chunks, rows, cols);
        let p = tmp(&format!("prop-{seed}-{chunks}-{rows}x{cols}-{victims}.blzs"));
        write_store(&p, &data);
        let clean = Store::open(&p).unwrap();
        let bytes = fs::read(&p).unwrap();
        let n = bytes.len();

        // Pick `victims` distinct chunks and rot a couple of payload
        // bits in each; rot the footer/trailer region unconditionally.
        let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0xdecaf);
        let mut victim_set: Vec<usize> = Vec::new();
        while victim_set.len() < victims {
            let i = rng.below(chunks as u64) as usize;
            if !victim_set.contains(&i) {
                victim_set.push(i);
            }
        }
        victim_set.sort_unstable();
        let mut rotted = bytes.clone();
        for &i in &victim_set {
            let e = &clean.entries()[i];
            for (at, mask) in seeded_bit_rot(seed ^ i as u64, e.offset, e.offset + e.len, 2) {
                rotted[at as usize] ^= mask;
            }
        }
        let footer_region = clean.entries().last().map_or(8, |e| e.offset + e.len);
        let mut footered = rotted.clone();
        for (at, mask) in seeded_bit_rot(seed ^ 0xf007e4, footer_region, n as u64, 2) {
            footered[at as usize] ^= mask;
        }

        let survivors: Vec<usize> = (0..chunks).filter(|i| !victim_set.contains(i)).collect();
        let survivor_labels: Vec<u64> =
            survivors.iter().map(|&i| clean.entries()[i].label).collect();
        let victim_labels: Vec<u64> =
            victim_set.iter().map(|&i| clean.entries()[i].label).collect();

        // The footer-rotted file must not open normally.
        prop_assert!(matches!(
            Store::from_bytes(footered.clone()),
            Err(StoreError::Corrupt(_))
        ));
        // Salvage recovers exactly the checksum-valid chunks.
        let (salvaged, report) = Store::salvage_from_bytes(footered).unwrap();
        prop_assert!(!report.footer_intact);
        let recovered: Vec<u64> = salvaged.entries().iter().map(|e| e.label).collect();
        prop_assert_eq!(&recovered, &survivor_labels);
        prop_assert!(report.damaged >= victims as u64);

        // A full scan restricted to the survivors is the ground truth.
        let sp = tmp(&format!("prop-surv-{seed}-{chunks}-{rows}x{cols}-{victims}.blzs"));
        let survivor_data: Vec<(u64, NdArray<f64>)> =
            survivors.iter().map(|&i| data[i].clone()).collect();
        write_store(&sp, &survivor_data);
        let expect_store = Store::open(&sp).unwrap();

        // The footer-intact variant opens normally but must quarantine
        // the rotted chunks under a degraded query.
        let intact_footer = Store::from_bytes(rotted).unwrap();

        for agg in [Aggregate::Sum, Aggregate::Mean, Aggregate::Count] {
            let q = Query::all(agg);
            let want = expect_store.query_full_scan(&q).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let got = with_threads(threads, || salvaged.query_full_scan(&q)).unwrap();
                prop_assert_eq!(
                    got.value.to_bits(),
                    want.value.to_bits(),
                    "salvaged {:?} at {} threads",
                    agg,
                    threads
                );
                prop_assert_eq!(&got.matched_labels, &want.matched_labels);

                let (deg, dreport) =
                    with_threads(threads, || intact_footer.query_degraded(&q)).unwrap();
                prop_assert_eq!(
                    deg.value.to_bits(),
                    want.value.to_bits(),
                    "degraded {:?} at {} threads",
                    agg,
                    threads
                );
                prop_assert_eq!(&deg.matched_labels, &want.matched_labels);
                let skipped: Vec<u64> = dreport.skipped.iter().map(|s| s.label).collect();
                prop_assert_eq!(&skipped, &victim_labels);
                prop_assert_eq!(dreport.bounds_partial, !victim_set.is_empty());
            }
        }
    }
}
