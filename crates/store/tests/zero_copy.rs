//! The zero-copy read path: every backing (mmap, positional-read file,
//! in-memory buffer) serves bit-identical answers on aligned and packed
//! files at any thread count; lazy checksums still fail loudly (and permanently)
//! on corruption; the panic-path sweep regressions stay fixed.

use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Predicate, Query, Store, StoreError, StoreWriter};
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("blazr-store-zero-copy");
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

/// A ramp dataset with real pruning power (chunk `t` holds values near
/// `t`) and a non-trivial payload mix.
fn frames(chunks: u64) -> Vec<(u64, NdArray<f64>)> {
    let mut rng = Xoshiro256pp::seed_from_u64(99);
    (0..chunks)
        .map(|t| {
            let f = NdArray::from_fn(vec![12, 16], |i| {
                t as f64
                    + ((i[0] * 5 + i[1]) as f64 / 9.0).sin() * 0.3
                    + rng.uniform_in(-0.05, 0.05)
            });
            (t, f)
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

/// Builds a packed v3 file by hand: payloads back to back and unaligned,
/// with no preambles and no padding. The footer reader accepts this
/// layout, so it must read like a writer-produced file.
fn fabricate_packed_file(data: &[(u64, NdArray<f64>)]) -> Vec<u8> {
    use blazr_store::format::{encode_footer, encode_trailer, fnv1a64, HEADER_MAGIC};
    use blazr_store::{IndexEntry, ZoneMap};
    let settings = Settings::new(vec![4, 4]).unwrap();
    let mut file: Vec<u8> = HEADER_MAGIC.to_vec();
    let mut entries = Vec::new();
    for (label, frame) in data {
        let c = blazr::compress::<f32, i16>(frame, &settings).unwrap();
        let zone = ZoneMap::of(&c).unwrap();
        let bytes = c.to_bytes();
        entries.push(IndexEntry {
            label: *label,
            offset: file.len() as u64,
            len: bytes.len() as u64,
            payload_sum: fnv1a64(&bytes),
            coder: c.choose_coder(),
            zone,
        });
        file.extend_from_slice(&bytes);
    }
    assert!(
        entries.iter().any(|e| e.offset % 8 != 0),
        "a packed file should hold an unaligned payload"
    );
    let footer = encode_footer(&entries);
    let trailer = encode_trailer(&footer);
    file.extend_from_slice(&footer);
    file.extend_from_slice(&trailer);
    file
}

fn assert_bit_identical(a: &blazr_store::QueryResult, b: &blazr_store::QueryResult, what: &str) {
    assert_eq!(a.value.to_bits(), b.value.to_bits(), "{what}: value");
    assert_eq!(
        a.error_bound.to_bits(),
        b.error_bound.to_bits(),
        "{what}: bound"
    );
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.bounds, b.bounds, "{what}: bounds");
    assert_eq!(a.matched_labels, b.matched_labels, "{what}: matched set");
}

/// The acceptance-criteria matrix: mmap, positional-read, and in-memory
/// backings produce bit-identical pruned and full-scan answers on both
/// a writer-produced and a packed file at 1/2/4/8 threads.
#[test]
fn all_backings_agree_bit_identically_across_threads() {
    let data = frames(8);
    let written_path = tmp("backings-written.blzs");
    write_store(&written_path, &data);
    let packed_path = tmp("backings-packed.blzs");
    fs::write(&packed_path, fabricate_packed_file(&data)).unwrap();

    let q = Query {
        from_label: 0,
        to_label: u64::MAX,
        predicate: Some(Predicate::ValueInRange { lo: 4.5, hi: 5.5 }),
        aggregate: Aggregate::Mean,
    };
    for path in [&written_path, &packed_path] {
        let mapped = Store::open(path).unwrap();
        let unmapped = Store::open_unmapped(path).unwrap();
        let mem = Store::from_bytes(fs::read(path).unwrap()).unwrap();
        assert_eq!(unmapped.backing_kind(), "file");
        assert_eq!(mem.backing_kind(), "memory");
        let reference = with_threads(1, || mapped.query_full_scan(&q).unwrap());
        assert!(reference.chunks_scanned >= 1);
        for n in [1usize, 2, 4, 8] {
            for store in [&mapped, &unmapped, &mem] {
                let kind = store.backing_kind();
                let pruned = with_threads(n, || store.query(&q).unwrap());
                let full = with_threads(n, || store.query_full_scan(&q).unwrap());
                assert!(pruned.chunks_pruned >= 1, "{kind}@{n}: nothing pruned");
                assert_bit_identical(&pruned, &reference, &format!("{kind}@{n} pruned"));
                assert_bit_identical(&full, &reference, &format!("{kind}@{n} full"));
            }
        }
        // Raw chunk bytes and header peeks agree across backings too.
        for i in 0..mapped.len() {
            let bytes = mapped.chunk_bytes(i).unwrap();
            assert_eq!(bytes, unmapped.chunk_bytes(i).unwrap());
            assert_eq!(bytes, mem.chunk_bytes(i).unwrap());
            mapped
                .with_chunk_bytes(i, |b| assert_eq!(b, &bytes[..]))
                .unwrap();
            assert_eq!(
                mapped.chunk_info(i).unwrap().shape,
                unmapped.chunk_info(i).unwrap().shape
            );
        }
    }
}

/// v3 writers align every chunk to an 8-byte boundary; the gap before a
/// payload holds zero padding plus the 32-byte chunk preamble, both
/// invisible to the index and to readers.
#[test]
fn payloads_are_aligned_and_the_preamble_gap_is_transparent() {
    use blazr_store::format::{decode_preamble, fnv1a64, PREAMBLE_LEN};
    let data = frames(6);
    let p = tmp("aligned.blzs");
    write_store(&p, &data);
    let store = Store::open(&p).unwrap();
    let mut padding = 0;
    let mut watermark = 8u64; // header magic
    for e in store.entries() {
        assert_eq!(
            e.offset % blazr_store::format::CHUNK_ALIGN,
            0,
            "chunk at offset {} is unaligned",
            e.offset
        );
        assert!(e.offset >= watermark);
        padding += e.offset - watermark;
        watermark = e.offset + e.len;
    }
    // Each gap holds zero padding then the chunk's self-describing
    // preamble, ending exactly at the payload (none of it counted as
    // payload by the index).
    let bytes = fs::read(&p).unwrap();
    let mut prev_end = 8usize;
    for e in store.entries() {
        let pre_at = e.offset as usize - PREAMBLE_LEN;
        assert!(bytes[prev_end..pre_at].iter().all(|&b| b == 0));
        let (label, len, sum) = decode_preamble(&bytes[pre_at..]).expect("preamble before payload");
        assert_eq!(label, e.label);
        assert_eq!(len, e.len);
        assert_eq!(sum, e.payload_sum);
        let payload = &bytes[e.offset as usize..(e.offset + e.len) as usize];
        assert_eq!(fnv1a64(payload), sum);
        prev_end = (e.offset + e.len) as usize;
    }
    assert_eq!(
        store.file_bytes(),
        bytes.len() as u64,
        "file length bookkeeping"
    );
    assert!(store.payload_bytes() + padding <= store.file_bytes());
    // Padded files still roundtrip chunk-for-chunk.
    for (i, (_, frame)) in data.iter().enumerate() {
        assert_eq!(store.chunk(i).unwrap().shape(), frame.shape());
    }
}

/// Regression: out-of-range chunk indices used to panic via direct
/// indexing; the checked accessors (and every payload accessor) now
/// return `InvalidArgument`.
#[test]
fn out_of_range_chunk_indices_error_instead_of_panicking() {
    let p = tmp("range.blzs");
    write_store(&p, &frames(3));
    let store = Store::open(&p).unwrap();
    let n = store.len();
    assert!(matches!(
        store.try_chunk_coder(n),
        Err(StoreError::InvalidArgument(_))
    ));
    assert!(matches!(
        store.try_zone_map(n),
        Err(StoreError::InvalidArgument(_))
    ));
    assert!(matches!(
        store.chunk(n),
        Err(StoreError::InvalidArgument(_))
    ));
    assert!(matches!(
        store.chunk_bytes(usize::MAX),
        Err(StoreError::InvalidArgument(_))
    ));
    assert!(matches!(
        store.chunk_info(n),
        Err(StoreError::InvalidArgument(_))
    ));
    // In-range still works, through both flavors.
    assert_eq!(store.try_chunk_coder(0).unwrap(), store.chunk_coder(0));
    assert_eq!(store.try_zone_map(0).unwrap(), store.zone_map(0));
}

/// Regression: `largest_jump` panicked on NaN distances
/// (`partial_cmp(..).expect("finite distances")`). Overflowing f16
/// chunks decode to non-finite values whose adjacent-L2 distances are
/// NaN; the total-order comparison now surfaces the NaN pair instead.
#[test]
fn largest_jump_survives_nan_distances() {
    let p = tmp("nan-jump.blzs");
    let mut w = StoreWriter::create(
        &p,
        Settings::new(vec![8, 8]).unwrap(),
        ScalarType::F16,
        IndexType::I16,
    )
    .unwrap();
    // Each chunk compresses cleanly (DC ≈ ±8·5000 = ±40000, inside the
    // f16 range), but the adjacent difference doubles that past the f16
    // max — the paper's f16-vs-bf16 overflow observation — so the
    // combined block's scale is infinite, its rebinned coefficients
    // reconstruct as `0·inf = NaN`, and the L2 distance is NaN.
    for t in 0..3u64 {
        let sign = if t % 2 == 0 { 1.0 } else { -1.0 };
        let f = NdArray::from_fn(vec![8, 8], |_| 5000.0 * sign);
        w.append(t, &f).unwrap();
    }
    w.finish().unwrap();
    let store = Store::open(&p).unwrap();
    let dists = store.adjacent_l2().unwrap();
    assert!(
        dists.iter().any(|d| d.2.is_nan()),
        "premise: overflowing f16 chunks should produce NaN distances, got {dists:?}"
    );
    let jump = store.largest_jump().unwrap().expect("adjacent pairs exist");
    // f64 total order ranks NaN above every finite distance.
    assert!(jump.2.is_nan());
}

/// A bit-flipped payload header can never produce a silently wrong
/// `chunk_info`: the payload is checksum-verified before the peek, on
/// the zero-copy backings and the positional-read backing alike.
#[test]
fn chunk_info_on_corrupt_payload_errors_on_every_backing() {
    let data = frames(4);
    let p = tmp("info-corrupt.blzs");
    write_store(&p, &data);
    let clean = Store::open(&p).unwrap();
    let victim = 1usize;
    let mut bytes = fs::read(&p).unwrap();
    // Flip a bit inside the victim's header region (first payload byte
    // after the type tags — shape/coder territory).
    bytes[clean.entries()[victim].offset as usize + 2] ^= 0x04;
    let corrupt_path = tmp("info-corrupt-flipped.blzs");
    fs::write(&corrupt_path, &bytes).unwrap();
    for store in [
        Store::open(&corrupt_path).unwrap(),
        Store::open_unmapped(&corrupt_path).unwrap(),
        Store::from_bytes(bytes).unwrap(),
    ] {
        let kind = store.backing_kind();
        match store.chunk_info(victim) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("checksum"), "{kind}: {msg}")
            }
            other => panic!("{kind}: expected Corrupt, got {other:?}"),
        }
        // Untouched chunks still peek fine.
        assert_eq!(store.chunk_info(0).unwrap().shape, vec![12, 16]);
    }
}

/// The checksum verdict is latched once per chunk: a corrupt chunk keeps
/// erroring on every later access (no flip-flop), and a clean chunk is
/// hashed only on first touch (repeat reads stay consistent).
#[test]
fn lazy_checksum_verdict_is_latched() {
    let data = frames(4);
    let p = tmp("latch.blzs");
    write_store(&p, &data);
    let clean = Store::open(&p).unwrap();
    let victim = 2usize;
    let mut bytes = fs::read(&p).unwrap();
    let mid = clean.entries()[victim].offset + clean.entries()[victim].len / 2;
    bytes[mid as usize] ^= 0x10;
    let store = Store::from_bytes(bytes).unwrap(); // footer intact: opens
    for round in 0..3 {
        assert!(
            matches!(store.chunk(victim), Err(StoreError::Corrupt(_))),
            "round {round}: the latched failure must persist"
        );
        assert!(store.chunk(0).is_ok(), "round {round}");
        assert!(
            store.query(&Query::all(Aggregate::Sum)).is_err(),
            "round {round}: scans over the damaged chunk keep failing"
        );
    }
}
