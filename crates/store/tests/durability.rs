//! Store durability: files are byte-identical at any thread count,
//! damaged files fail loudly instead of panicking, and the degenerate
//! (empty) store round-trips.

use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Query, Store, StoreError, StoreWriter};
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use std::fs;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("blazr-store-durability");
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

/// A deterministic multi-chunk dataset with a padded (non-block-multiple)
/// shape, so the parallel seams all get exercised.
fn frames() -> Vec<(u64, NdArray<f64>)> {
    let mut rng = Xoshiro256pp::seed_from_u64(42);
    (0..6u64)
        .map(|t| {
            let f = NdArray::from_fn(vec![13, 18], |i| {
                ((i[0] as f64 + t as f64) / 3.0).sin() + rng.uniform_in(-0.1, 0.1)
            });
            (t * 10, f)
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
fn file_bytes_identical_across_thread_counts() {
    let data = frames();
    let reference = {
        let p = tmp("ref.blzs");
        with_threads(1, || write_store(&p, &data));
        fs::read(&p).unwrap()
    };
    for n in [2usize, 4, 8] {
        let p = tmp(&format!("threads{n}.blzs"));
        with_threads(n, || write_store(&p, &data));
        let bytes = fs::read(&p).unwrap();
        assert_eq!(bytes, reference, "store bytes differ at {n} threads");
    }
}

#[test]
fn roundtrip_preserves_chunks_and_zone_maps() {
    let data = frames();
    let p = tmp("roundtrip.blzs");
    write_store(&p, &data);
    let store = Store::open(&p).unwrap();
    assert_eq!(store.len(), data.len());
    assert_eq!(
        store.labels(),
        data.iter().map(|(l, _)| *l).collect::<Vec<_>>()
    );
    assert_eq!(store.chunk_types(), Some((ScalarType::F32, IndexType::I16)));
    for (i, (_, frame)) in data.iter().enumerate() {
        let c = store.chunk(i).unwrap();
        assert_eq!(c.shape(), frame.shape());
        // The stored zone map equals one recomputed from the payload.
        assert_eq!(
            store.entries()[i].zone,
            blazr_store::ZoneMap::of_dyn(&c).unwrap()
        );
        // And the decompressed chunk approximates the original frame.
        let d = c.decompress();
        let err = blazr_util::stats::max_abs_diff(frame.as_slice(), d.as_slice());
        assert!(err < 1e-2, "chunk {i} roundtrip err {err}");
    }
}

#[test]
fn truncated_files_fail_with_clear_errors() {
    let data = frames();
    let p = tmp("truncate.blzs");
    write_store(&p, &data);
    let bytes = fs::read(&p).unwrap();
    // Every truncation point: a few interesting prefixes plus a sweep.
    let mut cuts = vec![0, 1, 7, 8, 9, bytes.len() / 2, bytes.len() - 1];
    cuts.extend((0..32).map(|i| bytes.len() * i / 32));
    for cut in cuts {
        let err = Store::from_bytes(bytes[..cut].to_vec());
        match err {
            Err(StoreError::Corrupt(msg)) => assert!(!msg.is_empty()),
            other => panic!("cut {cut}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_footer_fails_checksum() {
    let data = frames();
    let p = tmp("corrupt.blzs");
    write_store(&p, &data);
    let bytes = fs::read(&p).unwrap();
    let trailer_start = bytes.len() - 24;
    let footer_len =
        u64::from_le_bytes(bytes[trailer_start..trailer_start + 8].try_into().unwrap()) as usize;
    let footer_start = trailer_start - footer_len;
    // Flip one bit in several footer positions: checksum must catch each.
    for delta in [0, footer_len / 3, footer_len - 1] {
        let mut bad = bytes.clone();
        bad[footer_start + delta] ^= 0x40;
        match Store::from_bytes(bad) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("checksum"), "unexpected message: {msg}")
            }
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }
    // A corrupted trailer length field fails geometry validation.
    let mut bad = bytes.clone();
    bad[trailer_start] ^= 0xFF;
    assert!(matches!(
        Store::from_bytes(bad),
        Err(StoreError::Corrupt(_))
    ));
    // A hostile chunk count under a re-sealed (valid) trailer checksum
    // fails the footer size check instead of overflowing it.
    let mut bad = bytes.clone();
    bad[footer_start..footer_start + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    let trailer = blazr_store::format::encode_trailer(&bad[footer_start..trailer_start]);
    bad[trailer_start..].copy_from_slice(&trailer);
    assert!(matches!(
        Store::from_bytes(bad),
        Err(StoreError::Corrupt(_))
    ));
    // Corrupted header magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0x01;
    assert!(matches!(
        Store::from_bytes(bad),
        Err(StoreError::Corrupt(_))
    ));
    // A pre-v3 magic is refused by every open path, naming the magic.
    for magic in blazr_store::format::PRE_V3_MAGICS {
        let mut old = bytes.clone();
        old[..8].copy_from_slice(magic);
        let old_path = tmp("pre-v3.blzs");
        fs::write(&old_path, &old).unwrap();
        let name = String::from_utf8_lossy(magic).into_owned();
        for got in [
            Store::from_bytes(old.clone()).err(),
            Store::open(&old_path).err(),
            Store::salvage_from_bytes(old).err(),
        ] {
            match got {
                Some(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("pre-v3") && msg.contains(&name), "{msg}")
                }
                other => panic!("{name}: expected a pre-v3 refusal, got {other:?}"),
            }
        }
    }
}

#[test]
fn garbage_and_unfinished_files_are_rejected() {
    assert!(Store::from_bytes(vec![]).is_err());
    assert!(Store::from_bytes(vec![0xAB; 200]).is_err());
    // Ingest is atomic: an unfinished writer never creates the
    // destination, removes its temp file, and leaves any pre-existing
    // store untouched.
    let p = tmp("unfinished.blzs");
    write_store(&p, &frames()); // a good store already at the path
    let good_bytes = fs::read(&p).unwrap();
    let mut w = StoreWriter::create(
        &p,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .unwrap();
    w.append(0, &NdArray::from_fn(vec![8, 8], |i| i[0] as f64))
        .unwrap();
    let temp_files = |dir: &std::path::Path| -> Vec<PathBuf> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|f| {
                let name = f.file_name().unwrap().to_string_lossy().into_owned();
                name.starts_with("unfinished.blzs.") && name.ends_with(".tmp")
            })
            .collect()
    };
    let dir = p.parent().unwrap().to_path_buf();
    assert_eq!(
        temp_files(&dir).len(),
        1,
        "writer streams into a unique <path>.<pid>.<nonce>.tmp"
    );
    drop(w);
    assert!(
        temp_files(&dir).is_empty(),
        "abandoned ingest cleans up its temp file"
    );
    assert_eq!(
        fs::read(&p).unwrap(),
        good_bytes,
        "abandoned ingest must not clobber the existing store"
    );
    // A file that is a truncated torso (simulating a crash that somehow
    // landed on the destination) is still rejected.
    let torso = &good_bytes[..good_bytes.len() / 2];
    assert!(matches!(
        Store::from_bytes(torso.to_vec()),
        Err(StoreError::Corrupt(_))
    ));
}

#[test]
fn corrupted_payload_fails_on_chunk_read_not_open() {
    // The trailer checksum covers the footer; payload bit rot is caught
    // by the per-chunk checksum when (and only when) that chunk is read.
    let data = frames();
    let p = tmp("payload.blzs");
    write_store(&p, &data);
    let store = Store::open(&p).unwrap();
    let victim = 2;
    let offset = store.entries()[victim].offset + 5;
    let mut bytes = fs::read(&p).unwrap();
    bytes[offset as usize] ^= 0x10;
    let store = Store::from_bytes(bytes).unwrap(); // footer intact: opens
                                                   // Footer-only operations still work…
    assert_eq!(store.len(), data.len());
    assert!(store.entries()[victim].zone.stats.count > 0);
    // …but reading the damaged chunk fails loudly,
    match store.chunk(victim) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
        other => panic!("expected payload checksum failure, got {other:?}"),
    }
    // undamaged chunks still decode,
    assert!(store.chunk(0).is_ok());
    // and any scan that would consume the damaged chunk surfaces the
    // error instead of aggregating garbage.
    assert!(store.query(&Query::all(Aggregate::Sum)).is_err());
}

#[test]
fn empty_store_roundtrips() {
    let p = tmp("empty.blzs");
    let w = StoreWriter::create(
        &p,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F64,
        IndexType::I8,
    )
    .unwrap();
    assert!(w.is_empty());
    w.finish().unwrap();
    let store = Store::open(&p).unwrap();
    assert!(store.is_empty());
    assert_eq!(store.len(), 0);
    assert_eq!(store.chunk_types(), None);
    assert_eq!(store.payload_bytes(), 0);
    assert!(store.labels().is_empty());
    assert_eq!(store.largest_jump().unwrap(), None);
    assert!(store.adjacent_l2().unwrap().is_empty());
    // Queries over an empty store return the empty aggregate.
    let r = store.query(&Query::all(Aggregate::Count)).unwrap();
    assert_eq!(r.value, 0.0);
    assert_eq!(r.chunks_in_range, 0);
    assert!(r.matched_labels.is_empty());
    // And a series cannot be built from it (settings unknown).
    assert!(store.to_series::<f64, i8>().is_err());
}

#[test]
fn out_of_order_labels_rejected_at_append() {
    let p = tmp("order.blzs");
    let mut w = StoreWriter::create(
        &p,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .unwrap();
    let f = NdArray::from_fn(vec![8, 8], |i| i[1] as f64);
    w.append(5, &f).unwrap();
    assert!(matches!(
        w.append(5, &f),
        Err(StoreError::InvalidArgument(_))
    ));
    assert!(matches!(
        w.append(4, &f),
        Err(StoreError::InvalidArgument(_))
    ));
    w.append(6, &f).unwrap();
}

#[test]
fn dc_less_settings_rejected_at_create() {
    let p = tmp("nodc.blzs");
    let settings = Settings::new(vec![4, 4])
        .unwrap()
        .with_transform(blazr::TransformKind::Identity);
    assert!(matches!(
        StoreWriter::create(&p, settings, ScalarType::F32, IndexType::I16),
        Err(StoreError::InvalidArgument(_))
    ));
}

#[test]
fn series_bridge_roundtrips_on_disk() {
    use blazr::series::CompressedSeries;
    let mut series = CompressedSeries::<f32, i16>::new(Settings::new(vec![4, 4]).unwrap());
    for (label, frame) in frames() {
        series.push(label, &frame).unwrap();
    }
    let p = tmp("series.blzs");
    blazr_store::write_series(&p, &series).unwrap();
    let store = Store::open(&p).unwrap();
    // §VI analyses on disk match the in-memory series.
    let disk_jump = store.largest_jump().unwrap().unwrap();
    let mem_jump = series.largest_jump().unwrap().unwrap();
    assert_eq!((disk_jump.0, disk_jump.1), (mem_jump.0, mem_jump.1));
    assert!((disk_jump.2 - mem_jump.2).abs() < 1e-3);
    // And the series read back is frame-for-frame identical.
    let back = store.to_series::<f32, i16>().unwrap();
    assert_eq!(back.len(), series.len());
    assert_eq!(back.labels(), series.labels());
    for i in 0..series.len() {
        assert_eq!(back.frame(i), series.frame(i));
    }
    // Reading at the wrong type pair fails cleanly.
    assert!(store.to_series::<f64, i16>().is_err());
}

#[test]
fn fresh_files_record_per_chunk_coders() {
    let data = frames();
    let p = tmp("coder-tags.blzs");
    write_store(&p, &data);
    let store = Store::open(&p).unwrap();
    assert_eq!(
        &fs::read(&p).unwrap()[..8],
        blazr_store::format::HEADER_MAGIC
    );
    for i in 0..store.len() {
        // The footer's coder tag must echo the stream's own prologue.
        let bytes = store.chunk_bytes(i).unwrap();
        assert_eq!(
            blazr::serialize::peek_coder(&bytes),
            Some(store.entries()[i].coder),
            "chunk {i}"
        );
        assert_eq!(store.chunk_info(i).unwrap().coder, store.entries()[i].coder);
    }
}

#[test]
fn corrupted_rans_payload_fails_on_chunk_read() {
    // Smooth frames so the writer actually picks the rANS coder.
    let data: Vec<(u64, NdArray<f64>)> = (0..3u64)
        .map(|t| {
            let f = NdArray::from_fn(vec![16, 16], |i| {
                ((i[0] + i[1]) as f64 * 0.07 + t as f64).sin()
            });
            (t, f)
        })
        .collect();
    let p = tmp("rans-corrupt.blzs");
    write_store(&p, &data);
    let clean = Store::open(&p).unwrap();
    let victim = (0..clean.len())
        .find(|&i| clean.entries()[i].coder == blazr::Coder::Rans)
        .expect("smooth data should entropy-code");
    let e_offset = clean.entries()[victim].offset as usize;
    let e_len = clean.entries()[victim].len as usize;
    let mut bytes = fs::read(&p).unwrap();
    bytes[e_offset + e_len / 2] ^= 0x20;
    let store = Store::from_bytes(bytes).unwrap(); // footer is intact
                                                   // The payload checksum catches the flip before the rANS decoder
                                                   // even runs; other chunks stay readable.
    assert!(matches!(store.chunk(victim), Err(StoreError::Corrupt(_))));
    for i in 0..store.len() {
        if i != victim {
            store.chunk(i).unwrap();
        }
    }
}
