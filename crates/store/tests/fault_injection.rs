//! Deterministic storage-fault tests: the crash-point sweep (kill the
//! ingest at every write boundary; the destination is the intact old
//! store or the intact new one, never garbage), ENOSPC cleanup, bounded
//! retry of transient read faults, mmap fallback, and bit-rot
//! quarantine under degraded queries. All faults are injected through
//! [`blazr_util::vfs::FaultyVfs`], so every scenario is reproducible.

use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Query, Store, StoreError, StoreWriter};
use blazr_telemetry as tel;
use blazr_tensor::NdArray;
use blazr_util::vfs::{FaultOp, FaultyVfs, OsVfs, Vfs};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("blazr-store-faults").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Telemetry mode is process-global; tests that flip it must not
/// interleave, or one test's `Mode::Off` would stop another's counting.
static TEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tel_lock() -> std::sync::MutexGuard<'static, ()> {
    TEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn frames() -> Vec<(u64, NdArray<f64>)> {
    (0..4u64)
        .map(|t| {
            let f = NdArray::from_fn(vec![12, 12], |i| {
                ((i[0] as f64 + t as f64) / 3.0).sin() + i[1] as f64 * 0.05
            });
            (t * 10, f)
        })
        .collect()
}

/// Runs a full ingest (create, append every frame, finish) through the
/// given [`Vfs`].
fn ingest_through(vfs: Arc<dyn Vfs>, path: &Path) -> Result<(), StoreError> {
    let mut w = StoreWriter::create_with(
        vfs,
        path,
        Settings::new(vec![4, 4]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )?;
    for (label, frame) in frames() {
        w.append(label, &frame)?;
    }
    w.finish()
}

/// Temp files the atomic ingest may have left in `dir`.
fn leftover_tmp_files(dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
        .collect()
}

/// The crash-point sweep: inject a hard or torn failure at **every**
/// write boundary of the ingest (plus every sync, rename, and
/// directory-sync), and assert after each that the destination holds
/// either the intact old store or the intact new one — never garbage —
/// and that no temp file survives.
#[test]
fn crash_point_sweep_never_leaves_garbage() {
    let dir = tmp_dir("sweep");
    let dest = dir.join("store.blzs");

    // Seed an intact "old" store at the destination, then dry-run one
    // clean ingest through a counting VFS to enumerate every boundary.
    ingest_through(Arc::new(OsVfs), &dest).unwrap();
    let old = fs::read(&dest).unwrap();
    let probe = FaultyVfs::os();
    let probe_dest = dir.join("probe.blzs");
    ingest_through(Arc::new(probe.clone()), &probe_dest).unwrap();
    let writes = probe.script().op_count(FaultOp::Write);
    let syncs = probe.script().op_count(FaultOp::Sync);
    let renames = probe.script().op_count(FaultOp::Rename);
    let dir_syncs = probe.script().op_count(FaultOp::SyncDir);
    assert!(writes >= 10, "expected many write boundaries, got {writes}");
    // The ingest is deterministic, so the probe's output doubles as the
    // expected "new" store image.
    let new = fs::read(&probe_dest).unwrap();
    fs::remove_file(&probe_dest).unwrap();

    let check = |ctx: &str| {
        let bytes = fs::read(&dest).unwrap();
        assert!(
            bytes == old || bytes == new,
            "{ctx}: destination is neither the old store nor the new one \
             ({} bytes)",
            bytes.len()
        );
        Store::open(&dest).unwrap_or_else(|e| panic!("{ctx}: destination unreadable: {e}"));
        let debris = leftover_tmp_files(&dir);
        assert!(
            debris.is_empty(),
            "{ctx}: temp files left behind: {debris:?}"
        );
    };

    let mut points = 0u64;
    for n in 0..writes {
        // A hard ENOSPC, a fully torn write (nothing lands), and a torn
        // write that persists a 33-byte prefix.
        for what in ["enospc", "torn-0", "torn-33"] {
            let vfs = FaultyVfs::os();
            let script = vfs.script();
            match what {
                "enospc" => script.fail_nth(FaultOp::Write, n, std::io::ErrorKind::StorageFull),
                "torn-0" => script.tear(FaultOp::Write, n, 0),
                _ => script.tear(FaultOp::Write, n, 33),
            }
            let err = ingest_through(Arc::new(vfs), &dest);
            assert!(err.is_err(), "write {n} ({what}): fault did not surface");
            check(&format!("write {n} ({what})"));
            points += 1;
        }
    }
    for n in 0..syncs {
        let vfs = FaultyVfs::os();
        vfs.script()
            .fail_nth(FaultOp::Sync, n, std::io::ErrorKind::Other);
        assert!(ingest_through(Arc::new(vfs), &dest).is_err());
        check(&format!("sync {n}"));
        points += 1;
    }
    for n in 0..renames {
        let vfs = FaultyVfs::os();
        vfs.script()
            .fail_nth(FaultOp::Rename, n, std::io::ErrorKind::Other);
        assert!(ingest_through(Arc::new(vfs), &dest).is_err());
        check(&format!("rename {n}"));
        points += 1;
    }
    for n in 0..dir_syncs {
        // The directory sync happens after the rename: the ingest
        // reports failure, but the destination already holds the new
        // store — which is exactly what `check` permits.
        let vfs = FaultyVfs::os();
        vfs.script()
            .fail_nth(FaultOp::SyncDir, n, std::io::ErrorKind::Other);
        assert!(ingest_through(Arc::new(vfs), &dest).is_err());
        check(&format!("sync_dir {n}"));
        points += 1;
    }
    println!(
        "fault-sweep: {points} crash points over {writes} writes / {syncs} syncs / \
         {renames} renames / {dir_syncs} dir-syncs: destination always intact"
    );
}

/// ENOSPC (or any fault) aborting an ingest into a directory with no
/// pre-existing store must leave that directory completely empty — the
/// destination never created, the temp file unlinked by `Drop` even
/// though `finish()` never ran. Swept across every write boundary,
/// including index 0 (the header write inside `create`).
#[test]
fn aborted_ingest_leaves_the_directory_clean() {
    let probe_dir = tmp_dir("clean-probe");
    let probe = FaultyVfs::os();
    ingest_through(Arc::new(probe.clone()), &probe_dir.join("probe.blzs")).unwrap();
    let writes = probe.script().op_count(FaultOp::Write);

    let dir = tmp_dir("clean");
    let dest = dir.join("store.blzs");
    for n in 0..writes {
        let vfs = FaultyVfs::os();
        vfs.script()
            .fail_nth(FaultOp::Write, n, std::io::ErrorKind::StorageFull);
        let err = ingest_through(Arc::new(vfs), &dest).unwrap_err();
        assert!(
            matches!(err, StoreError::Io(_)),
            "write {n}: expected an I/O error, got {err:?}"
        );
        let entries: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            entries.is_empty(),
            "write {n}: aborted ingest left debris: {entries:?}"
        );
    }
    // A failing `create` itself also leaves nothing behind.
    let vfs = FaultyVfs::os();
    vfs.script()
        .fail_nth(FaultOp::Create, 0, std::io::ErrorKind::PermissionDenied);
    assert!(ingest_through(Arc::new(vfs), &dest).is_err());
    assert!(fs::read_dir(&dir).unwrap().next().is_none());
    println!("fault-sweep: {writes} aborted ingests left the directory clean");
}

/// Transient (EINTR-style) read faults are retried with bounded backoff
/// and the telemetry counters record both the retries and a give-up.
#[test]
fn transient_read_faults_retry_then_give_up() {
    let dir = tmp_dir("transient");
    let dest = dir.join("store.blzs");
    ingest_through(Arc::new(OsVfs), &dest).unwrap();

    let _serial = tel_lock();
    tel::set_mode(tel::Mode::Counters);
    let vfs = FaultyVfs::os();
    // FaultyVfs never memory-maps, so every read goes through the
    // faultable positional path.
    let store = Store::open_with(&vfs, &dest).unwrap();
    assert_eq!(store.backing_kind(), "file");

    // Two consecutive failures: the default 3-attempt policy absorbs
    // them and the read succeeds.
    let script = vfs.script();
    script.transient(FaultOp::Read, script.op_count(FaultOp::Read), 2);
    store.chunk(0).unwrap();

    // More failures than the budget: the read gives up with an I/O
    // error (not a panic, not corruption).
    script.transient(FaultOp::Read, script.op_count(FaultOp::Read), 16);
    match store.chunk(1) {
        Err(StoreError::Io(msg)) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("expected an I/O give-up, got {other:?}"),
    }
    script.clear();
    store.chunk(1).unwrap();

    let snap = tel::registry().snapshot();
    let retries = snap.counter("store.io.retries").unwrap_or(0);
    let giveups = snap.counter("store.io.giveups").unwrap_or(0);
    assert!(retries >= 4, "expected ≥4 retries, saw {retries}");
    assert!(giveups >= 1, "expected ≥1 give-up, saw {giveups}");
    println!("retry: {retries} transient retries, {giveups} give-ups");
    tel::set_mode(tel::Mode::Off);
}

/// An mmap that *errors* (as opposed to being unsupported) must not fail
/// the open: the store falls back to positional reads, flags the handle,
/// counts the fallback, and answers queries bit-identically.
#[test]
fn mmap_failure_falls_back_to_positional_reads() {
    let dir = tmp_dir("mmap");
    let dest = dir.join("store.blzs");
    ingest_through(Arc::new(OsVfs), &dest).unwrap();
    let reference = Store::open(&dest)
        .unwrap()
        .query(&Query::all(Aggregate::Sum))
        .unwrap();

    let _serial = tel_lock();
    tel::set_mode(tel::Mode::Counters);
    let vfs = FaultyVfs::os();
    vfs.script()
        .fail_nth(FaultOp::Mmap, 0, std::io::ErrorKind::OutOfMemory);
    let store = Store::open_with(&vfs, &dest).unwrap();
    assert!(store.mmap_fell_back());
    assert_eq!(store.backing_kind(), "file");
    let r = store.query(&Query::all(Aggregate::Sum)).unwrap();
    assert_eq!(r.value.to_bits(), reference.value.to_bits());
    assert_eq!(r.matched_labels, reference.matched_labels);
    let snap = tel::registry().snapshot();
    assert!(snap.counter("store.open.mmap_fallback").unwrap_or(0) >= 1);
    println!(
        "mmap-fallback: open survived a failing map ({} fallbacks recorded)",
        snap.counter("store.open.mmap_fallback").unwrap_or(0)
    );
    tel::set_mode(tel::Mode::Off);
}

/// The salvage open takes the same map-or-positional step as the normal
/// open: on a store with a damaged footer, a failing map falls back to
/// positional reads, flags the handle and counts the fallback, and the
/// salvage still recovers every chunk.
#[test]
fn salvage_open_records_an_mmap_fallback() {
    let dir = tmp_dir("salvage-mmap");
    let dest = dir.join("store.blzs");
    ingest_through(Arc::new(OsVfs), &dest).unwrap();
    let mut bytes = fs::read(&dest).unwrap();
    let n = bytes.len();
    bytes[n - 16..].fill(0xAA);
    fs::write(&dest, &bytes).unwrap();

    let _serial = tel_lock();
    tel::set_mode(tel::Mode::Counters);
    let before = tel::registry()
        .snapshot()
        .counter("store.open.mmap_fallback")
        .unwrap_or(0);
    let vfs = FaultyVfs::os();
    vfs.script()
        .fail_nth(FaultOp::Mmap, 0, std::io::ErrorKind::OutOfMemory);
    let (store, report) = Store::open_salvage_with(&vfs, &dest).unwrap();
    let after = tel::registry()
        .snapshot()
        .counter("store.open.mmap_fallback")
        .unwrap_or(0);
    tel::set_mode(tel::Mode::Off);
    assert!(!report.footer_intact);
    assert_eq!(report.recovered, frames().len());
    assert!(store.mmap_fell_back());
    assert_eq!(store.backing_kind(), "file");
    assert_eq!(after - before, 1, "the salvage open counts its fallback");
    println!(
        "mmap-fallback: salvage open survived a failing map ({} chunks recovered)",
        report.recovered
    );
}

/// Bit rot under a live reader: a strict query refuses, a degraded query
/// quarantines exactly the rotten chunk, reports it, and bumps the
/// quarantine counter. The file itself is untouched (the flips live in
/// the VFS), so a clean reopen still sees good data.
#[test]
fn bit_rot_is_quarantined_by_degraded_queries() {
    let dir = tmp_dir("rot");
    let dest = dir.join("store.blzs");
    ingest_through(Arc::new(OsVfs), &dest).unwrap();
    let clean = Store::open(&dest).unwrap();
    let victim = 2usize;
    let victim_label = clean.entries()[victim].label;
    let victim_rows = clean.entries()[victim].zone.stats.count;
    let flip_at = clean.entries()[victim].offset + 7;
    drop(clean);

    let _serial = tel_lock();
    tel::set_mode(tel::Mode::Counters);
    let vfs = FaultyVfs::os();
    vfs.flip_byte(flip_at, 0x20);
    let store = Store::open_with(&vfs, &dest).unwrap();
    let q = Query::all(Aggregate::Sum);
    assert!(matches!(store.query(&q), Err(StoreError::Corrupt(_))));

    // The checksum verdict latched on first touch, so even the degraded
    // pass keeps refusing this chunk.
    let (r, report) = store.query_degraded(&q).unwrap();
    assert!(report.is_degraded());
    assert!(report.bounds_partial);
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].label, victim_label);
    assert_eq!(report.rows_unavailable, victim_rows);
    assert!(report.fraction_unavailable() > 0.0);
    assert!(!r.matched_labels.contains(&victim_label));
    assert!(r.value.is_finite());

    let snap = tel::registry().snapshot();
    let quarantined = snap.counter("store.chunks_quarantined").unwrap_or(0);
    assert!(
        quarantined >= 1,
        "expected ≥1 quarantine, saw {quarantined}"
    );
    println!(
        "quarantine: chunk {victim_label} skipped ({} of {} rows unavailable, \
         {quarantined} quarantines recorded)",
        report.rows_unavailable, report.rows_in_range
    );
    tel::set_mode(tel::Mode::Off);

    // The rot lived in the read path, not the file.
    let reopened = Store::open(&dest).unwrap();
    reopened.chunk(victim).unwrap();
    assert!(reopened.query(&q).is_ok());
}
