//! Steady-state allocation audit for the zero-copy read path: after
//! warm-up (checksum latches set, decode scratch sized), a query on the
//! mmap backing costs a small constant number of heap allocations (the
//! result vectors, 3 as measured), independent of chunk count and payload
//! bytes. The pre-zero-copy read path allocated per chunk per query
//! (payload copy + decode buffers + rANS table expansion): ~150 on this
//! dataset.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test: no other test's allocations can land in the count.

#![allow(unsafe_code)] // the allocation-counting GlobalAlloc below

use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Query, Store, StoreWriter};
use blazr_telemetry as tel;
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the
// counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` guarantees pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_mapped_query_allocates_a_constant_few_times() {
    // The 16-chunk 64x64 ramp (chunk `t` holds `t ± 0.4`).
    let path = std::env::temp_dir().join(format!("blazr-alloc-audit-{}.blzs", std::process::id()));
    let mut w = StoreWriter::create(
        &path,
        Settings::new(vec![8, 8]).unwrap(),
        ScalarType::F32,
        IndexType::I16,
    )
    .unwrap();
    let mut rng = Xoshiro256pp::seed_from_u64(77);
    for t in 0..16u64 {
        let frame = NdArray::from_fn(vec![64, 64], |_| t as f64 + rng.uniform_in(-0.4, 0.4));
        w.append(t, &frame).unwrap();
    }
    w.finish().unwrap();

    let store = Store::open(&path).unwrap();
    assert!(!store.mmap_fell_back(), "the kernel refused the mapping");
    if store.backing_kind() != "mmap" {
        // The mmap shim covers Linux on x86_64/aarch64 only; elsewhere
        // there is no mapped path to audit.
        return;
    }
    let q = Query::all(Aggregate::Variance);

    // Feed the same counter to the telemetry layer, so `store.query`
    // records its own per-query allocation delta into the
    // `store.query.allocs` histogram: the audit cross-checks the
    // library's self-report against the direct measurement.
    tel::set_alloc_probe(|| ALLOCS.load(Ordering::Relaxed));
    tel::set_mode(tel::Mode::Counters);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let (per_query, self_report) = pool.install(|| {
        // Warm-up also absorbs telemetry's one-time registration and
        // shard allocations, keeping them out of the steady-state count.
        store.query(&q).unwrap();
        store.query(&q).unwrap();
        tel::registry().reset();
        const RUNS: u64 = 32;
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..RUNS {
            std::hint::black_box(store.query(&q).unwrap());
        }
        let per_query = (ALLOCS.load(Ordering::Relaxed) - before) / RUNS;
        let self_report = tel::registry()
            .snapshot()
            .histogram("store.query.allocs")
            .map(|h| h.mean())
            .unwrap_or(f64::NAN);
        (per_query, self_report)
    });
    tel::set_mode(tel::Mode::Off);
    drop(store);
    std::fs::remove_file(&path).ok();

    println!(
        "alloc-audit: {per_query} heap allocations per steady-state mapped query \
         (telemetry self-report: {self_report:.1})"
    );
    assert!(
        per_query <= 8,
        "steady-state mapped query made {per_query} allocations \
         (want ~3, the result vectors: the zero-copy path regressed)"
    );
    assert!(
        self_report.is_finite() && self_report <= per_query as f64,
        "store.query.allocs self-report ({self_report}) disagrees with \
         the direct audit ({per_query}): the probe hookup broke"
    );
}
