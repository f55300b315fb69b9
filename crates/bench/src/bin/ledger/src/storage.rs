//! The store layers: ingest through `StoreWriter` (compress, write,
//! fsync, rename) and queries through `Store` (open, label search,
//! zone-map prune, checksum, decode, exact predicate, fold).

use crate::data::Inputs;
use crate::record::{tallied, Record, Tally};
use crate::{stats, trace};
use blazr::dynamic::compress_dyn;
use blazr::{IndexType, ScalarType, Settings};
use blazr_store::{Aggregate, Predicate, Query, QueryResult, Store, StoreWriter, ZoneMap};
use blazr_tensor::NdArray;
use blazr_util::rng::Xoshiro256pp;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Writes `frames` as a store at `path`, frame `t` under label `t`.
pub fn write_store(path: &Path, block: &[usize], frames: &[NdArray<f64>]) -> Result<(), String> {
    let settings = Settings::new(block.to_vec()).map_err(|e| e.to_string())?;
    let mut w = StoreWriter::create(path, settings, ScalarType::F32, IndexType::I16)
        .map_err(|e| e.to_string())?;
    for (t, frame) in frames.iter().enumerate() {
        let _s = trace::span("writer.append");
        w.append(t as u64, frame).map_err(|e| e.to_string())?;
    }
    let _s = trace::span("writer.finish");
    w.finish().map_err(|e| e.to_string())
}

fn elems(frames: &[NdArray<f64>]) -> usize {
    frames.iter().map(NdArray::len).sum()
}

/// The ingest phase: whole-store ingests of the workload's 16 Ki-element
/// frames, run in rounds, each checked byte-identical to the first.
pub struct Ingest<'a> {
    inp: &'a Inputs,
    path: PathBuf,
    times: Vec<f64>,
    first: Option<Vec<u8>>,
}

impl<'a> Ingest<'a> {
    pub fn new(inp: &'a Inputs, dir: &Path) -> Self {
        Self {
            inp,
            path: dir.join("ingest.blzs"),
            times: Vec::new(),
            first: None,
        }
    }

    /// Ingests until `budget` is spent (at least one).
    pub fn round(&mut self, budget: Duration, rec: &mut Record) {
        let deadline = Instant::now() + budget;
        loop {
            let t = Instant::now();
            let written = write_store(&self.path, &self.inp.block, &self.inp.frames);
            self.times.push(t.elapsed().as_secs_f64());
            let bytes = written.and_then(|()| std::fs::read(&self.path).map_err(|e| e.to_string()));
            match (bytes, &self.first) {
                (Err(e), _) => {
                    rec.check(false, || format!("ingest: {e}"));
                }
                (Ok(b), Some(f)) => {
                    rec.check(&b == f, || {
                        "ingest is not byte-identical across runs".into()
                    });
                }
                (Ok(b), None) => self.first = Some(b),
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    }

    pub fn finish(self, dir: &Path, traced: bool, rec: &mut Record) {
        let n = elems(&self.inp.frames);
        let best = stats::min(&self.times);
        rec.put("ingest_melem_s", n as f64 / 1e6 / best, "Melem/s");
        rec.samples("ingest_melem_s", self.times.len());
        let file_bytes = self.first.as_ref().map_or(0, Vec::len);
        rec.put(
            "store_bits_per_value",
            file_bytes as f64 * 8.0 / n as f64,
            "bit/value",
        );
        if traced {
            ingest_layers(self.inp, dir, &self.path, best, rec);
        }
        std::fs::remove_file(&self.path).ok();
    }
}

fn ingest_layers(inp: &Inputs, dir: &Path, path: &Path, ingest_s: f64, rec: &mut Record) {
    // One more ingest with every append and the finish timed alone.
    let settings = Settings::new(inp.block.clone()).expect("valid block");
    let p = dir.join("ingest-timed.blzs");
    let mut w = StoreWriter::create(&p, settings.clone(), ScalarType::F32, IndexType::I16)
        .expect("create store");
    let t = Instant::now();
    for (i, f) in inp.frames.iter().enumerate() {
        w.append(i as u64, f).expect("append");
    }
    let append_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    w.finish().expect("finish");
    let finish_s = t.elapsed().as_secs_f64();
    std::fs::remove_file(&p).ok();
    rec.put(
        "writer.append_us_per_chunk",
        append_s * 1e6 / inp.frames.len() as f64,
        "us",
    );
    rec.put("writer.finish_ms", finish_s * 1e3, "ms");

    // The codec's part of an ingest: compress, zone map and serialize
    // every frame, min-of-N like the ingest itself.
    let codec_s = (0..3)
        .map(|_| {
            let t = Instant::now();
            for f in &inp.frames {
                let c =
                    compress_dyn(f, &settings, ScalarType::F32, IndexType::I16).expect("compress");
                black_box((ZoneMap::of_dyn(&c).expect("zone map"), c.to_bytes()));
            }
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    rec.put("writer.codec_share", codec_s / ingest_s, "ratio");

    if let Ok(store) = Store::open(path) {
        let file = store.file_bytes() as f64;
        rec.put(
            "store.overhead_share",
            (file - store.payload_bytes() as f64) / file,
            "ratio",
        );
    }
    // Bits per value against chunk size: the same generator cut into
    // 1 Ki, 4 Ki, 16 Ki and 64 Ki-element chunks, about a field's worth
    // of elements each.
    let mut gen = crate::data::Generator::new(inp.workload, inp.seed ^ 0x5EE9);
    for (class, side) in [32, 64, 128, 256].into_iter().enumerate() {
        let per = 1024usize << (2 * class);
        let count = (inp.scale.field_elems / per).max(4);
        let frames: Vec<NdArray<f64>> = (0..count).map(|t| gen.chunk(t, class)).collect();
        let p = dir.join(format!("sweep{class}.blzs"));
        let bpv = write_store(&p, &inp.block, &frames)
            .and_then(|()| std::fs::metadata(&p).map_err(|e| e.to_string()))
            .map(|m| m.len() as f64 * 8.0 / elems(&frames) as f64);
        match bpv {
            Ok(v) => rec.put(format!("ingest.bpv.frame{side}"), v, "bit/value"),
            Err(e) => {
                rec.check(false, || format!("chunk-size sweep: {e}"));
            }
        }
        std::fs::remove_file(&p).ok();
    }
}

/// Exact `(count, Σx, Σx²)` of each original chunk: the oracle every
/// `value ± error_bound` answer is checked against.
fn exact_partials(chunks: &[NdArray<f64>]) -> Vec<(f64, f64, f64)> {
    chunks
        .iter()
        .map(|c| {
            let s = c.as_slice();
            (
                s.len() as f64,
                s.iter().sum(),
                s.iter().map(|x| x * x).sum(),
            )
        })
        .collect()
}

const SCAN_AGGS: [Aggregate; 4] = [
    Aggregate::Sum,
    Aggregate::Mean,
    Aggregate::Variance,
    Aggregate::L2Norm,
];

fn exact(parts: &[(f64, f64, f64)], agg: Aggregate) -> f64 {
    let (n, s, s2) = parts
        .iter()
        .fold((0.0, 0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1, a.2 + p.2));
    match agg {
        Aggregate::Count => n,
        Aggregate::Sum => s,
        Aggregate::Mean => s / n,
        Aggregate::Variance => s2 / n - (s / n) * (s / n),
        Aggregate::L2Norm => s2.sqrt(),
    }
}

/// Answers of a pruned query and of its full scan must be bit-identical
/// in everything but the pruning accounting.
fn same_answer(a: &QueryResult, b: &QueryResult) -> bool {
    a.value.to_bits() == b.value.to_bits()
        && a.error_bound.to_bits() == b.error_bound.to_bits()
        && a.stats == b.stats
        && a.bounds == b.bounds
        && a.matched_labels == b.matched_labels
        && a.chunks_in_range == b.chunks_in_range
}

/// The narrow value predicate of pruned query `r`.
pub fn pruned_query(range: (f64, f64), aggregate: Aggregate) -> Query {
    Query {
        from_label: 0,
        to_label: u64::MAX,
        predicate: Some(Predicate::ValueInRange {
            lo: range.0,
            hi: range.1,
        }),
        aggregate,
    }
}

/// Width of a scan query's label window.
const SCAN_WINDOW: usize = 64;

/// The query phase, run in rounds: a warm closed loop of one caller
/// (half pruned, half scan queries), then cold opens.
pub struct Queries<'a> {
    inp: &'a Inputs,
    path: PathBuf,
    store: Store,
    /// Exact partials of the original chunks.
    parts: Vec<(f64, f64, f64)>,
    /// The warm full-range sum every cold one must equal.
    warm_full: QueryResult,
    /// Full-scan answer of each pruned query.
    reference: Vec<QueryResult>,
    rng: Xoshiro256pp,
    k: usize,
    pruned: Vec<f64>,
    scan: Vec<f64>,
    all: Vec<f64>,
    prune_ratio: Vec<f64>,
    scanned: usize,
    matched: usize,
    cold: Vec<f64>,
    opens: Vec<f64>,
    cold_queries: Vec<f64>,
    /// Program telemetry of the warm queries (traced runs).
    tally: Option<Tally>,
}

const FULL: Query = Query {
    from_label: 0,
    to_label: u64::MAX,
    predicate: None,
    aggregate: Aggregate::Sum,
};

impl<'a> Queries<'a> {
    pub fn new(inp: &'a Inputs, path: &Path, traced: bool) -> Result<Self, String> {
        let store = Store::open(path).map_err(|e| format!("open query store: {e}"))?;
        // The first full scan also latches every checksum and sizes the
        // decode scratch, so the loop below runs warm.
        let warm_full = store
            .query(&FULL)
            .map_err(|e| format!("full-range sum: {e}"))?;
        let reference = inp
            .ranges
            .iter()
            .map(|&r| store.query_full_scan(&pruned_query(r, Aggregate::Mean)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("full scan: {e}"))?;
        Ok(Self {
            inp,
            path: path.to_path_buf(),
            store,
            parts: exact_partials(&inp.chunks),
            warm_full,
            reference,
            rng: Xoshiro256pp::seed_from_u64(inp.seed ^ 0x0E1),
            k: 0,
            pruned: Vec::new(),
            scan: Vec::new(),
            all: Vec::new(),
            prune_ratio: Vec::new(),
            scanned: 0,
            matched: 0,
            cold: Vec::new(),
            opens: Vec::new(),
            cold_queries: Vec::new(),
            tally: traced.then(Tally::default),
        })
    }

    fn window(&self) -> usize {
        SCAN_WINDOW.min(self.inp.chunks.len())
    }

    fn pruned_one(&mut self, rec: &mut Record) {
        let r = self.rng.below(self.inp.ranges.len() as u64) as usize;
        let q = pruned_query(self.inp.ranges[r], Aggregate::Mean);
        let t = Instant::now();
        let got = {
            let _s = trace::span("store.query.pruned");
            self.store.query(&q)
        };
        let dt = t.elapsed().as_secs_f64() * 1e6;
        self.pruned.push(dt);
        self.all.push(dt);
        match got {
            Ok(got) => {
                rec.check(same_answer(&got, &self.reference[r]), || {
                    format!("pruned query {r} differs from its full scan")
                });
                self.prune_ratio.push(got.prune_ratio());
                self.scanned += got.chunks_scanned;
                self.matched += got.matched_labels.len();
            }
            Err(e) => {
                rec.check(false, || format!("pruned query {r}: {e}"));
            }
        }
    }

    fn scan_one(&mut self, rec: &mut Record) {
        let window = self.window();
        let s = self.rng.below((self.inp.chunks.len() - window + 1) as u64) as usize;
        let agg = SCAN_AGGS[self.k % SCAN_AGGS.len()];
        let q = Query {
            from_label: s as u64,
            to_label: (s + window - 1) as u64,
            predicate: None,
            aggregate: agg,
        };
        let t = Instant::now();
        let got = {
            let _s = trace::span("store.query.scan");
            self.store.query(&q)
        };
        let dt = t.elapsed().as_secs_f64() * 1e6;
        self.scan.push(dt);
        self.all.push(dt);
        let truth = exact(&self.parts[s..s + window], agg);
        match got {
            Ok(got) => {
                let err = (got.value - truth).abs();
                // The f32 conversion of the input is outside the binning
                // error model; allow its rounding.
                let slack = 1e-6 * truth.abs();
                rec.check(err <= got.error_bound + slack, || {
                    format!(
                        "scan {agg:?} [{s}, +{window}): error {err:e} > bound {:e}",
                        got.error_bound
                    )
                });
            }
            Err(e) => {
                rec.check(false, || format!("scan query at {s}: {e}"));
            }
        }
    }

    /// Warm queries for three quarters of `budget`, cold ones for the
    /// rest (at least one of each).
    pub fn round(&mut self, budget: Duration, rec: &mut Record) {
        let warm_end = Instant::now() + budget.mul_f64(0.75);
        let mut tally = self.tally.take();
        tallied(tally.as_mut(), || loop {
            self.k += 1;
            if self.rng.below(2) == 0 {
                self.pruned_one(rec);
            } else {
                self.scan_one(rec);
            }
            if Instant::now() >= warm_end {
                break;
            }
        });
        self.tally = tally;

        // Cold: a fresh `Store::open` and a full-range sum, as one CLI
        // `store query` does: the checksum latch starts empty every time.
        let cold_end = Instant::now() + budget.mul_f64(0.25);
        loop {
            let t = Instant::now();
            let opened = {
                let _s = trace::span("store.open");
                Store::open(&self.path)
            };
            let t_open = t.elapsed().as_secs_f64();
            let got = opened.map(|s| {
                let _s = trace::span("store.query.cold");
                s.query(&FULL)
            });
            let total = t.elapsed().as_secs_f64();
            self.cold.push(total * 1e3);
            self.opens.push(t_open * 1e6);
            self.cold_queries.push((total - t_open) * 1e6);
            let ok = matches!(&got, Ok(Ok(r)) if same_answer(r, &self.warm_full));
            rec.check(ok, || {
                "cold full-range sum differs from the warm one".into()
            });
            if Instant::now() >= cold_end {
                break;
            }
        }
    }

    pub fn finish(&self, rec: &mut Record) {
        rec.put("pruned_p50_us", stats::median(&self.pruned), "us");
        rec.put("scan_p50_us", stats::median(&self.scan), "us");
        let (pct, p99) = stats::tail(&self.all, 99.0).unwrap_or((0.0, stats::min(&self.all)));
        rec.put("query_p99_us", p99, "us");
        rec.put("cold_query_ms", stats::median(&self.cold), "ms");
        rec.samples("pruned_p50_us", self.pruned.len());
        rec.samples("scan_p50_us", self.scan.len());
        rec.samples(format!("query_p99_us (p{pct})"), self.all.len());
        rec.samples("cold_query_ms", self.cold.len());
        let Some(tally) = &self.tally else {
            return;
        };
        let chunks = self.inp.chunks.len();
        rec.put("store.open_us", stats::median(&self.opens), "us");
        let warm_full_us = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(self.store.query(&FULL).expect("full scan"));
                t.elapsed().as_secs_f64() * 1e6
            })
            .fold(f64::INFINITY, f64::min);
        rec.put(
            "store.first_touch_us_per_chunk",
            (stats::median(&self.cold_queries) - warm_full_us) / chunks as f64,
            "us",
        );
        rec.put("store.prune_ratio", stats::mean(&self.prune_ratio), "ratio");
        rec.put(
            "store.match_ratio",
            self.matched as f64 / self.scanned.max(1) as f64,
            "ratio",
        );
        let hits = tally.counter("coder.dec_pool.hits");
        rec.put(
            "coder.dec_pool_hit_rate",
            hits / (hits + tally.counter("coder.dec_pool.misses")).max(1.0),
            "ratio",
        );
        rec.put(
            "store.allocs_per_query",
            tally.mean("store.query.allocs"),
            "count",
        );
        rec.put(
            "rayon.calls_per_query",
            tally.counter("rayon.parallel_calls") / self.all.len() as f64,
            "count",
        );
        query_layers(
            self.inp,
            &self.store,
            stats::median(&self.scan),
            self.window(),
            rec,
        );
    }
}

/// Per-chunk costs of each query stage, timed by calling the store's
/// stage entry points directly.
fn query_layers(inp: &Inputs, store: &Store, scan_us: f64, window: usize, rec: &mut Record) {
    let n = store.len();
    let per_call = |reps: usize, mut f: Box<dyn FnMut(usize) + '_>| {
        let t = Instant::now();
        for i in 0..reps {
            f(i);
        }
        t.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    rec.put(
        "store.select_us",
        per_call(
            10_000,
            Box::new(|i| {
                let s = (i * 7919) % n;
                black_box(store.select(s as u64, (s + window) as u64));
            }),
        ),
        "us",
    );
    let entries = store.entries();
    rec.put(
        "store.prune_us",
        per_call(
            inp.ranges.len() * 4,
            Box::new(|i| {
                let r = inp.ranges[i % inp.ranges.len()];
                let p = Predicate::ValueInRange { lo: r.0, hi: r.1 };
                black_box(entries.iter().filter(|e| p.zone_may_match(&e.zone)).count());
            }),
        ),
        "us",
    );
    let read = per_call(
        n,
        Box::new(|i| {
            black_box(store.with_chunk_bytes(i, <[u8]>::len).expect("read"));
        }),
    );
    let mut slot = None;
    let decode = per_call(
        n,
        Box::new(|i| {
            let _s = trace::span("store.decode");
            store.chunk_into(i, &mut slot).expect("decode");
        }),
    );
    let chunks: Vec<_> = (0..n).map(|i| store.chunk(i).expect("decode")).collect();
    let fold = per_call(
        n,
        Box::new(|i| {
            black_box((
                chunks[i].stats_partial_seq().expect("stats"),
                chunks[i].error_bounds(),
            ));
        }),
    );
    rec.put("store.read_us_per_chunk", read, "us");
    rec.put("store.decode_us_per_chunk", decode, "us");
    rec.put("store.fold_us_per_chunk", fold, "us");
    rec.put(
        "store.scan_parallelism",
        (read + decode + fold) * window as f64 / scan_us,
        "ratio",
    );
    // The exact predicate on the chunks zone maps let through.
    let mut pred_us = Vec::new();
    for r in &inp.ranges {
        let p = Predicate::ValueInRange { lo: r.0, hi: r.1 };
        for (i, e) in entries.iter().enumerate() {
            if p.zone_may_match(&e.zone) {
                let t = Instant::now();
                black_box(p.matches_chunk(&chunks[i], &e.zone).expect("predicate"));
                pred_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    rec.put("store.predicate_us_per_chunk", stats::mean(&pred_us), "us");
}
