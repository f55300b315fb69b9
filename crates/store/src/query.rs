//! Query execution: label-range selection, zone-map predicate pushdown,
//! and chunk-by-chunk compressed-space aggregation. [`Query::parse`],
//! [`Store::run`] and [`encode_query_body`] are the one parser, runner
//! and answer body behind `store query`, `telemetry` and `/query`.
//!
//! A query runs in three stages:
//!
//! 1. **Select** — binary-search the sorted labels for `[from, to]`.
//! 2. **Prune** — drop chunks whose zone map, widened by its error
//!    bound, cannot satisfy the predicate. Pruned chunks' payload bytes
//!    are never read.
//! 3. **Answer** — fold the survivors' [`ChunkStats`]/[`ErrorBounds`]
//!    partials **in chunk order**. Where the zone map decides the
//!    predicate (none, or [`Predicate::MeanInRange`], whose exact test
//!    *is* the zone test), each survivor is answered from its footer
//!    zone map once its payload checksum passes, on the calling thread
//!    and without a decode: the footer is the chunk's second compressed
//!    form, and the determinism contract makes it bit-identical to what
//!    a decode recomputes. A [`Predicate::ValueInRange`] query, and every
//!    [`QueryOptions::full_scan`], decode the survivors in parallel,
//!    recompute each one's zone map from its payload, and re-evaluate
//!    the predicate *exactly* on it (per-block, still in compressed
//!    space), reading nothing from the footer.
//!
//! Stage 3's exact re-evaluation is what makes pruning transparent: the
//! zone map is a superset filter (its chunk-level hull covers every
//! block envelope), so a pruned run and a full scan admit exactly the
//! same chunks and — because partials combine in chunk order, per the
//! PR-2 determinism contract — produce **bit-identical** aggregates at
//! any thread count. The full scan stays the decode-and-recompute
//! reference that footer answers are tested against, and `store verify`
//! checks every footer zone map against its decoded payload.

use crate::error::StoreError;
use crate::store::Store;
use crate::zonemap::ZoneMap;
use blazr::dynamic::DynCompressed;
use blazr::ops::{ChunkStats, ErrorBounds};
use blazr_telemetry::{self as tel, escape_json, json_f64};
use rayon::prelude::*;
use std::cell::RefCell;

std::thread_local! {
    /// Per-thread decode scratch for the scan stage. Chunks of one store
    /// share geometry and settings, so after the first chunk a thread
    /// decodes, every later [`Store::chunk_into`] takes the header-match
    /// fast path and reuses these buffers — on a mapped store the
    /// steady-state scan performs no per-chunk heap allocation (payload
    /// bytes are borrowed, decode output lands here).
    static SCAN_SCRATCH: RefCell<Option<DynCompressed>> = const { RefCell::new(None) };
}

/// One scanned chunk's outcome.
enum Scanned {
    /// The chunk matched: label and partials for the chunk-order fold.
    Match(u64, ChunkStats, ErrorBounds),
    /// The exact predicate rejected the chunk.
    NoMatch,
    /// Degraded mode quarantined the chunk: it failed to read, verify,
    /// or decode, and the query is proceeding without it.
    Skipped {
        label: u64,
        rows: u64,
        reason: String,
    },
}

/// A chunk-level predicate on the data values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Keep chunks that may hold an element in `[lo, hi]` (each side
    /// widened by the chunk's per-element error bound, so no chunk whose
    /// *original* data matches is ever dropped). Exact evaluation tests
    /// each block's value envelope; the zone map tests the chunk hull.
    ValueInRange {
        /// Inclusive lower value bound (`-inf` for "no bound").
        lo: f64,
        /// Inclusive upper value bound (`+inf` for "no bound").
        hi: f64,
    },
    /// Keep chunks whose mean lies in `[lo, hi]`, widened by the chunk's
    /// mean error bound.
    MeanInRange {
        /// Inclusive lower mean bound.
        lo: f64,
        /// Inclusive upper mean bound.
        hi: f64,
    },
}

impl Predicate {
    /// Zone-map test: may this chunk match? `false` is a safe prune.
    pub fn zone_may_match(&self, zone: &ZoneMap) -> bool {
        match *self {
            Predicate::ValueInRange { lo, hi } => zone.may_contain_value(lo, hi),
            Predicate::MeanInRange { lo, hi } => zone.mean_may_be_in(lo, hi),
        }
    }

    /// True when the zone-map test is already the exact test
    /// ([`Predicate::MeanInRange`]): a chunk that survives pruning
    /// matches, so its answer can come from the footer without a decode.
    pub fn zone_decides(&self) -> bool {
        matches!(self, Predicate::MeanInRange { .. })
    }

    /// Exact test on a decoded chunk (still compressed-space: block
    /// envelopes and DC statistics, never element decompression). `zone`
    /// must be the zone map of `c` itself, `ZoneMap::of_dyn(c)`: the scan
    /// passes the one it recomputes from the payload, never the footer's,
    /// so a lying footer cannot steer the exact test. Always implies
    /// [`Predicate::zone_may_match`] on that zone map.
    pub fn matches_chunk(&self, c: &DynCompressed, zone: &ZoneMap) -> Result<bool, StoreError> {
        match *self {
            Predicate::ValueInRange { lo, hi } => {
                // Streamed per-block envelope test (identical arithmetic
                // to collecting `block_envelopes()` and scanning, without
                // materializing the envelope vector).
                let slack = zone.bounds.linf;
                Ok(c.any_envelope_overlaps(lo, hi, slack)?)
            }
            Predicate::MeanInRange { lo, hi } => Ok(zone.mean_may_be_in(lo, hi)),
        }
    }
}

/// Which scalar to aggregate over the matching chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Number of elements covered.
    Count,
    /// Sum of elements.
    Sum,
    /// Mean of elements.
    Mean,
    /// Population variance of elements (across all matching chunks).
    Variance,
    /// L2 norm of the concatenated elements.
    L2Norm,
}

impl Aggregate {
    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Result<Self, StoreError> {
        Ok(match s {
            "count" => Aggregate::Count,
            "sum" => Aggregate::Sum,
            "mean" => Aggregate::Mean,
            "variance" => Aggregate::Variance,
            "l2" => Aggregate::L2Norm,
            other => {
                return Err(StoreError::InvalidArgument(format!(
                    "unknown aggregate {other:?} (want count|sum|mean|variance|l2)"
                )))
            }
        })
    }
}

/// A store query: label range, optional predicate, aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Inclusive label lower bound.
    pub from_label: u64,
    /// Inclusive label upper bound.
    pub to_label: u64,
    /// Chunk predicate; `None` keeps every chunk in the label range.
    pub predicate: Option<Predicate>,
    /// What to compute over the matching chunks.
    pub aggregate: Aggregate,
}

impl Query {
    /// The parameter keys [`Query::parse`] reads: the `/query` keys, and
    /// the `store query`/`telemetry` options with `_` spelled `-`.
    pub const KEYS: &'static [&'static str] = &[
        "from", "to", "value_lo", "value_hi", "mean_lo", "mean_hi", "agg",
    ];

    /// A query over every label with no predicate.
    pub fn all(aggregate: Aggregate) -> Self {
        Self {
            from_label: 0,
            to_label: u64::MAX,
            predicate: None,
            aggregate,
        }
    }

    /// Builds a query from named parameters, looking each of
    /// [`Query::KEYS`] up through `get`: `from`/`to` label bounds
    /// (default: every label), `agg` (default `mean`), and at most one
    /// predicate pair, `value_lo`/`value_hi` or `mean_lo`/`mean_hi`,
    /// where a missing side is unbounded. Other keys are never read.
    pub fn parse<'v>(get: impl Fn(&str) -> Option<&'v str>) -> Result<Self, StoreError> {
        let label = |key: &str, default: u64| match get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| StoreError::InvalidArgument(format!("{key}: not an integer: {v:?}"))),
        };
        let bound = |key: &str| -> Result<Option<f64>, StoreError> {
            get(key)
                .map(|v| {
                    v.parse().map_err(|_| {
                        StoreError::InvalidArgument(format!("{key}: not a number: {v:?}"))
                    })
                })
                .transpose()
        };
        let range = |lo: &str, hi: &str| -> Result<Option<(f64, f64)>, StoreError> {
            Ok(match (bound(lo)?, bound(hi)?) {
                (None, None) => None,
                (lo, hi) => Some((lo.unwrap_or(f64::NEG_INFINITY), hi.unwrap_or(f64::INFINITY))),
            })
        };
        let predicate = match (range("value_lo", "value_hi")?, range("mean_lo", "mean_hi")?) {
            (Some((lo, hi)), None) => Some(Predicate::ValueInRange { lo, hi }),
            (None, Some((lo, hi))) => Some(Predicate::MeanInRange { lo, hi }),
            (None, None) => None,
            (Some(_), Some(_)) => {
                return Err(StoreError::InvalidArgument(
                    "give value_lo/value_hi or mean_lo/mean_hi, not both".into(),
                ))
            }
        };
        Ok(Self {
            from_label: label("from", 0)?,
            to_label: label("to", u64::MAX)?,
            predicate,
            aggregate: Aggregate::parse(get("agg").unwrap_or("mean"))?,
        })
    }
}

/// How [`Store::run`] executes a query. The default is the pruned,
/// strict scan of [`Store::query`].
#[derive(Clone, Copy, Default)]
pub struct QueryOptions<'a> {
    /// Decode every chunk in the label range: no zone-map pruning and no
    /// answers from the footer. Each chunk's partials are recomputed from
    /// its payload — the reference scan the default path must reproduce
    /// bit for bit.
    pub full_scan: bool,
    /// Quarantine a chunk that fails to read, checksum-verify or decode
    /// (counted in the [`DegradationReport`], excluded from the
    /// aggregate) instead of failing the query.
    pub degraded: bool,
    /// Cooperative cancellation check, consulted **between chunks**: the
    /// moment it returns true the scan stops decoding and the query fails
    /// with [`StoreError::Cancelled`]. A server's request deadline reaches
    /// the scan through it, so a query cannot overrun its deadline by
    /// more than one chunk's decode time.
    pub cancel: Option<&'a (dyn Fn() -> bool + Sync)>,
}

/// The outcome of a query: the aggregate, its binning-error bound, and
/// the pruning accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The aggregate value (NaN for mean/variance over zero chunks).
    pub value: f64,
    /// §IV-D binning-error bound on `value`: it covers the rounding of
    /// kept coefficients to bins only, not conversion into the working
    /// precision, transform rounding or coefficients dropped by a
    /// pruning mask (see [`ErrorBounds`]), so it does not yet bound
    /// `|value − value_on_original_data|` (ROADMAP item 1).
    pub error_bound: f64,
    /// Merged statistics of the matching chunks.
    pub stats: ChunkStats,
    /// Merged error bounds of the matching chunks.
    pub bounds: ErrorBounds,
    /// Labels of the chunks that matched the predicate.
    pub matched_labels: Vec<u64>,
    /// Chunks whose labels fell in the query range.
    pub chunks_in_range: usize,
    /// Chunks skipped by zone-map pruning (payload never read).
    pub chunks_pruned: usize,
    /// Chunks that survived pruning and were answered: decoded and
    /// exactly evaluated, or answered from their footer zone maps when
    /// the zone map decides the predicate. Either way a function of the
    /// query and the index alone.
    pub chunks_scanned: usize,
    /// Payload bytes the answer stage covers: the survivor chunks'
    /// serialized sizes (pruned chunks contribute nothing). A footer
    /// answer reads a chunk's bytes only on its first touch, to hash
    /// them, but this figure does not depend on which checksums are
    /// already latched, so equal queries report equal bodies.
    pub payload_bytes_read: u64,
}

impl QueryResult {
    /// Fraction of the in-range chunks that zone-map pruning skipped
    /// (`0.0` when the range was empty).
    pub fn prune_ratio(&self) -> f64 {
        if self.chunks_in_range == 0 {
            0.0
        } else {
            self.chunks_pruned as f64 / self.chunks_in_range as f64
        }
    }
}

/// One chunk a degraded query proceeded without.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedChunk {
    /// The chunk's label.
    pub label: u64,
    /// Rows (elements) the chunk held, from its zone map.
    pub rows: u64,
    /// Why the chunk was quarantined (checksum mismatch, read error, …).
    pub reason: String,
}

/// How much of the data a degraded query ([`QueryOptions::degraded`])
/// had to do without. An empty report (nothing skipped) means the answer
/// is identical to a healthy [`Store::query`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationReport {
    /// The quarantined chunks, in chunk order.
    pub skipped: Vec<SkippedChunk>,
    /// Rows in the quarantined chunks (per their zone maps).
    pub rows_unavailable: u64,
    /// Rows in every chunk of the query's label range.
    pub rows_in_range: u64,
    /// True when any chunk was skipped: the result's error bounds cover
    /// only the surviving chunks, not the store's full contents.
    pub bounds_partial: bool,
}

impl DegradationReport {
    /// True when any chunk was quarantined.
    pub fn is_degraded(&self) -> bool {
        !self.skipped.is_empty()
    }

    /// Fraction of the in-range rows that were unavailable (`0.0` for an
    /// empty range).
    pub fn fraction_unavailable(&self) -> f64 {
        if self.rows_in_range == 0 {
            0.0
        } else {
            self.rows_unavailable as f64 / self.rows_in_range as f64
        }
    }
}

/// Bound on `|Var(x̂) − Var(x)|` from the merged bounds and statistics:
/// `E[x²]` shifts by at most `(2‖x̂‖₂ + ε₂)·ε₂/n` and `E[x]²` by at most
/// `(2|m̂| + ε_m)·ε_m`, where `ε₂` bounds `‖x̂ − x‖₂` and `ε_m` the mean
/// error.
fn variance_bound(stats: &ChunkStats, bounds: &ErrorBounds) -> f64 {
    if stats.count == 0 {
        return 0.0;
    }
    let n = stats.count as f64;
    let e2 = bounds.l2;
    let em = bounds.mean_bound(stats.count);
    (2.0 * stats.l2_norm() + e2) * e2 / n + (2.0 * stats.mean().abs() + em) * em
}

impl Store {
    /// Runs `q` with zone-map pruning: only chunks the zone maps cannot
    /// rule out are touched, and they are decoded only when the zone map
    /// does not decide the predicate. The result is bit-identical to
    /// [`Store::query_full_scan`].
    pub fn query(&self, q: &Query) -> Result<QueryResult, StoreError> {
        Ok(self.run(q, &QueryOptions::default())?.0)
    }

    /// Runs `q` decoding every chunk in the label range (the reference
    /// scan the pruned and footer-answered path must reproduce
    /// bit-for-bit).
    pub fn query_full_scan(&self, q: &Query) -> Result<QueryResult, StoreError> {
        let full_scan = QueryOptions {
            full_scan: true,
            ..QueryOptions::default()
        };
        Ok(self.run(q, &full_scan)?.0)
    }

    /// Runs `q` in degraded mode (see [`QueryOptions::degraded`]).
    pub fn query_degraded(
        &self,
        q: &Query,
    ) -> Result<(QueryResult, DegradationReport), StoreError> {
        let degraded = QueryOptions {
            degraded: true,
            ..QueryOptions::default()
        };
        self.run(q, &degraded)
    }

    /// Runs `q` as `opts` says: the one query entry point behind
    /// [`Store::query`], the CLI and the server. The report is filled in
    /// every mode (in strict mode nothing is ever skipped). In degraded
    /// mode the result over the surviving chunks is bit-identical to a
    /// strict query on a store holding only those chunks, at any thread
    /// count. Caller errors (a bad label range) and cancellation fail in
    /// every mode: degradation covers data damage, not misuse.
    pub fn run(
        &self,
        q: &Query,
        opts: &QueryOptions,
    ) -> Result<(QueryResult, DegradationReport), StoreError> {
        let _span = tel::span!("store.query");
        let allocs_before = if tel::counters_enabled() {
            tel::alloc_probe()
        } else {
            None
        };
        if q.from_label > q.to_label {
            return Err(StoreError::InvalidArgument(format!(
                "empty label range: from {} > to {}",
                q.from_label, q.to_label
            )));
        }
        // Inverted or NaN predicate bounds would match everything or
        // nothing; `lo == hi` and infinite bounds stay valid.
        if let Some(Predicate::ValueInRange { lo, hi } | Predicate::MeanInRange { lo, hi }) =
            q.predicate
        {
            if lo.is_nan() || hi.is_nan() || lo > hi {
                return Err(StoreError::InvalidArgument(format!(
                    "invalid predicate range: lo {lo} hi {hi}"
                )));
            }
        }
        let range = self.select(q.from_label, q.to_label);
        let chunks_in_range = range.len();
        let rows_in_range: u64 = range
            .clone()
            .map(|i| self.entries()[i].zone.stats.count)
            .sum();

        // Stage 2: prune on zone maps alone (footer data, no payload).
        // Pre-sized to the range so the query costs a fixed, small number
        // of allocations (these result vectors) however many chunks it
        // touches.
        let mut survivors: Vec<usize> = Vec::with_capacity(chunks_in_range);
        survivors.extend(range.filter(|&i| match (&q.predicate, opts.full_scan) {
            (Some(p), false) => p.zone_may_match(&self.entries()[i].zone),
            _ => true,
        }));
        let chunks_pruned = chunks_in_range - survivors.len();
        let payload_bytes_read: u64 = survivors.iter().map(|&i| self.entries()[i].len).sum();

        // Stage 3: partials of the survivors, folded in chunk order. A
        // chunk is answered from its footer zone map when the zone map
        // decides the predicate; otherwise it is decoded.
        let from_footer = !opts.full_scan && q.predicate.is_none_or(|p| p.zone_decides());
        let answer = |i: usize| -> Result<Scanned, StoreError> {
            let entry = &self.entries()[i];
            // Cooperative deadline check, between chunks: once the caller
            // cancels, no further chunk is read or decoded.
            if opts.cancel.is_some_and(|c| c()) {
                return Err(StoreError::Cancelled(format!(
                    "query cancelled before chunk {} (label {})",
                    i, entry.label
                )));
            }
            let outcome = if from_footer {
                // Every survivor matches (the zone test is the exact
                // test), and the footer holds the partials a decode would
                // recompute, bit for bit. Only the payload checksum is
                // checked, so bit rot still fails or quarantines the chunk.
                self.verify_chunk(i)
                    .map(|()| Scanned::Match(entry.label, entry.zone.stats, entry.zone.bounds))
            } else {
                SCAN_SCRATCH.with(|cell| {
                    let slot = &mut *cell.borrow_mut();
                    self.chunk_into(i, slot)?;
                    let c = slot.as_ref().expect("chunk_into fills the slot");
                    // Recompute (not copy) the zone map from the payload
                    // and test the predicate on it: the determinism
                    // contract makes it equal the stored one bit-for-bit,
                    // and reading nothing from the footer keeps the full
                    // scan an honest reference for footer answers. The
                    // statistics fold is sequential and allocation-free;
                    // the chunks themselves fan out across threads here.
                    let zone = ZoneMap::of_dyn(c)?;
                    let matched = match &q.predicate {
                        Some(p) => p.matches_chunk(c, &zone)?,
                        None => true,
                    };
                    if !matched {
                        return Ok(Scanned::NoMatch);
                    }
                    Ok(Scanned::Match(entry.label, zone.stats, zone.bounds))
                })
            };
            match outcome {
                // A damaged chunk in degraded mode is quarantined, not
                // fatal. `InvalidArgument` and `Cancelled` stay fatal:
                // they signal a caller bug or a caller deadline, not data
                // damage.
                Err(e)
                    if opts.degraded
                        && !matches!(
                            e,
                            StoreError::InvalidArgument(_) | StoreError::Cancelled(_)
                        ) =>
                {
                    Ok(Scanned::Skipped {
                        label: entry.label,
                        rows: entry.zone.stats.count,
                        reason: e.to_string(),
                    })
                }
                other => other,
            }
        };
        // Footer answers copy a few structs per chunk: they run inline,
        // where a parallel team would cost more to start than the work.
        // Decodes fan out across threads.
        let scanned: Vec<Result<Scanned, StoreError>> = if from_footer {
            survivors.iter().map(|&i| answer(i)).collect()
        } else {
            survivors.par_iter().map(|&i| answer(i)).collect()
        };

        let mut stats = ChunkStats::empty();
        let mut bounds = ErrorBounds::exact();
        let mut matched_labels = Vec::with_capacity(scanned.len());
        let mut skipped = Vec::new();
        for r in scanned {
            match r? {
                Scanned::Match(label, s, b) => {
                    matched_labels.push(label);
                    stats.merge(&s);
                    bounds.merge(&b);
                }
                Scanned::NoMatch => {}
                Scanned::Skipped {
                    label,
                    rows,
                    reason,
                } => skipped.push(SkippedChunk {
                    label,
                    rows,
                    reason,
                }),
            }
        }

        let (value, error_bound) = match q.aggregate {
            Aggregate::Count => (stats.count as f64, 0.0),
            Aggregate::Sum => (stats.sum, bounds.sum_bound(stats.count)),
            Aggregate::Mean => (stats.mean(), bounds.mean_bound(stats.count)),
            Aggregate::Variance => (stats.variance(), variance_bound(&stats, &bounds)),
            Aggregate::L2Norm => (stats.l2_norm(), bounds.l2),
        };
        if tel::counters_enabled() {
            tel::counter!("store.queries").add(1);
            tel::counter!("store.chunks_pruned").add(chunks_pruned as u64);
            tel::counter!("store.chunks_scanned").add(survivors.len() as u64);
            let decoded = if from_footer { 0 } else { survivors.len() };
            tel::counter!("store.chunks_decoded").add(decoded as u64);
            tel::counter!("store.chunks_matched").add(matched_labels.len() as u64);
            tel::counter!("store.chunks_quarantined").add(skipped.len() as u64);
            tel::counter!("store.query.payload_bytes").add(payload_bytes_read);
            // Allocation audit: with a probe registered (the bench's
            // counting allocator), record how many allocations this query
            // performed end to end.
            if let (Some(before), Some(after)) = (allocs_before, tel::alloc_probe()) {
                tel::record!("store.query.allocs", after.saturating_sub(before));
            }
        }
        let report = DegradationReport {
            rows_unavailable: skipped.iter().map(|s| s.rows).sum(),
            rows_in_range,
            bounds_partial: !skipped.is_empty(),
            skipped,
        };
        let result = QueryResult {
            value,
            error_bound,
            stats,
            bounds,
            matched_labels,
            chunks_in_range,
            chunks_pruned,
            chunks_scanned: survivors.len(),
            payload_bytes_read,
        };
        Ok((result, report))
    }
}

/// The JSON body of one query answer: the result, then its degradation
/// report. `/query` responds with it and `store query` prints it, so the
/// two are byte-identical by construction.
pub fn encode_query_body(r: &QueryResult, report: &DegradationReport) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    out.push_str(&format!("\"value\":{}", json_f64(r.value)));
    out.push_str(&format!(",\"error_bound\":{}", json_f64(r.error_bound)));
    out.push_str(&format!(",\"rows\":{}", r.stats.count));
    out.push_str(&format!(",\"chunks_in_range\":{}", r.chunks_in_range));
    out.push_str(&format!(",\"chunks_pruned\":{}", r.chunks_pruned));
    out.push_str(&format!(",\"chunks_scanned\":{}", r.chunks_scanned));
    out.push_str(&format!(",\"prune_ratio\":{}", json_f64(r.prune_ratio())));
    out.push_str(&format!(",\"payload_bytes_read\":{}", r.payload_bytes_read));
    out.push_str(&format!(",\"degraded\":{}", report.is_degraded()));
    out.push_str(&format!(
        ",\"rows_unavailable\":{}",
        report.rows_unavailable
    ));
    out.push_str(&format!(",\"rows_in_range\":{}", report.rows_in_range));
    out.push_str(&format!(
        ",\"fraction_unavailable\":{}",
        json_f64(report.fraction_unavailable())
    ));
    out.push_str(&format!(",\"bounds_partial\":{}", report.bounds_partial));
    out.push_str(",\"skipped\":[");
    for (i, s) in report.skipped.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":{},\"rows\":{},\"reason\":\"{}\"}}",
            s.label,
            s.rows,
            escape_json(&s.reason)
        ));
    }
    out.push_str("]}\n");
    out
}
