//! Query execution: label-range selection, zone-map predicate pushdown,
//! and chunk-by-chunk compressed-space aggregation.
//!
//! A query runs in three stages:
//!
//! 1. **Select** — binary-search the sorted labels for `[from, to]`.
//! 2. **Prune** — drop chunks whose zone map, widened by its error
//!    bound, cannot satisfy the predicate. Pruned chunks' payload bytes
//!    are never read.
//! 3. **Scan** — decode the survivors in parallel, re-evaluate the
//!    predicate *exactly* (per-block, still in compressed space), and
//!    combine the matching chunks' [`ChunkStats`]/[`ErrorBounds`]
//!    partials **in chunk order**.
//!
//! Stage 3's exact re-evaluation is what makes pruning transparent: the
//! zone map is a superset filter (its chunk-level hull covers every
//! block envelope), so a pruned run and a full scan admit exactly the
//! same chunks and — because partials combine in chunk order, per the
//! PR-2 determinism contract — produce **bit-identical** aggregates at
//! any thread count.

use crate::error::StoreError;
use crate::store::Store;
use crate::zonemap::ZoneMap;
use blazr::dynamic::DynCompressed;
use blazr::ops::{ChunkStats, ErrorBounds};
use blazr_telemetry as tel;
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

    /// Exact test on a decoded chunk (still compressed-space: block
    /// envelopes and DC statistics, never element decompression). Always
    /// implies [`Predicate::zone_may_match`] on the chunk's zone map.
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
            "variance" | "var" => Aggregate::Variance,
            "l2" | "l2norm" => Aggregate::L2Norm,
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
    /// A query over every label with no predicate.
    pub fn all(aggregate: Aggregate) -> Self {
        Self {
            from_label: 0,
            to_label: u64::MAX,
            predicate: None,
            aggregate,
        }
    }
}

/// The outcome of a query: the aggregate, its error bound against the
/// original (pre-compression) data, and the pruning accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The aggregate value (NaN for mean/variance over zero chunks).
    pub value: f64,
    /// §IV-D error-model bound on `|value − value_on_original_data|`.
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
    /// Chunks decoded and exactly evaluated.
    pub chunks_scanned: usize,
    /// Payload bytes the scan stage read (survivor chunks' serialized
    /// sizes; pruned chunks contribute nothing).
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

/// How much of the data a degraded query ([`Store::query_degraded`]) had
/// to do without. An empty report (nothing skipped) means the answer is
/// identical to a healthy [`Store::query`].
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
    /// rule out are decoded. The result is bit-identical to
    /// [`Store::query_full_scan`].
    pub fn query(&self, q: &Query) -> Result<QueryResult, StoreError> {
        Ok(self.execute(q, true, false, None)?.0)
    }

    /// Runs `q` decoding every chunk in the label range (the reference
    /// scan the pruned path must reproduce bit-for-bit).
    pub fn query_full_scan(&self, q: &Query) -> Result<QueryResult, StoreError> {
        Ok(self.execute(q, false, false, None)?.0)
    }

    /// Runs `q` tolerating damaged chunks: a chunk that fails to read,
    /// checksum-verify, or decode is **quarantined** — counted in the
    /// [`DegradationReport`] and excluded from the aggregate — instead of
    /// failing the query. The result over the surviving chunks is
    /// bit-identical to [`Store::query`] on a store holding only those
    /// chunks, at any thread count. Caller errors (a bad label range)
    /// still fail: degradation covers data damage, not misuse.
    pub fn query_degraded(
        &self,
        q: &Query,
    ) -> Result<(QueryResult, DegradationReport), StoreError> {
        self.execute(q, true, true, None)
    }

    /// [`Store::query_degraded`] with a cooperative cancellation check,
    /// consulted **between chunks** during the scan stage: the moment
    /// `cancel()` returns true, the query stops decoding further chunks
    /// and fails with [`StoreError::Cancelled`]. This is the seam a
    /// server's per-request deadline reaches the scan through — a query
    /// over many chunks cannot overrun its deadline by more than one
    /// chunk's decode time. A `cancel` that never fires is bit-identical
    /// to [`Store::query_degraded`] (same code path, same chunk-order
    /// fold).
    pub fn query_degraded_with(
        &self,
        q: &Query,
        cancel: &(dyn Fn() -> bool + Sync),
    ) -> Result<(QueryResult, DegradationReport), StoreError> {
        self.execute(q, true, true, Some(cancel))
    }

    fn execute(
        &self,
        q: &Query,
        prune: bool,
        tolerate: bool,
        cancel: Option<&(dyn Fn() -> bool + Sync)>,
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

        // Stage 2: prune on zone maps alone (footer data, no payload).
        // Pre-sized to the range so the query costs a fixed, small number
        // of allocations (these result vectors) however many chunks it
        // touches.
        let mut survivors: Vec<usize> = Vec::with_capacity(chunks_in_range);
        survivors.extend(range.filter(|&i| match (&q.predicate, prune) {
            (Some(p), true) => p.zone_may_match(&self.entries()[i].zone),
            _ => true,
        }));
        let chunks_pruned = chunks_in_range - survivors.len();
        let payload_bytes_read: u64 = survivors.iter().map(|&i| self.entries()[i].len).sum();

        // Stage 3: decode + exact predicate + partials, in parallel; each
        // element is independent, and the fold below runs in chunk order.
        let scanned: Vec<Result<Scanned, StoreError>> = survivors
            .par_iter()
            .map(|&i| {
                let entry = &self.entries()[i];
                // Cooperative deadline check, between chunks: once the
                // caller cancels, no further chunk is read or decoded.
                if cancel.is_some_and(|c| c()) {
                    return Err(StoreError::Cancelled(format!(
                        "query cancelled before chunk {} (label {})",
                        i, entry.label
                    )));
                }
                let outcome = SCAN_SCRATCH.with(|cell| {
                    let slot = &mut *cell.borrow_mut();
                    self.chunk_into(i, slot)?;
                    let c = slot.as_ref().expect("chunk_into fills the slot");
                    let matched = match &q.predicate {
                        Some(p) => p.matches_chunk(c, &entry.zone)?,
                        None => true,
                    };
                    if !matched {
                        return Ok(Scanned::NoMatch);
                    }
                    // Recompute (not copy) the partials from the payload:
                    // the determinism contract makes them equal the stored
                    // zone map bit-for-bit, and recomputing keeps the full
                    // scan an honest reference for index corruption too.
                    // The sequential fold is bit-identical to the parallel
                    // `stats_partial` (same per-block arithmetic, same
                    // order) and allocation-free — the chunks themselves
                    // already fan out across threads here.
                    let stats = c.stats_partial_seq()?;
                    Ok(Scanned::Match(entry.label, stats, c.error_bounds()))
                });
                match outcome {
                    // A damaged chunk in degraded mode is quarantined, not
                    // fatal. `InvalidArgument` and `Cancelled` stay fatal:
                    // they signal a caller bug or a caller deadline, not
                    // data damage.
                    Err(e)
                        if tolerate
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
            })
            .collect();

        let rows_in_range: u64 = self
            .select(q.from_label, q.to_label)
            .map(|i| self.entries()[i].zone.stats.count)
            .sum();
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
