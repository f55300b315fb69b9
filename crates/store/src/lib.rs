//! # blazr-store — a chunked, persistent store of compressed arrays
//!
//! The paper shows that reductions, arithmetic, and comparisons run
//! *directly* on compressed arrays with bounded error. This crate gives
//! that result its production shape — the one time-series engines
//! (InfluxDB's TSM files) and columnar formats (Parquet) converge on:
//! many compressed chunks in one append-only file, behind a footer index
//! that holds per-chunk **zone maps**, so queries touch only the bytes
//! they must.
//!
//! * [`StoreWriter`] appends chunks (raw arrays compressed on the way
//!   in, or already-compressed payloads passed through untouched) and
//!   finishes with a checksummed index footer.
//! * [`Store`] opens the file, reads the footer, and answers queries:
//!   label-range selection, zone-map predicate pushdown, and
//!   sum/mean/variance/L2 aggregation — all executed **in compressed
//!   space**, chunk by chunk, with §IV-D error bounds propagated across
//!   chunks and combined in chunk order (bit-deterministic at any thread
//!   count).
//! * [`write_series`]/[`Store::to_series`] bridge the in-memory
//!   [`blazr::series::CompressedSeries`] to disk, so the paper's §VI
//!   deviation and scission analyses ([`Store::largest_jump`],
//!   [`Store::first_divergence`], …) run against on-disk data.
//! * The store survives storage faults: transient read errors retry
//!   with bounded backoff ([`RetryPolicy`]), a damaged footer salvages
//!   from self-describing chunk preambles ([`Store::open_salvage`]),
//!   and queries over a store with bad chunks can proceed in degraded
//!   mode ([`Store::query_degraded`]) with a [`DegradationReport`]
//!   instead of an error. All I/O goes through the
//!   [`blazr_util::vfs`] seam, so every failure mode is testable with
//!   deterministic fault injection.
//!
//! ```
//! use blazr::{IndexType, ScalarType, Settings};
//! use blazr_store::{Aggregate, Predicate, Query, Store, StoreWriter};
//! use blazr_tensor::NdArray;
//!
//! let path = std::env::temp_dir().join("blazr-store-doc.blzs");
//! let mut w = StoreWriter::create(
//!     &path,
//!     Settings::new(vec![4, 4]).unwrap(),
//!     ScalarType::F32,
//!     IndexType::I16,
//! )
//! .unwrap();
//! for t in 0..4u64 {
//!     let frame = NdArray::from_fn(vec![8, 8], |i| (i[0] + i[1]) as f64 + t as f64);
//!     w.append(t, &frame).unwrap();
//! }
//! w.finish().unwrap();
//!
//! let store = Store::open(&path).unwrap();
//! let result = store
//!     .query(&Query {
//!         from_label: 1,
//!         to_label: 3,
//!         predicate: Some(Predicate::ValueInRange { lo: 10.0, hi: 20.0 }),
//!         aggregate: Aggregate::Mean,
//!     })
//!     .unwrap();
//! assert!(result.value.is_finite());
//! # std::fs::remove_file(&path).ok();
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod format;
mod query;
mod store;
mod writer;
mod zonemap;

pub use error::StoreError;
pub use format::IndexEntry;
pub use query::{Aggregate, DegradationReport, Predicate, Query, QueryResult, SkippedChunk};
pub use store::{write_series, RetryPolicy, SalvageReport, Store};
pub use writer::StoreWriter;
pub use zonemap::ZoneMap;
