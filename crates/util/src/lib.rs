//! Shared low-level substrates for the `blazr` workspace.
//!
//! This crate collects the infrastructure every other crate leans on:
//!
//! * [`rng`] — a deterministic, seedable xoshiro256++ generator (plus
//!   splitmix64 for seeding) used by all workload generators so every
//!   experiment in the repository is reproducible bit-for-bit.
//! * [`bits`] — MSB-first [`bits::BitWriter`]/[`bits::BitReader`] used by the
//!   codec serializers and the baseline compressors.
//! * [`negabinary`] — the sign-free integer representation used by the
//!   ZFP-style embedded coder.
//! * [`huffman`] — a canonical Huffman encoder/decoder used by the SZ-style
//!   baseline.
//! * [`stats`] — scalar statistics helpers (Welford mean/variance, extrema)
//!   used by tests and the benchmark harness.
//! * [`csv`] — a tiny CSV emitter for the figure-regeneration binaries.
//! * [`mmap`] — a `libc`-free read-only memory map used by the store's
//!   zero-copy read path (the crate's one `unsafe` island; everything
//!   else stays `deny(unsafe_code)`).
//! * [`fault`] — the one deterministic, op-indexed fault script
//!   ([`fault::Script`]) behind every fault-injecting seam: storage's
//!   [`vfs::FaultyVfs`] and the serve crate's `FaultyTransport`.
//! * [`vfs`] — the filesystem seam the store's I/O goes through, with a
//!   fault-injection adapter ([`vfs::FaultyVfs`]) for torn-write,
//!   bit-rot, and transient-error testing.
//! * [`retry`] — the one transient-vs-permanent I/O error classification
//!   and bounded-backoff [`retry::RetryPolicy`] shared by the store's
//!   read path and the serve crate's transport path.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod csv;
pub mod fault;
pub mod huffman;
pub mod mmap;
pub mod negabinary;
pub mod retry;
pub mod rng;
pub mod stats;
pub mod vfs;
