//! N-dimensional array engine for the `blazr` workspace.
//!
//! PyBlaz is built on PyTorch; this crate is the corresponding substrate
//! for the Rust reproduction:
//!
//! * [`NdArray`] — a dense, row-major, arbitrary-dimensional array with
//!   element-wise kernels and reductions. Large element-wise operations are
//!   data-parallel via Rayon (the workspace's stand-in for the paper's GPU
//!   parallelism; see the README's "Threading" section).
//! * [`shape`] — index math: strides, multi-index iteration, ceil-division
//!   of shapes (the paper's `⌈s ⊘ i⌉`).
//! * [`blocking`] — the paper's blocking step (§III-A(b)): zero-padding to
//!   block multiples, block-major partitioning, merging, and cropping.
//! * [`reduce`] — *uncompressed-space* reference implementations of every
//!   operation the paper supports in compressed space (mean, variance,
//!   covariance, dot, L2 norm, cosine similarity, SSIM, exact 1-D
//!   Wasserstein distance). These are what the experiments compare against.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod reduce;
pub mod shape;

mod array;

pub use array::NdArray;
pub use blocking::Blocked;
