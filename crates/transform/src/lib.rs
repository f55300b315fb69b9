//! Orthonormal transforms for the blazr codec (paper §III-A(c)).
//!
//! PyBlaz transforms each block into coefficients of an orthonormal basis —
//! DCT by default, optionally the Haar wavelet — applied separably along
//! every dimension (the Einstein-summation contraction of §VI-A). Because
//! the basis is orthonormal, dot products are preserved, which is the
//! property every compressed-space operation in `blazr::ops` relies on.
//!
//! A note on the paper's formula: §VI-A writes the DCT matrix as
//! `H_ij = √((1+(j>1))/s)·cos(πi(2j+1)/2s)`, which is *not* orthonormal and
//! whose first basis vector is not constant (that would break the paper's
//! own mean extraction, Algorithm 7). We implement the standard orthonormal
//! DCT-II the formula clearly intends:
//! `H[n][k] = √((1+[k>0])/s)·cos(π(2n+1)k/(2s))` (0-indexed).
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod kind;
mod matrix;

pub use block::BlockTransform;
pub use kind::TransformKind;
pub use matrix::Matrix;
