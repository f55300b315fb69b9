//! Software number formats for the `blazr` workspace.
//!
//! PyBlaz lets the user pick the floating-point type used for the
//! compressor's internal arithmetic and stored scales: `bfloat16`,
//! `float16`, `float32`, or `float64` (paper §III-A(a)). Rust has no stable
//! 16-bit float primitives, so this crate implements them in software:
//!
//! * [`F16`] — IEEE-754 binary16, with round-to-nearest-even conversions,
//!   gradual underflow (subnormals), and Inf/NaN semantics.
//! * [`BF16`] — bfloat16 (f32 with a truncated significand), same care.
//!
//! Arithmetic on the 16-bit types is performed by converting to `f32`,
//! applying the native operation, and rounding back — exactly correctly
//! rounded for multiplication, correct to within one double rounding for
//! addition/division (the f32 result is rounded a second time, to 16
//! bits), and matching how GPU tensor
//! libraries evaluate scalar half-precision expressions.
//!
//! The [`Real`] trait abstracts over all four formats so the codec, the
//! transforms, and the shallow-water simulation can be written once and
//! instantiated at any precision — reproducing the paper's Fig. 5 precision
//! sweep and the Fig. 4 FP16-vs-FP32 experiment.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bf16;
mod dual;
mod f16;
mod real;
mod scalar_type;

pub use bf16::BF16;
pub use dual::Dual;
pub use f16::F16;
pub use real::{Real, StorableReal};
pub use scalar_type::ScalarType;
