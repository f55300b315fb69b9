//! Lossless entropy coding of the §IV-C bin-index payload.
//!
//! The paper's serialized form stores every kept bin index at the fixed
//! width `i = log2(2r + 2)` of the index type, so the ratio is pinned by
//! the type choice alone. On the slowly-varying fields the paper targets,
//! the bin histogram is extremely skewed — most coefficients land in a
//! handful of bins near zero — which leaves a large entropy gap on the
//! table. This module closes it with the modern recipe:
//!
//! 1. **Histogram** ([`histogram`]): one deterministic pass over the
//!    flattened indices.
//! 2. **Bin optimization** ([`histogram::SymbolTable`]): the histogram is
//!    reduced to a bounded-size symbol table (≤ 256 entries) whose
//!    frequencies are quantized to sum to a power of two; rare tail
//!    values *escape* to raw fixed-width storage instead of bloating the
//!    table.
//! 3. **Tabled rANS** ([`ans`]): a range-variant asymmetric numeral
//!    system with two interleaved 64-bit states renormalizing through
//!    32-bit words.
//! 4. **Batched decode** ([`batch_decode`]): branch-light batches of 256
//!    indices per refill check, feeding the existing unbin scratch.
//!
//! Entropy coding is lossless, so every §IV-D error bound carries over
//! verbatim; only the serialized byte count changes. The fixed-width
//! layout survives as the fallback for near-uniform histograms (where a
//! table cannot win) and as the ablation baseline.

pub mod ans;
pub mod batch_decode;
pub mod histogram;

/// Which entropy coder a serialized stream's index payload uses. The tag
/// is stored in the stream prologue (see [`crate::serialize::peek_coder`])
/// and echoed per chunk in the store footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coder {
    /// Every kept index at `I::BITS` — the paper's §IV-C layout.
    FixedWidth,
    /// Tabled range-ANS over the optimized bin histogram, with rare
    /// values escaping to raw fixed-width.
    Rans,
}

impl Coder {
    /// All variants in serialization-tag order.
    pub const ALL: [Coder; 2] = [Coder::FixedWidth, Coder::Rans];

    /// 8-bit serialization tag (one byte of the stream prologue).
    pub fn tag(self) -> u8 {
        match self {
            Coder::FixedWidth => 0,
            Coder::Rans => 1,
        }
    }

    /// Inverse of [`Coder::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Coder::FixedWidth),
            1 => Some(Coder::Rans),
            _ => None,
        }
    }

    /// Name used in diagnostics and `store stat` output.
    pub fn name(self) -> &'static str {
        match self {
            Coder::FixedWidth => "fixed",
            Coder::Rans => "rans",
        }
    }
}

impl std::fmt::Display for Coder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_roundtrip() {
        for c in Coder::ALL {
            assert_eq!(Coder::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Coder::from_tag(2), None);
        assert_eq!(Coder::from_tag(0xFF), None);
    }
}
