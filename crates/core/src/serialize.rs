//! Bit-exact serialization of the compressed form (paper §IV-C, grown an
//! entropy-coded index payload).
//!
//! v2 layout, in order:
//!
//! | field | bits |
//! |---|---|
//! | float type tag | 2 |
//! | index type tag | 2 |
//! | transform tag (our extension; see DESIGN.md) | 4 |
//! | coder tag ([`Coder`]) | 8 |
//! | each extent of `s` | 64 |
//! | end-of-shape marker (all ones) | 64 |
//! | each extent of `i` | 64 |
//! | pruning mask `P`, row-major | `Πi` × 1 |
//! | biggest coefficients `N`, block-major | `f` each |
//! | index payload (coder-specific, below) | — |
//!
//! With [`Coder::FixedWidth`] the index payload is the paper's: bin
//! indices `F`, block-major, kept slots ascending, `i` bits each — and
//! the stream's bit count is exactly [`crate::ratio::serialized_bits`].
//! With [`Coder::Rans`] it is the entropy-coded §IV-C payload:
//!
//! | field | bits |
//! |---|---|
//! | table symbol count `n` | 16 |
//! | escape frequency | 13 |
//! | per table symbol: value, frequency − 1 | `i` + 12 |
//! | per piece: word count, escape count | 32 + 32 |
//! | per piece: rANS words, then raw escaped values | 32 each, `i` each |
//!
//! Pieces cover `BLOCKS_PER_PIECE` blocks each — the same block ranges
//! the fixed-width path parallelizes over — and are encoded
//! independently and spliced in piece order, so serialized bytes are
//! bit-identical at any thread count. Entropy coding is lossless: the
//! decoded [`CompressedArray`] is equal under either coder, and every
//! §IV-D error bound is untouched.
//!
//! The v1 (pre-coder-tag) stream — the byte layout store format v1
//! chunks use — omits the 8-bit coder tag and always stores fixed-width
//! indices. [`CompressedArray::from_bytes_v1`] and
//! [`CompressedArray::to_bytes_v1`] keep that layout readable and
//! writable; the two layouts are not self-distinguishing (the v1 stream
//! has no version field), so the container (store header, caller) picks
//! the parser.

use crate::coder::histogram::{Histogram, SymbolTable, MAX_TABLE_SYMS, SCALE_BITS};
use crate::coder::{ans, batch_decode, Coder};
use crate::{BinIndex, BlazError, CompressedArray, PruningMask, Settings};
use blazr_precision::StorableReal;
use blazr_telemetry as tel;
use blazr_tensor::shape::ceil_div_count;
use blazr_transform::TransformKind;
use blazr_util::bits::{BitReader, BitWriter};
use rayon::prelude::*;
use std::cell::RefCell;

/// Sentinel terminating the shape list. Valid extents are far smaller.
const SHAPE_END: u64 = u64::MAX;

/// Reusable per-thread state for one rANS index-payload decode: the
/// deserialized symbol table and the per-piece header/offset lists. All
/// fields are rebuilt from the stream on every decode; pooling them (plus
/// the [`batch_decode::with_dec_table`] slot table) makes the
/// steady-state decode loop allocation-free.
struct RansScratch {
    table: SymbolTable,
    /// Per piece: `(n_words, n_escapes, symbols)`.
    headers: Vec<(usize, usize, usize)>,
    /// Per piece: body start bit.
    offsets: Vec<usize>,
}

std::thread_local! {
    static RANS_SCRATCH: RefCell<RansScratch> = const {
        RefCell::new(RansScratch {
            table: SymbolTable {
                vals: Vec::new(),
                freqs: Vec::new(),
                cums: Vec::new(),
                esc_freq: 0,
                esc_cum: 0,
            },
            headers: Vec::new(),
            offsets: Vec::new(),
        })
    };
}

/// Which prologue layout a stream uses. v1 is the PR-5 layout without a
/// coder tag; v2 adds the 8-bit coder tag and coder-specific index
/// payloads. The stream does not carry this itself — the container does
/// (the store's header magic, or the caller's knowledge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamVersion {
    /// PR-5 layout: no coder tag, fixed-width indices.
    V1,
    /// Coder-tagged layout with entropy-coded payloads.
    V2,
}

/// Reads the leading float/index type tags of a §IV-C stream without
/// decoding it (`None` for an empty stream or invalid tags). This is the
/// single owner of the prologue's bit positions — callers that need to
/// sniff a stream's types (dynamic dispatch, store diagnostics) go
/// through here rather than re-deriving the layout. Both stream versions
/// share byte 0, so this works on either.
pub fn peek_types(bytes: &[u8]) -> Option<(crate::ScalarType, crate::IndexType)> {
    let b = *bytes.first()?;
    Some((
        crate::ScalarType::from_tag(b >> 6)?,
        crate::IndexType::from_tag((b >> 4) & 0b11)?,
    ))
}

/// Reads the coder tag of a **v2** stream without decoding it (`None`
/// for a short stream or an invalid tag). Byte 1 of the prologue.
pub fn peek_coder(bytes: &[u8]) -> Option<Coder> {
    Coder::from_tag(*bytes.get(1)?)
}

/// Everything a stream's header says about it, parsed without touching
/// the payload. Used by store diagnostics (`store stat`) to report
/// per-chunk entropy-coding ratios from a bounded prefix read.
#[derive(Debug, Clone)]
pub struct StreamInfo {
    /// The stream layout version the caller parsed with.
    pub version: StreamVersion,
    /// The float format of the biggest-coefficient payload.
    pub float_type: crate::ScalarType,
    /// The bin index type.
    pub index_type: crate::IndexType,
    /// The block transform.
    pub transform: TransformKind,
    /// The index payload's entropy coder (fixed-width for v1 streams).
    pub coder: Coder,
    /// The original array shape `s`.
    pub shape: Vec<usize>,
    /// The block shape `i`.
    pub block_shape: Vec<usize>,
    /// Kept coefficients per block `ΣP`.
    pub kept_per_block: usize,
}

impl StreamInfo {
    /// The §IV-C fixed-width bit count for this stream's geometry — the
    /// ablation baseline an entropy-coded payload is compared against.
    pub fn fixed_width_bits(&self) -> u64 {
        let bits = crate::ratio::serialized_bits(
            &self.shape,
            &self.block_shape,
            self.float_type.bits(),
            self.index_type.bits(),
            self.kept_per_block,
        );
        match self.version {
            StreamVersion::V1 => bits - 8, // no coder tag in v1
            StreamVersion::V2 => bits,
        }
    }
}

/// Parses a stream's header fields without decoding any payload.
/// Returns `None` if the prefix is too short or malformed; callers that
/// only hold a bounded prefix of the stream can retry with more bytes.
pub fn peek_info(bytes: &[u8], version: StreamVersion) -> Option<StreamInfo> {
    let h = parse_header(bytes, version).ok()?;
    Some(StreamInfo {
        version,
        float_type: h.float_type,
        index_type: h.index_type,
        transform: h.settings.transform,
        coder: h.coder,
        kept_per_block: h.settings.mask.kept_count(),
        shape: h.shape,
        block_shape: h.settings.block_shape.clone(),
    })
}

/// Blocks per parallel piece when encoding/decoding the payload.
/// Fixed-width fields have computable bit offsets; rANS pieces carry
/// their word/escape counts in per-piece headers, so either way any
/// piece can be processed independently and the spliced stream is
/// bit-identical to a sequential pass regardless of thread count.
const BLOCKS_PER_PIECE: usize = 512;

/// Contiguous block ranges `[lo, hi)` covering `0..n_blocks`.
fn block_ranges(n_blocks: usize) -> Vec<(usize, usize)> {
    (0..n_blocks.div_ceil(BLOCKS_PER_PIECE))
        .map(|i| {
            (
                i * BLOCKS_PER_PIECE,
                ((i + 1) * BLOCKS_PER_PIECE).min(n_blocks),
            )
        })
        .collect()
}

/// The low-`n`-bits mask for raw index writes.
fn index_mask(bits: u32) -> u64 {
    if bits == 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Sign-extends the low `bits` of `raw`.
#[inline]
fn sign_extend(raw: u64, bits: u32) -> i64 {
    ((raw as i64) << (64 - bits)) >> (64 - bits)
}

fn bad(msg: &str) -> BlazError {
    BlazError::Deserialize(msg.to_string())
}

/// The header fields shared by both stream versions, plus the bit
/// position where the payload (biggest section) starts.
struct ParsedHeader {
    float_type: crate::ScalarType,
    index_type: crate::IndexType,
    coder: Coder,
    shape: Vec<usize>,
    settings: Settings,
    payload_start: usize,
}

/// Parses prologue, shape, block shape, and mask — everything before the
/// biggest-coefficient section — validating as it goes.
fn parse_header(bytes: &[u8], version: StreamVersion) -> Result<ParsedHeader, BlazError> {
    let mut r = BitReader::new(bytes);
    let ftag = r.read_bits(2).ok_or_else(|| bad("truncated float tag"))? as u8;
    let itag = r.read_bits(2).ok_or_else(|| bad("truncated index tag"))? as u8;
    let float_type =
        crate::ScalarType::from_tag(ftag).ok_or_else(|| bad("unknown float type tag"))?;
    let index_type =
        crate::IndexType::from_tag(itag).ok_or_else(|| bad("unknown index type tag"))?;
    let ttag = r
        .read_bits(4)
        .ok_or_else(|| bad("truncated transform tag"))? as u8;
    let transform = TransformKind::from_tag(ttag).ok_or_else(|| bad("unknown transform tag"))?;
    let coder = match version {
        StreamVersion::V1 => Coder::FixedWidth,
        StreamVersion::V2 => {
            let ctag = r.read_bits(8).ok_or_else(|| bad("truncated coder tag"))? as u8;
            Coder::from_tag(ctag).ok_or_else(|| bad("unknown coder tag"))?
        }
    };

    let mut shape = Vec::new();
    loop {
        let v = r.read_u64().ok_or_else(|| bad("truncated shape"))?;
        if v == SHAPE_END {
            break;
        }
        if shape.len() > 64 {
            return Err(bad("shape list too long (missing end marker?)"));
        }
        if v > (1 << 48) {
            return Err(bad("implausible shape extent"));
        }
        shape.push(v as usize);
    }
    if blazr_tensor::shape::checked_num_elements(&shape)
        .filter(|&n| n <= (1usize << 48))
        .is_none()
    {
        return Err(bad("implausible total element count"));
    }
    let d = shape.len();
    let mut block_shape = Vec::with_capacity(d);
    for _ in 0..d {
        let v = r.read_u64().ok_or_else(|| bad("truncated block shape"))? as usize;
        if v == 0 || v > (1 << 30) {
            return Err(bad("implausible block extent"));
        }
        block_shape.push(v);
    }
    let block_len = blazr_tensor::shape::checked_num_elements(&block_shape)
        .ok_or_else(|| bad("block shape overflows"))?;
    if block_len == 0 || block_len > (1 << 30) {
        return Err(bad("implausible block shape"));
    }
    if r.remaining() < block_len {
        return Err(bad("truncated mask"));
    }
    let mut keep = Vec::with_capacity(block_len);
    for _ in 0..block_len {
        keep.push(r.read_bit().ok_or_else(|| bad("truncated mask"))?);
    }
    let mask = PruningMask::from_keep(block_shape.clone(), keep)
        .map_err(|_| bad("mask keeps no coefficients"))?;
    let settings = Settings::new(block_shape)
        .map_err(|e| bad(&format!("invalid block shape: {e}")))?
        .with_transform(transform)
        .with_mask(mask)
        .map_err(|e| bad(&format!("mask/shape mismatch: {e}")))?;
    Ok(ParsedHeader {
        float_type,
        index_type,
        coder,
        shape,
        settings,
        payload_start: r.bit_pos(),
    })
}

impl<P: StorableReal, I: BinIndex> CompressedArray<P, I> {
    /// Serializes to bytes (v2 layout), choosing the index-payload coder
    /// automatically: rANS when the optimized bin histogram is skewed
    /// enough to beat fixed width, the fixed-width fallback otherwise
    /// (see [`CompressedArray::choose_coder`]). Deterministic for given
    /// data at any thread count.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_bytes_with(self.choose_coder())
    }

    /// Serializes to bytes (v2 layout) with an explicitly chosen index
    /// coder — the ablation/benchmark entry point.
    pub fn to_bytes_with(&self, coder: Coder) -> Vec<u8> {
        let _span = tel::span!("codec.serialize");
        let mut w = BitWriter::new();
        w.write_bits(P::TYPE.tag() as u64, 2);
        w.write_bits(I::TYPE.tag() as u64, 2);
        w.write_bits(self.settings.transform.tag() as u64, 4);
        w.write_bits(coder.tag() as u64, 8);
        self.write_header_and_biggest(&mut w);
        match coder {
            Coder::FixedWidth => {
                self.write_indices_fixed(&mut w);
                debug_assert_eq!(
                    w.bit_len() as u64,
                    crate::ratio::serialized_bits(
                        &self.shape,
                        &self.settings.block_shape,
                        P::BITS,
                        I::BITS,
                        self.kept_per_block(),
                    ),
                    "serializer and §IV-C accounting must agree"
                );
            }
            Coder::Rans => self.write_indices_rans(&mut w),
        }
        w.into_bytes()
    }

    /// Serializes to the legacy v1 layout (no coder tag, fixed-width
    /// indices) — what store format v1 files hold.
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.write_bits(P::TYPE.tag() as u64, 2);
        w.write_bits(I::TYPE.tag() as u64, 2);
        w.write_bits(self.settings.transform.tag() as u64, 4);
        self.write_header_and_biggest(&mut w);
        self.write_indices_fixed(&mut w);
        w.into_bytes()
    }

    /// Picks the index coder [`CompressedArray::to_bytes`] will use:
    /// builds the optimized symbol table and compares its integer
    /// (platform-independent) size estimate against the fixed-width
    /// payload. Depends only on the data, never on thread count.
    pub fn choose_coder(&self) -> Coder {
        if self.indices.is_empty() {
            return Coder::FixedWidth;
        }
        let hist = Histogram::of(&self.indices);
        let table = SymbolTable::optimize(&hist);
        tel::count!("coder.table_builds", 1);
        let n_pieces = self.biggest.len().div_ceil(BLOCKS_PER_PIECE) as u64;
        let est = table.estimated_bits(&hist, I::BITS, n_pieces);
        let fixed = I::BITS as u64 * self.indices.len() as u64;
        if est < fixed {
            Coder::Rans
        } else {
            Coder::FixedWidth
        }
    }

    /// Writes shape, end marker, block shape, mask, and the
    /// biggest-coefficient section (identical in every version/coder).
    fn write_header_and_biggest(&self, w: &mut BitWriter) {
        for &e in &self.shape {
            w.write_bits(e as u64, 64);
        }
        w.write_bits(SHAPE_END, 64);
        for &e in &self.settings.block_shape {
            w.write_bits(e as u64, 64);
        }
        for &b in self.settings.mask.as_bools() {
            w.write_bit(b);
        }
        let biggest = &self.biggest;
        let parts: Vec<(Vec<u8>, usize)> = block_ranges(biggest.len())
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut pw = BitWriter::new();
                for &n in &biggest[lo..hi] {
                    pw.write_bits(n.to_bits_u64(), P::BITS);
                }
                let bit_len = pw.bit_len();
                (pw.into_bytes(), bit_len)
            })
            .collect();
        for (bytes, bit_len) in &parts {
            w.append_bits(bytes, *bit_len);
        }
    }

    /// Writes the fixed-width index payload: per-piece sub-streams
    /// encoded in parallel, spliced in block order.
    fn write_indices_fixed(&self, w: &mut BitWriter) {
        let k = self.kept_per_block();
        let mask = index_mask(I::BITS);
        let indices = &self.indices;
        let parts: Vec<(Vec<u8>, usize)> = block_ranges(self.biggest.len())
            .into_par_iter()
            .map(|(lo, hi)| {
                let mut pw = BitWriter::new();
                for &f in &indices[lo * k..hi * k] {
                    pw.write_bits(f.to_i64() as u64 & mask, I::BITS);
                }
                let bit_len = pw.bit_len();
                (pw.into_bytes(), bit_len)
            })
            .collect();
        for (bytes, bit_len) in &parts {
            w.append_bits(bytes, *bit_len);
        }
    }

    /// Writes the rANS index payload: table header, per-piece
    /// word/escape counts, then the piece bodies (encoded in parallel,
    /// spliced in piece order).
    fn write_indices_rans(&self, w: &mut BitWriter) {
        let k = self.kept_per_block();
        let mut sw = tel::Stopwatch::start();
        let hist = Histogram::of(&self.indices);
        sw.lap(tel::histogram!("codec.entropy.histogram"));
        let table = SymbolTable::optimize(&hist);
        tel::count!("coder.table_builds", 1);
        sw.lap(tel::histogram!("codec.entropy.table"));
        w.write_bits(table.vals.len() as u64, 16);
        w.write_bits(table.esc_freq as u64, 13);
        let imask = index_mask(I::BITS);
        for (&v, &f) in table.vals.iter().zip(&table.freqs) {
            w.write_bits(v as u64 & imask, I::BITS);
            w.write_bits((f - 1) as u64, SCALE_BITS);
        }
        let enc = ans::EncTable::new::<I>(&table);
        let indices = &self.indices;
        let pieces: Vec<(Vec<u8>, usize, usize, usize)> = block_ranges(self.biggest.len())
            .into_par_iter()
            .map(|(lo, hi)| {
                let (words, escapes) = ans::encode_piece(&indices[lo * k..hi * k], &enc);
                let mut pw = BitWriter::new();
                for &word in &words {
                    pw.write_u32(word);
                }
                for &v in &escapes {
                    pw.write_bits(v.to_i64() as u64 & imask, I::BITS);
                }
                let bit_len = pw.bit_len();
                (pw.into_bytes(), bit_len, words.len(), escapes.len())
            })
            .collect();
        sw.lap(tel::histogram!("codec.entropy.encode"));
        if tel::counters_enabled() {
            tel::counter!("coder.symbols").add(self.indices.len() as u64);
            let n_escapes: u64 = pieces.iter().map(|&(_, _, _, e)| e as u64).sum();
            tel::counter!("coder.escapes").add(n_escapes);
        }
        for &(_, _, n_words, n_escapes) in &pieces {
            w.write_bits(n_words as u64, 32);
            w.write_bits(n_escapes as u64, 32);
        }
        for (bytes, bit_len, _, _) in &pieces {
            w.append_bits(bytes, *bit_len);
        }
    }

    /// Deserializes from bytes (v2 layout). Fails if the stream's type
    /// tags do not match `P` and `I`, or the stream is malformed —
    /// truncated, bit-flipped, or header-inconsistent streams return
    /// [`BlazError`], never panic or over-read.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BlazError> {
        Self::parse(bytes, StreamVersion::V2)
    }

    /// Deserializes a legacy v1 stream (no coder tag, fixed-width
    /// indices) — the parser store format v1 chunks go through.
    pub fn from_bytes_v1(bytes: &[u8]) -> Result<Self, BlazError> {
        Self::parse(bytes, StreamVersion::V1)
    }

    /// Deserializes a v2 stream into `slot`, reusing the previous
    /// occupant's buffers instead of allocating fresh ones.
    ///
    /// This is the scan-loop entry point: when `slot` already holds the
    /// previous chunk of a homogeneous sequence, the header is checked
    /// bit-for-bit against that chunk's shape/settings without
    /// allocating, and a match decodes the payload straight into the
    /// existing `biggest`/`indices` vectors — zero heap allocation on
    /// the steady-state path. A header mismatch falls back to a full
    /// parse (still reusing the vectors' capacity where possible). On
    /// error `slot` is left `None`; the decoded result is exactly
    /// [`CompressedArray::from_bytes`]'s.
    pub fn from_bytes_into(bytes: &[u8], slot: &mut Option<Self>) -> Result<(), BlazError> {
        Self::parse_into(bytes, StreamVersion::V2, slot)
    }

    /// [`CompressedArray::from_bytes_into`] for legacy v1 streams.
    pub fn from_bytes_v1_into(bytes: &[u8], slot: &mut Option<Self>) -> Result<(), BlazError> {
        Self::parse_into(bytes, StreamVersion::V1, slot)
    }

    fn parse(bytes: &[u8], version: StreamVersion) -> Result<Self, BlazError> {
        let mut slot = None;
        Self::parse_into(bytes, version, &mut slot)?;
        Ok(slot.expect("parse_into fills the slot on success"))
    }

    /// Streams over the header of `bytes`, comparing every field (type
    /// tags, transform, shape, block shape, mask) against this array's
    /// without allocating. Returns the stream's coder and payload start
    /// bit on a full match; `None` on any mismatch or truncation, in
    /// which case the caller re-parses the header from scratch.
    fn header_matches(&self, bytes: &[u8], version: StreamVersion) -> Option<(Coder, usize)> {
        let mut r = BitReader::new(bytes);
        if r.read_bits(2)? as u8 != P::TYPE.tag() || r.read_bits(2)? as u8 != I::TYPE.tag() {
            return None;
        }
        if r.read_bits(4)? as u8 != self.settings.transform.tag() {
            return None;
        }
        let coder = match version {
            StreamVersion::V1 => Coder::FixedWidth,
            StreamVersion::V2 => Coder::from_tag(r.read_bits(8)? as u8)?,
        };
        for &e in &self.shape {
            if r.read_u64()? != e as u64 {
                return None;
            }
        }
        if r.read_u64()? != SHAPE_END {
            return None;
        }
        for &e in &self.settings.block_shape {
            if r.read_u64()? != e as u64 {
                return None;
            }
        }
        for &b in self.settings.mask.as_bools() {
            if r.read_bit()? != b {
                return None;
            }
        }
        Some((coder, r.bit_pos()))
    }

    fn parse_into(
        bytes: &[u8],
        version: StreamVersion,
        slot: &mut Option<Self>,
    ) -> Result<(), BlazError> {
        let _span = tel::span!("codec.deserialize");
        let matched = slot
            .as_ref()
            .and_then(|prev| prev.header_matches(bytes, version));
        let (shape, settings, coder, payload_start, mut biggest, mut indices) =
            match (matched, slot.take()) {
                (Some((coder, payload_start)), Some(prev)) => (
                    prev.shape,
                    prev.settings,
                    coder,
                    payload_start,
                    prev.biggest,
                    prev.indices,
                ),
                (_, prev) => {
                    let h = parse_header(bytes, version)?;
                    if h.float_type != P::TYPE {
                        return Err(bad(&format!(
                            "float type tag {} does not match requested {}",
                            h.float_type,
                            P::TYPE
                        )));
                    }
                    if h.index_type != I::TYPE {
                        return Err(bad(&format!(
                            "index type tag {} does not match requested {}",
                            h.index_type,
                            I::TYPE
                        )));
                    }
                    let (biggest, indices) = match prev {
                        Some(p) => (p.biggest, p.indices),
                        None => (Vec::new(), Vec::new()),
                    };
                    (
                        h.shape,
                        h.settings,
                        h.coder,
                        h.payload_start,
                        biggest,
                        indices,
                    )
                }
            };
        let n_blocks = ceil_div_count(&shape, &settings.block_shape);
        let k = settings.mask.kept_count();
        let mut r = BitReader::at(bytes, payload_start);
        // Before touching the buffers, confirm the stream actually holds
        // the biggest section the header claims.
        let biggest_bits = (P::BITS as u64)
            .checked_mul(n_blocks as u64)
            .ok_or_else(|| bad("biggest section size overflows"))?;
        if (r.remaining() as u64) < biggest_bits {
            return Err(bad("stream shorter than its header claims"));
        }
        let biggest_start = r.bit_pos();
        biggest.clear();
        biggest.resize(n_blocks, P::from_bits_u64(0));
        biggest
            .par_chunks_mut(BLOCKS_PER_PIECE)
            .enumerate()
            .for_each(|(piece, chunk)| {
                let lo = piece * BLOCKS_PER_PIECE;
                let mut pr = BitReader::at(bytes, biggest_start + lo * P::BITS as usize);
                for n in chunk {
                    *n = P::from_bits_u64(pr.read_bits(P::BITS).expect("payload length validated"));
                }
            });
        r.skip(n_blocks * P::BITS as usize);
        match coder {
            Coder::FixedWidth => {
                decode_indices_fixed_into::<I>(bytes, &mut r, n_blocks, k, &mut indices)?
            }
            Coder::Rans => decode_indices_rans_into::<I>(bytes, &mut r, n_blocks, k, &mut indices)?,
        }
        *slot = Some(Self {
            shape,
            settings,
            biggest,
            indices,
        });
        Ok(())
    }
}

/// Decodes the fixed-width index payload in parallel pieces straight
/// into `out`: every field is fixed-width, so each piece's bit offset is
/// computable and a private `BitReader` can start right there.
fn decode_indices_fixed_into<I: BinIndex>(
    bytes: &[u8],
    r: &mut BitReader<'_>,
    n_blocks: usize,
    k: usize,
    out: &mut Vec<I>,
) -> Result<(), BlazError> {
    let index_bits = (I::BITS as u64)
        .checked_mul(k as u64)
        .and_then(|b| b.checked_mul(n_blocks as u64))
        .ok_or_else(|| bad("index payload size overflows"))?;
    if (r.remaining() as u64) < index_bits {
        return Err(bad("stream shorter than its header claims"));
    }
    let index_start = r.bit_pos();
    out.clear();
    out.resize(n_blocks * k, I::from_i64(0));
    // `k ≥ 1` (the mask always keeps a coefficient), so the chunk size
    // is nonzero and the chunks are exactly the `block_ranges` pieces.
    let piece_len = BLOCKS_PER_PIECE * k.max(1);
    out.par_chunks_mut(piece_len)
        .enumerate()
        .for_each(|(p, chunk)| {
            let mut pr = BitReader::at(bytes, index_start + p * piece_len * I::BITS as usize);
            for f in chunk {
                let raw = pr.read_bits(I::BITS).expect("payload length validated");
                *f = I::from_i64(sign_extend(raw, I::BITS));
            }
        });
    Ok(())
}

/// Decodes the rANS index payload straight into `out`: validate the
/// symbol table, read the per-piece headers, prefix-sum the piece body
/// offsets, then decode pieces in parallel into disjoint sub-slices.
fn decode_indices_rans_into<I: BinIndex>(
    bytes: &[u8],
    r: &mut BitReader<'_>,
    n_blocks: usize,
    k: usize,
    out: &mut Vec<I>,
) -> Result<(), BlazError> {
    let n_syms = r
        .read_bits(16)
        .ok_or_else(|| bad("truncated rANS table header"))? as usize;
    if n_syms > MAX_TABLE_SYMS {
        return Err(bad("rANS table too large"));
    }
    let esc_freq = r
        .read_bits(13)
        .ok_or_else(|| bad("truncated rANS escape frequency"))? as u32;
    RANS_SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        let RansScratch {
            table,
            headers,
            offsets,
        } = scratch;
        table.vals.clear();
        table.freqs.clear();
        for _ in 0..n_syms {
            let raw = r
                .read_bits(I::BITS)
                .ok_or_else(|| bad("truncated rANS table entry"))?;
            table.vals.push(sign_extend(raw, I::BITS));
            table.freqs.push(
                r.read_bits(SCALE_BITS)
                    .ok_or_else(|| bad("truncated rANS table entry"))? as u32
                    + 1,
            );
        }
        table
            .rebuild(esc_freq)
            .map_err(|e| bad(&format!("invalid rANS table: {e}")))?;
        tel::count!("coder.rans_decodes", 1);
        tel::count!("coder.table_rebuilds", 1);
        // Piece headers. Guard the count against the remaining bits before
        // growing anything proportional to it — a lying shape cannot
        // force a huge allocation.
        let n_pieces = n_blocks.div_ceil(BLOCKS_PER_PIECE);
        if (n_pieces as u128) * 64 > r.remaining() as u128 {
            return Err(bad("stream shorter than its piece headers claim"));
        }
        headers.clear();
        let mut total_bits: u128 = 0;
        for p in 0..n_pieces {
            let (lo, hi) = (
                p * BLOCKS_PER_PIECE,
                ((p + 1) * BLOCKS_PER_PIECE).min(n_blocks),
            );
            let n_words = r
                .read_bits(32)
                .ok_or_else(|| bad("truncated piece header"))? as usize;
            let n_escapes = r
                .read_bits(32)
                .ok_or_else(|| bad("truncated piece header"))? as usize;
            let m = (hi - lo) * k;
            if n_escapes > m {
                return Err(bad("piece claims more escapes than symbols"));
            }
            total_bits += n_words as u128 * 32 + n_escapes as u128 * I::BITS as u128;
            headers.push((n_words, n_escapes, m));
        }
        if total_bits > r.remaining() as u128 {
            return Err(bad("stream shorter than its piece bodies claim"));
        }
        if tel::counters_enabled() {
            tel::counter!("coder.symbols_decoded").add((n_blocks * k) as u64);
            let esc: u64 = headers.iter().map(|&(_, e, _)| e as u64).sum();
            tel::counter!("coder.escapes_decoded").add(esc);
        }
        offsets.clear();
        let mut pos = r.bit_pos();
        for &(n_words, n_escapes, _) in headers.iter() {
            offsets.push(pos);
            pos += n_words * 32 + n_escapes * I::BITS as usize;
        }
        batch_decode::with_dec_table::<I, _>(table, |dec| {
            out.clear();
            out.resize(n_blocks * k, I::from_i64(0));
            // `k ≥ 1`, so these chunks are exactly the piece block ranges
            // the headers describe, one disjoint output sub-slice per
            // piece. Piece errors land in a stack-held latch keeping the
            // lowest piece index (deterministic at any thread count),
            // rather than a collected result vector — the success path
            // performs no allocation at all.
            let piece_len = BLOCKS_PER_PIECE * k.max(1);
            let first_err: std::sync::Mutex<Option<(usize, BlazError)>> =
                std::sync::Mutex::new(None);
            out.par_chunks_mut(piece_len)
                .enumerate()
                .for_each(|(p, chunk)| {
                    let (n_words, n_escapes, m) = headers[p];
                    let res = if chunk.len() != m {
                        Err(bad("piece layout mismatch"))
                    } else {
                        batch_decode::decode_piece_into(
                            bytes, offsets[p], n_words, n_escapes, chunk, dec,
                        )
                    };
                    if let Err(e) = res {
                        let mut latch = first_err.lock().expect("no panics hold this lock");
                        if latch.as_ref().is_none_or(|&(q, _)| p < q) {
                            *latch = Some((p, e));
                        }
                    }
                });
            match first_err.into_inner().expect("no panics hold this lock") {
                Some((_, e)) => Err(e),
                None => Ok(()),
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress, CompressedArray, PruningMask, Settings};
    use blazr_precision::{BF16, F16};
    use blazr_tensor::NdArray;
    use blazr_util::rng::Xoshiro256pp;

    fn random_array(shape: Vec<usize>, seed: u64) -> NdArray<f64> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        NdArray::from_fn(shape, |_| rng.uniform_in(-2.0, 2.0))
    }

    /// A smooth field whose bin histogram is skewed (DCT energy compacts
    /// into few coefficients), so rANS engages.
    fn smooth_array(shape: Vec<usize>) -> NdArray<f64> {
        NdArray::from_fn(shape, |ix| {
            ix.iter().map(|&i| (i as f64 * 0.07).sin()).sum::<f64>()
        })
    }

    #[test]
    fn roundtrip_f32_i16() {
        let a = random_array(vec![12, 20], 1);
        let c = compress::<f32, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        let bytes = c.to_bytes();
        let back = CompressedArray::<f32, i16>::from_bytes(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn roundtrip_all_type_combinations() {
        let a = random_array(vec![9, 10], 2);
        let s = Settings::new(vec![4, 4]).unwrap();
        macro_rules! rt {
            ($p:ty, $i:ty) => {{
                let c = compress::<$p, $i>(&a, &s).unwrap();
                for coder in Coder::ALL {
                    let back =
                        CompressedArray::<$p, $i>::from_bytes(&c.to_bytes_with(coder)).unwrap();
                    assert_eq!(back, c);
                }
                let back = CompressedArray::<$p, $i>::from_bytes_v1(&c.to_bytes_v1()).unwrap();
                assert_eq!(back, c);
            }};
        }
        rt!(f64, i8);
        rt!(f64, i64);
        rt!(f32, i32);
        rt!(F16, i8);
        rt!(F16, i16);
        rt!(BF16, i16);
        rt!(BF16, i32);
    }

    #[test]
    fn serialized_size_matches_formula() {
        let a = random_array(vec![30, 50], 3);
        let c = compress::<f32, i8>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        let bytes = c.to_bytes_with(Coder::FixedWidth);
        let bits = crate::ratio::serialized_bits(&[30, 50], &[8, 8], 32, 8, 64);
        assert_eq!(bytes.len(), (bits as usize).div_ceil(8));
        // The v1 stream is the coder tag (8 bits) shorter.
        let v1 = c.to_bytes_v1();
        assert_eq!(v1.len(), (bits as usize - 8).div_ceil(8));
    }

    #[test]
    fn rans_beats_fixed_on_smooth_data() {
        let a = smooth_array(vec![96, 96]);
        let c = compress::<f32, i16>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        let fixed = c.to_bytes_with(Coder::FixedWidth);
        let rans = c.to_bytes_with(Coder::Rans);
        assert!(
            (rans.len() as f64) < 0.85 * fixed.len() as f64,
            "rans {} not ≪ fixed {}",
            rans.len(),
            fixed.len()
        );
        // And the automatic choice takes the win.
        assert_eq!(c.choose_coder(), Coder::Rans);
        assert_eq!(peek_coder(&c.to_bytes()), Some(Coder::Rans));
    }

    #[test]
    fn near_uniform_histogram_falls_back_to_fixed_width() {
        // Identity transform over uniform data: indices spread evenly
        // over the whole i8 range, so a table cannot win.
        let a = random_array(vec![64, 64], 17);
        let s = Settings::new(vec![4, 4])
            .unwrap()
            .with_transform(crate::TransformKind::Identity);
        let c = compress::<f32, i8>(&a, &s).unwrap();
        assert_eq!(c.choose_coder(), Coder::FixedWidth);
        assert_eq!(peek_coder(&c.to_bytes()), Some(Coder::FixedWidth));
    }

    #[test]
    fn pruned_roundtrip() {
        let a = random_array(vec![16, 16], 4);
        let s = Settings::new(vec![4, 4])
            .unwrap()
            .with_mask(PruningMask::keep_low_frequency_box(&[4, 4], &[2, 2]).unwrap())
            .unwrap();
        let c = compress::<f64, i16>(&a, &s).unwrap();
        for coder in Coder::ALL {
            let back = CompressedArray::<f64, i16>::from_bytes(&c.to_bytes_with(coder)).unwrap();
            assert_eq!(back, c);
            assert_eq!(back.decompress().as_slice(), c.decompress().as_slice());
        }
    }

    #[test]
    fn negative_indices_sign_extend() {
        let a = random_array(vec![8, 8], 5).mul_scalar(-1.0);
        let c = compress::<f64, i8>(&a, &Settings::new(vec![8, 8]).unwrap()).unwrap();
        assert!(c.indices().iter().any(|&f| f < 0), "need negative indices");
        for coder in Coder::ALL {
            let back = CompressedArray::<f64, i8>::from_bytes(&c.to_bytes_with(coder)).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn buffer_reusing_decode_matches_fresh_decode() {
        let s = Settings::new(vec![4, 4]).unwrap();
        let mut slot: Option<CompressedArray<f32, i16>> = None;
        // Same geometry, different data: the header-match fast path must
        // deliver each chunk's own payload, not the previous one's.
        for seed in 0..4 {
            let a = random_array(vec![12, 20], 100 + seed);
            let c = compress::<f32, i16>(&a, &s).unwrap();
            for coder in Coder::ALL {
                CompressedArray::from_bytes_into(&c.to_bytes_with(coder), &mut slot).unwrap();
                assert_eq!(slot.as_ref().unwrap(), &c, "seed {seed} {coder}");
            }
            CompressedArray::from_bytes_v1_into(&c.to_bytes_v1(), &mut slot).unwrap();
            assert_eq!(slot.as_ref().unwrap(), &c, "seed {seed} v1");
        }
        // A geometry change mid-sequence falls back to the full parse.
        let b = random_array(vec![9, 7], 200);
        let cb = compress::<f32, i16>(&b, &s).unwrap();
        CompressedArray::from_bytes_into(&cb.to_bytes(), &mut slot).unwrap();
        assert_eq!(slot.as_ref().unwrap(), &cb);
        // Errors clear the slot rather than leaving stale data behind.
        assert!(CompressedArray::from_bytes_into(&[0xFFu8; 8], &mut slot).is_err());
        assert!(slot.is_none());
    }

    #[test]
    fn wrong_type_params_rejected() {
        let a = random_array(vec![8, 8], 6);
        let c = compress::<f32, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        let bytes = c.to_bytes();
        assert!(CompressedArray::<f64, i16>::from_bytes(&bytes).is_err());
        assert!(CompressedArray::<f32, i8>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_stream_rejected() {
        let a = random_array(vec![8, 8], 7);
        let c = compress::<f32, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        for coder in Coder::ALL {
            let bytes = c.to_bytes_with(coder);
            for cut in [1, 3, 8, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    CompressedArray::<f32, i16>::from_bytes(&bytes[..cut]).is_err(),
                    "{coder}: cut {cut}"
                );
            }
        }
    }

    #[test]
    fn garbage_rejected() {
        let garbage = vec![0xFFu8; 64];
        assert!(CompressedArray::<f32, i16>::from_bytes(&garbage).is_err());
        assert!(CompressedArray::<f32, i16>::from_bytes_v1(&garbage).is_err());
    }

    #[test]
    fn corrupt_rans_table_rejected() {
        let a = smooth_array(vec![40, 40]);
        let c = compress::<f32, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        let bytes = c.to_bytes_with(Coder::Rans);
        // The table header follows the (fixed-size-for-this-geometry)
        // prologue + shape + mask + biggest section. Corrupt the symbol
        // count: frequencies no longer sum to SCALE.
        let h = peek_info(&bytes, StreamVersion::V2).unwrap();
        assert_eq!(h.coder, Coder::Rans);
        let n_blocks = 100u64;
        let table_start_bits = 16 + 3 * 64 + 2 * 64 + 16 + 32 * n_blocks;
        let byte = (table_start_bits / 8) as usize;
        let mut bad = bytes.clone();
        bad[byte] ^= 0xFF;
        assert!(CompressedArray::<f32, i16>::from_bytes(&bad).is_err());
    }

    #[test]
    fn peek_types_reads_the_prologue() {
        let a = random_array(vec![8, 8], 9);
        let c = compress::<f32, i16>(&a, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        assert_eq!(
            crate::serialize::peek_types(&c.to_bytes()),
            Some((crate::ScalarType::F32, crate::IndexType::I16))
        );
        assert_eq!(crate::serialize::peek_types(&[]), None);
        assert_eq!(peek_coder(&[0u8]), None);
    }

    #[test]
    fn peek_info_reports_header_fields() {
        let a = random_array(vec![10, 11], 10);
        let s = Settings::new(vec![4, 4])
            .unwrap()
            .with_mask(PruningMask::keep_lowest_frequencies(&[4, 4], 5).unwrap())
            .unwrap();
        let c = compress::<f32, i8>(&a, &s).unwrap();
        for coder in Coder::ALL {
            let info = peek_info(&c.to_bytes_with(coder), StreamVersion::V2).unwrap();
            assert_eq!(info.coder, coder);
            assert_eq!(info.shape, vec![10, 11]);
            assert_eq!(info.block_shape, vec![4, 4]);
            assert_eq!(info.kept_per_block, 5);
            assert_eq!(info.float_type, crate::ScalarType::F32);
            assert_eq!(info.index_type, crate::IndexType::I8);
        }
        let v1 = peek_info(&c.to_bytes_v1(), StreamVersion::V1).unwrap();
        assert_eq!(v1.coder, Coder::FixedWidth);
        assert_eq!(
            v1.fixed_width_bits() + 8,
            peek_info(&c.to_bytes(), StreamVersion::V2)
                .unwrap()
                .fixed_width_bits()
        );
        assert!(peek_info(&[1, 2, 3], StreamVersion::V2).is_none());
    }

    #[test]
    fn three_dimensional_roundtrip() {
        let a = random_array(vec![5, 6, 7], 8);
        let s = Settings::new(vec![2, 4, 4]).unwrap();
        let c = compress::<f32, i16>(&a, &s).unwrap();
        for coder in Coder::ALL {
            let back = CompressedArray::<f32, i16>::from_bytes(&c.to_bytes_with(coder)).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn scalar_and_empty_arrays_roundtrip_under_both_coders() {
        let scalar = NdArray::from_vec(vec![], vec![0.375f64]);
        let c = compress::<f32, i16>(&scalar, &Settings::new(vec![]).unwrap()).unwrap();
        for coder in Coder::ALL {
            let back = CompressedArray::<f32, i16>::from_bytes(&c.to_bytes_with(coder)).unwrap();
            assert_eq!(back, c);
        }
        let empty = NdArray::<f64>::zeros(vec![0, 4]);
        let c = compress::<f32, i16>(&empty, &Settings::new(vec![4, 4]).unwrap()).unwrap();
        for coder in Coder::ALL {
            let back = CompressedArray::<f32, i16>::from_bytes(&c.to_bytes_with(coder)).unwrap();
            assert_eq!(back, c);
        }
    }
}
