//! The single-file on-disk format.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ "BLZSTOR3"                               header magic, 8 B   │
//! ├──────────────────────────────────────────────────────────────┤
//! │ chunk 0 preamble (32 B):                                     │
//! │   "BLZCHNK1" │ u64 label │ u64 len │ u64 fnv1a64(payload)    │
//! │ chunk 0 payload          §IV-C stream (core::serialize)      │
//! │ (zero padding to the next 8-byte boundary)                   │
//! │ chunk 1 preamble │ chunk 1 payload                           │
//! │ …                                                            │
//! ├──────────────────────────────────────────────────────────────┤
//! │ footer:                                                      │
//! │   u64 chunk_count                                            │
//! │   per chunk (96 B):                                          │
//! │     u64 label │ u64 offset │ u64 len │ u64 fnv1a64(payload)  │
//! │     u64 coder tag                                            │
//! │     u64 count │ f64 sum │ f64 sum_sq                         │
//! │     f64 min_bound │ f64 max_bound │ f64 linf │ f64 l2        │
//! ├──────────────────────────────────────────────────────────────┤
//! │ trailer (24 B):                                              │
//! │   u64 footer_len │ u64 fnv1a64(footer) │ "BLZSIDX1"          │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Everything is little-endian and fixed-width, so the footer is seekable
//! from the end of the file without touching any payload: read the
//! trailer, verify the checksum, decode `chunk_count` index entries.
//! Appending is a pure forward write; the index is written once at
//! `finish()` (the append-only, footer-indexed shape of TSM/Parquet
//! files). Floats are stored via `to_bits`, so zone maps round-trip
//! bit-exactly and a store written twice from the same data is
//! byte-identical at any thread count.
//!
//! **Alignment.** The writer pads the gap before each chunk payload with
//! zero bytes so every payload starts on a [`CHUNK_ALIGN`]-byte boundary
//! (the header is 8 bytes, so chunk 0 is aligned for free). The footer's
//! `offset`/`len` describe only the payload — never the padding — and
//! [`decode_footer`] accepts such forward gaps (offsets may jump ahead of
//! the previous payload's end, just never behind it), so a file whose
//! payloads are packed back-to-back reads identically. Aligned payloads
//! let the mmap-backed read path hand out naturally aligned borrowed
//! slices.
//!
//! **Version history.** v3 only; pre-v3 magics are refused. The two
//! earlier layouts ([`PRE_V3_MAGICS`]) are no longer read or written:
//! [`crate::Store::open`] and [`crate::Store::open_salvage`] answer them
//! with [`StoreError::Corrupt`] naming the magic, and the data must be
//! re-ingested. v3 writes a 32-byte **chunk preamble** immediately before
//! each payload, making every chunk self-describing on disk.
//!
//! **Salvage scan invariants.** The preamble is what makes a v3 store
//! recoverable when its footer or trailer is damaged
//! ([`crate::Store::open_salvage`]): [`scan_salvage`] walks the file and
//! rebuilds an index from preambles alone. The scan relies on exactly
//! these invariants, which the writer maintains:
//!
//! 1. **Alignment** — every preamble starts on a [`CHUNK_ALIGN`]-byte
//!    boundary (the writer zero-pads after each payload), so the scan
//!    only probes aligned offsets and resynchronizes after damage by
//!    stepping [`CHUNK_ALIGN`] bytes at a time.
//! 2. **Chunk magic** — a preamble begins with [`CHUNK_MAGIC`]
//!    (`"BLZCHNK1"`), which the payload encoding cannot emit at an
//!    aligned position by construction of the scan (a match inside a
//!    payload is additionally rejected by the checksum test below).
//! 3. **Self-describing headers** — the preamble carries the chunk
//!    label, payload length, and payload FNV-1a64 checksum. A candidate
//!    is accepted only if the length lands inside the file, the checksum
//!    over those bytes matches, and the label extends the
//!    strictly-increasing label sequence; everything else is skipped as
//!    damage. Footer `offset`/`len` continue to describe only the
//!    payload, so preambles live in the forward gaps that
//!    [`decode_footer`] already tolerates.

use crate::error::StoreError;
use crate::zonemap::ZoneMap;
use blazr::ops::{ChunkStats, ErrorBounds};
use blazr::Coder;

/// Leading file magic of the format (v3).
pub const HEADER_MAGIC: &[u8; 8] = b"BLZSTOR3";
/// The format name `store stat` reports.
pub const FORMAT_NAME: &str = "V3";
/// Leading file magics of the retired pre-v3 formats, which are refused
/// rather than read.
pub const PRE_V3_MAGICS: [&[u8; 8]; 2] = [b"BLZSTOR1", b"BLZSTOR2"];
/// Magic leading every v3 chunk preamble.
pub const CHUNK_MAGIC: &[u8; 8] = b"BLZCHNK1";
/// Bytes of a v3 chunk preamble: magic, label, payload len, payload
/// checksum. A multiple of [`CHUNK_ALIGN`], so payloads stay aligned.
pub const PREAMBLE_LEN: usize = 32;
/// Trailing file magic.
pub const TRAILER_MAGIC: &[u8; 8] = b"BLZSIDX1";
/// Bytes of the fixed-size trailer: footer length, checksum, magic.
pub const TRAILER_LEN: usize = 24;
/// Bytes per footer index entry.
pub const ENTRY_LEN: usize = 96;
/// Smallest possible store file: header + empty footer + trailer.
pub const MIN_FILE_LEN: usize = HEADER_MAGIC.len() + 8 + TRAILER_LEN;
/// Alignment (bytes) of every chunk payload the writer emits. The writer
/// pads with zeros up to this boundary before each payload; the pad
/// bytes are invisible to the footer (offsets/lengths cover payloads
/// only) and tolerated by [`decode_footer`] as forward gaps.
pub const CHUNK_ALIGN: u64 = 8;

/// The refusal for a file whose header magic is one of
/// [`PRE_V3_MAGICS`]: a [`StoreError::Corrupt`] that names the magic and
/// says to re-ingest. `None` for any other magic.
pub(crate) fn pre_v3_refusal(magic: &[u8]) -> Option<StoreError> {
    let m = PRE_V3_MAGICS.iter().find(|m| m[..] == *magic)?;
    Some(StoreError::Corrupt(format!(
        "pre-v3 store (header magic {}) is no longer readable; re-ingest it",
        String::from_utf8_lossy(&m[..])
    )))
}

/// One chunk's footer record: where its payload lives and its zone map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEntry {
    /// Caller-chosen chunk label (time step, row offset, …); strictly
    /// increasing across the store.
    pub label: u64,
    /// Absolute file offset of the chunk payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a64 checksum of the payload bytes, verified on every chunk
    /// read — footer corruption is caught by the trailer checksum,
    /// payload corruption by this one.
    pub payload_sum: u64,
    /// The entropy coder of the chunk's index payload (the footer echoes
    /// the stream's own coder tag so `store stat` can report per-coder
    /// counts without reading payloads).
    pub coder: Coder,
    /// The chunk's compressed-space summary.
    pub zone: ZoneMap,
}

/// FNV-1a 64-bit checksum (the footer is small; this is corruption
/// detection, not cryptography).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a footer (chunk count + index entries), without the trailer.
pub fn encode_footer(entries: &[IndexEntry]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + entries.len() * ENTRY_LEN);
    push_u64(&mut out, entries.len() as u64);
    for e in entries {
        push_u64(&mut out, e.label);
        push_u64(&mut out, e.offset);
        push_u64(&mut out, e.len);
        push_u64(&mut out, e.payload_sum);
        push_u64(&mut out, e.coder.tag() as u64);
        for bits in e.zone.to_bits() {
            push_u64(&mut out, bits);
        }
    }
    out
}

/// Encodes the trailer for a footer of the given bytes.
pub fn encode_trailer(footer: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRAILER_LEN);
    push_u64(&mut out, footer.len() as u64);
    push_u64(&mut out, fnv1a64(footer));
    out.extend_from_slice(TRAILER_MAGIC);
    out
}

/// Encodes a v3 chunk preamble for `payload` (checksum computed here).
pub fn encode_preamble(label: u64, payload: &[u8]) -> [u8; PREAMBLE_LEN] {
    let mut out = [0u8; PREAMBLE_LEN];
    out[..8].copy_from_slice(CHUNK_MAGIC);
    out[8..16].copy_from_slice(&label.to_le_bytes());
    out[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out[24..32].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    out
}

/// Decodes a v3 chunk preamble: `(label, payload_len, payload_sum)`.
/// `None` when the bytes are too short or the magic is wrong — a
/// checksum over the payload is the caller's job ([`scan_salvage`] does
/// it against the file).
pub fn decode_preamble(bytes: &[u8]) -> Option<(u64, u64, u64)> {
    if bytes.len() < PREAMBLE_LEN || &bytes[..8] != CHUNK_MAGIC {
        return None;
    }
    let u = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 B"));
    Some((u(8), u(16), u(24)))
}

/// One chunk recovered by [`scan_salvage`]: the slice of the scanned
/// bytes holding a payload whose preamble and checksum both verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageHit {
    /// The chunk label from its preamble.
    pub label: u64,
    /// Absolute offset of the payload in the scanned bytes.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a64 of the payload, re-verified against the bytes.
    pub payload_sum: u64,
}

/// Scans a (possibly damaged) v3 file for salvageable chunks, ignoring
/// footer and trailer entirely. Returns the verified hits in file order
/// plus the number of *damaged candidates* — aligned positions that
/// carried [`CHUNK_MAGIC`] but failed validation (bad length, checksum
/// mismatch, or out-of-order label). See the module docs for the
/// invariants the scan relies on.
pub fn scan_salvage(bytes: &[u8]) -> (Vec<SalvageHit>, u64) {
    let mut hits = Vec::new();
    let mut damaged = 0u64;
    let mut last_label = None;
    let align = CHUNK_ALIGN as usize;
    let mut pos = HEADER_MAGIC.len();
    while pos + PREAMBLE_LEN <= bytes.len() {
        let Some((label, len, sum)) = decode_preamble(&bytes[pos..]) else {
            pos += align;
            continue;
        };
        let payload_at = pos + PREAMBLE_LEN;
        let valid = usize::try_from(len)
            .ok()
            .and_then(|len| len.checked_add(payload_at))
            .filter(|&end| end <= bytes.len())
            .map(|end| fnv1a64(&bytes[payload_at..end]) == sum)
            .unwrap_or(false)
            && last_label.is_none_or(|last| label > last);
        if !valid {
            damaged += 1;
            pos += align;
            continue;
        }
        last_label = Some(label);
        hits.push(SalvageHit {
            label,
            offset: payload_at as u64,
            len,
            payload_sum: sum,
        });
        // Jump past the payload and its zero padding to the next
        // aligned position — the only place the next preamble can be.
        let end = payload_at + len as usize;
        pos = end + (align - end % align) % align;
    }
    (hits, damaged)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.bytes[self.pos..self.pos + 8].try_into().expect("8 B"));
        self.pos += 8;
        v
    }

    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

/// Decodes and validates a footer produced by [`encode_footer`].
/// `payload_end` is the file offset where chunk payloads must end (the
/// footer's own start); offsets and lengths are checked against it.
pub fn decode_footer(footer: &[u8], payload_end: u64) -> Result<Vec<IndexEntry>, StoreError> {
    let corrupt = |msg: String| StoreError::Corrupt(msg);
    if footer.len() < 8 {
        return Err(corrupt("footer shorter than its chunk count".into()));
    }
    let mut c = Cursor {
        bytes: footer,
        pos: 0,
    };
    let count = c.u64();
    // A hostile count must not overflow the size check.
    let expect = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(ENTRY_LEN))
        .and_then(|n| n.checked_add(8));
    if expect != Some(footer.len()) {
        return Err(corrupt(format!(
            "footer holds {} bytes but claims {count} chunks of {ENTRY_LEN} bytes",
            footer.len()
        )));
    }
    let mut entries = Vec::with_capacity(count as usize);
    let mut watermark = HEADER_MAGIC.len() as u64;
    let mut last_label = None;
    for i in 0..count {
        let label = c.u64();
        let offset = c.u64();
        let len = c.u64();
        let payload_sum = c.u64();
        let tag = c.u64();
        let coder = u8::try_from(tag)
            .ok()
            .and_then(Coder::from_tag)
            .ok_or_else(|| corrupt(format!("chunk {i}: unknown coder tag {tag}")))?;
        if let Some(last) = last_label {
            if label <= last {
                return Err(corrupt(format!(
                    "chunk {i}: label {label} not after {last}"
                )));
            }
        }
        last_label = Some(label);
        if offset < watermark || offset.checked_add(len).is_none_or(|end| end > payload_end) {
            return Err(corrupt(format!(
                "chunk {i}: payload [{offset}, {offset}+{len}) outside [{watermark}, {payload_end})"
            )));
        }
        watermark = offset + len;
        let stats = ChunkStats {
            count: c.u64(),
            sum: c.f64(),
            sum_sq: c.f64(),
            min_bound: c.f64(),
            max_bound: c.f64(),
        };
        let bounds = ErrorBounds {
            linf: c.f64(),
            l2: c.f64(),
        };
        entries.push(IndexEntry {
            label,
            offset,
            len,
            payload_sum,
            coder,
            zone: ZoneMap { stats, bounds },
        });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(label: u64, offset: u64, len: u64) -> IndexEntry {
        IndexEntry {
            label,
            offset,
            len,
            payload_sum: 0x1234_5678_9abc_def0,
            coder: Coder::Rans,
            zone: ZoneMap {
                stats: ChunkStats {
                    count: 64,
                    sum: 1.5,
                    sum_sq: 2.5,
                    min_bound: -0.25,
                    max_bound: 0.75,
                },
                bounds: ErrorBounds {
                    linf: 1e-4,
                    l2: 1e-3,
                },
            },
        }
    }

    #[test]
    fn footer_roundtrips_bit_exactly() {
        let entries = vec![entry(0, 8, 100), entry(10, 108, 50), entry(11, 158, 1)];
        let footer = encode_footer(&entries);
        assert_eq!(footer.len(), 8 + 3 * ENTRY_LEN);
        let back = decode_footer(&footer, 159).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn unknown_coder_tag_rejected() {
        let mut footer = encode_footer(&[entry(0, 8, 10)]);
        // The coder tag is the fifth u64 of the entry.
        footer[8 + 4 * 8] = 0x77;
        assert!(matches!(
            decode_footer(&footer, 50),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_footer_roundtrips() {
        let footer = encode_footer(&[]);
        assert_eq!(decode_footer(&footer, 8).unwrap(), vec![]);
    }

    #[test]
    fn preamble_roundtrips() {
        let payload = b"some chunk payload bytes";
        let p = encode_preamble(42, payload);
        assert_eq!(p.len(), PREAMBLE_LEN);
        let (label, len, sum) = decode_preamble(&p).unwrap();
        assert_eq!(label, 42);
        assert_eq!(len, payload.len() as u64);
        assert_eq!(sum, fnv1a64(payload));
        let mut bad = p;
        bad[0] ^= 1;
        assert!(decode_preamble(&bad).is_none());
        assert!(decode_preamble(&p[..PREAMBLE_LEN - 1]).is_none());
    }

    /// Header + preambled payloads (with alignment padding), no footer.
    fn fabricate_v3_body(chunks: &[(u64, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(HEADER_MAGIC);
        for &(label, payload) in chunks {
            out.extend_from_slice(&encode_preamble(label, payload));
            out.extend_from_slice(payload);
            while out.len() % CHUNK_ALIGN as usize != 0 {
                out.push(0);
            }
        }
        out
    }

    #[test]
    fn salvage_scan_recovers_all_intact_chunks() {
        let chunks: Vec<(u64, &[u8])> = vec![(0, b"first"), (3, b"second chunk"), (9, b"x")];
        let mut bytes = fabricate_v3_body(&chunks);
        // Garbage where the footer would be must not confuse the scan.
        bytes.extend_from_slice(&[0xAA; 40]);
        let (hits, damaged) = scan_salvage(&bytes);
        assert_eq!(damaged, 0);
        assert_eq!(hits.len(), 3);
        for (hit, (label, payload)) in hits.iter().zip(&chunks) {
            assert_eq!(hit.label, *label);
            assert_eq!(hit.len, payload.len() as u64);
            let at = hit.offset as usize;
            assert_eq!(&bytes[at..at + payload.len()], *payload);
        }
    }

    #[test]
    fn salvage_scan_skips_damaged_chunks_and_resyncs() {
        let chunks: Vec<(u64, &[u8])> =
            vec![(0, b"first payload"), (1, b"second payload"), (2, b"third")];
        let mut bytes = fabricate_v3_body(&chunks);
        // Flip one byte inside the second payload: its checksum fails,
        // but the scan must resynchronize and still find the third.
        let (clean, _) = scan_salvage(&bytes);
        bytes[clean[1].offset as usize + 3] ^= 0x40;
        let (hits, damaged) = scan_salvage(&bytes);
        assert_eq!(damaged, 1);
        assert_eq!(hits.iter().map(|h| h.label).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn salvage_scan_rejects_out_of_order_labels() {
        let bytes = fabricate_v3_body(&[(5, b"later"), (5, b"duplicate label")]);
        let (hits, damaged) = scan_salvage(&bytes);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].label, 5);
        assert_eq!(damaged, 1);
    }

    #[test]
    fn salvage_scan_ignores_unaligned_magic() {
        // CHUNK_MAGIC appearing *inside* a payload at an unaligned
        // offset is never probed.
        let mut payload = Vec::from(&b"abc"[..]);
        payload.extend_from_slice(CHUNK_MAGIC);
        payload.extend_from_slice(b"tail");
        let bytes = fabricate_v3_body(&[(1, &payload)]);
        let (hits, damaged) = scan_salvage(&bytes);
        assert_eq!(hits.len(), 1);
        assert_eq!(damaged, 0);
    }

    #[test]
    fn label_order_and_offsets_are_validated() {
        // Non-increasing labels.
        let footer = encode_footer(&[entry(5, 8, 10), entry(5, 18, 10)]);
        assert!(matches!(
            decode_footer(&footer, 28),
            Err(StoreError::Corrupt(_))
        ));
        // Payload reaching past the footer start.
        let footer = encode_footer(&[entry(0, 8, 100)]);
        assert!(decode_footer(&footer, 50).is_err());
        // Payload under the header.
        let footer = encode_footer(&[entry(0, 0, 4)]);
        assert!(decode_footer(&footer, 50).is_err());
        // Overlapping payloads.
        let footer = encode_footer(&[entry(0, 8, 10), entry(1, 12, 10)]);
        assert!(decode_footer(&footer, 50).is_err());
        // Truncated / padded footers.
        let good = encode_footer(&[entry(0, 8, 10)]);
        assert!(decode_footer(&good[..good.len() - 1], 50).is_err());
        assert!(decode_footer(&[], 50).is_err());
    }

    #[test]
    fn checksum_detects_single_bit_flips() {
        let footer = encode_footer(&[entry(0, 8, 10)]);
        let h = fnv1a64(&footer);
        for byte in [0, 10, footer.len() - 1] {
            let mut bad = footer.clone();
            bad[byte] ^= 0x01;
            assert_ne!(fnv1a64(&bad), h, "flip at {byte} not detected");
        }
    }

    #[test]
    fn trailer_layout() {
        let footer = encode_footer(&[]);
        let t = encode_trailer(&footer);
        assert_eq!(t.len(), TRAILER_LEN);
        assert_eq!(&t[16..], TRAILER_MAGIC);
        assert_eq!(u64::from_le_bytes(t[..8].try_into().unwrap()), 8);
    }
}
