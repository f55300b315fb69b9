//! Read-only store handle: the index in memory, chunk decode on demand,
//! and the paper's §VI series analyses running against on-disk data.
//!
//! # Zero-copy reads
//!
//! [`Store::open`] memory-maps the file when the platform supports it
//! (see [`blazr_util::mmap`]), so chunk accesses borrow payload bytes
//! straight out of the page cache — no per-query copies. The map stays
//! valid for the handle's lifetime because ingest is atomic-rename (see
//! [`crate::StoreWriter`]): a re-ingest replaces the *directory entry*,
//! never the mapped inode's bytes. Platforms without the mmap shim, and
//! [`Store::open_unmapped`], fall back to positional reads into a
//! per-thread scratch buffer.
//!
//! # Panics vs errors
//!
//! Every way bytes can be wrong — truncation, bit rot, hostile footers,
//! type mismatches — is a [`StoreError`], never a panic. Footer facts
//! about chunk `i` (label, coder, zone map) are fields of
//! `entries()[i]`, indexed like any slice. Accessors that read chunk
//! `i`'s payload ([`Store::chunk`], [`Store::chunk_bytes`],
//! [`Store::chunk_info`]) return [`StoreError::InvalidArgument`] for an
//! out-of-range index.

use crate::error::{io_err, StoreError};
use crate::format::{
    decode_footer, fnv1a64, pre_v3_refusal, scan_salvage, IndexEntry, HEADER_MAGIC, MIN_FILE_LEN,
    TRAILER_LEN, TRAILER_MAGIC,
};
use crate::writer::StoreWriter;
use crate::zonemap::ZoneMap;
use blazr::dynamic::{from_bytes_dyn_into, DynCompressed};
use blazr::serialize::StreamInfo;
use blazr::series::CompressedSeries;
use blazr::{BinIndex, CompressedArray, IndexType, ScalarType};
use blazr_precision::StorableReal;
use blazr_telemetry as tel;
use blazr_util::mmap::Mmap;
use blazr_util::retry::RetryPolicy;
use blazr_util::vfs::{OsVfs, Vfs, VfsFile};
use rayon::prelude::*;
use std::cell::Cell;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::OnceLock;

std::thread_local! {
    /// Reusable read buffer for the positional-read backing, so repeated
    /// chunk fetches on one thread do not allocate per access. `Cell`
    /// (take/put-back), not `RefCell`: the buffer is out of the slot for
    /// the duration of one read, which stays correct even if the access
    /// callback re-enters the store (the re-entrant read just takes a
    /// fresh buffer).
    static READ_SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Where an open store's bytes live.
#[derive(Debug)]
enum Backing {
    /// The whole file in a caller-provided buffer ([`Store::from_bytes`]).
    Mem(Vec<u8>),
    /// Read-only memory map: chunk accesses borrow the mapped pages
    /// directly. Safe against concurrent re-ingest because the writer
    /// replaces the path by rename — the mapped inode is never truncated
    /// or rewritten.
    Map(Mmap),
    /// Positional-read fallback ([`Store::open_unmapped`], or platforms
    /// without the mmap shim). Reads share no cursor, so parallel chunk
    /// scans are race-free. The handle is whatever [`Vfs`] opened the
    /// store, so fault injection reaches every read on this path.
    File(Box<dyn VfsFile>, u64),
}

/// `read_exact_at` under the default [`RetryPolicy`], the one the serve
/// crate's transport path also uses, so both sides of the system classify
/// transient vs permanent I/O errors identically. Telemetry counts the
/// retries (`store.io.retries`) and exhausted budgets
/// (`store.io.giveups`).
fn read_exact_at_retry(file: &dyn VfsFile, buf: &mut [u8], offset: u64) -> io::Result<()> {
    let out = RetryPolicy::default().run(|| file.read_exact_at(buf, offset));
    if out.retries > 0 {
        tel::count!("store.io.retries", u64::from(out.retries));
    }
    if out.gave_up {
        tel::count!("store.io.giveups", 1);
    }
    out.result
}

/// Checked sub-slice of `bytes`: `offset as usize + len` can wrap on a
/// hostile offset (a debug-profile overflow panic was a real bug here),
/// so the range is built with checked arithmetic and any failure is
/// reported as corruption.
fn slice_range(bytes: &[u8], offset: u64, len: usize) -> Result<&[u8], StoreError> {
    usize::try_from(offset)
        .ok()
        .and_then(|start| Some(start..start.checked_add(len)?))
        .and_then(|range| bytes.get(range))
        .ok_or_else(|| {
            StoreError::Corrupt(format!(
                "read [{offset}, {offset}+{len}) beyond {} bytes",
                bytes.len()
            ))
        })
}

impl Backing {
    fn len(&self) -> u64 {
        match self {
            Backing::Mem(v) => v.len() as u64,
            Backing::Map(m) => m.len() as u64,
            Backing::File(_, len) => *len,
        }
    }

    /// The whole backing as one addressable slice — the zero-copy path.
    /// `None` for the positional-read backing.
    fn as_slice(&self) -> Option<&[u8]> {
        match self {
            Backing::Mem(v) => Some(v),
            Backing::Map(m) => Some(m),
            Backing::File(..) => None,
        }
    }

    /// Reads exactly `len` bytes at `offset` into a fresh buffer — used
    /// for the O(index) open-time reads, where allocation is fine.
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>, StoreError> {
        match self {
            Backing::Mem(_) | Backing::Map(_) => {
                let all = self.as_slice().expect("Mem/Map backings are addressable");
                slice_range(all, offset, len).map(<[u8]>::to_vec)
            }
            Backing::File(f, _) => {
                let mut buf = vec![0u8; len];
                read_exact_at_retry(f.as_ref(), &mut buf, offset).map_err(|e| {
                    StoreError::Io(format!("cannot read [{offset}, {offset}+{len}): {e}"))
                })?;
                Ok(buf)
            }
        }
    }
}

/// Opens `path` through `vfs` as a memory map where the platform gives
/// one, else as positional reads. A map attempt that *errors* (rather
/// than being unsupported) falls back to positional reads too, counts
/// `store.open.mmap_fallback`, and returns `true` with the backing.
fn open_backing(vfs: &dyn Vfs, path: &Path) -> Result<(Backing, bool), StoreError> {
    let file = vfs.open(path).map_err(|e| io_err("open", path, e))?;
    let fell_back = match file.mmap() {
        Ok(Some(map)) => return Ok((Backing::Map(map), false)),
        Ok(None) => false,
        Err(_) => {
            tel::count!("store.open.mmap_fallback", 1);
            true
        }
    };
    Ok((positional(file, path)?, fell_back))
}

/// The positional-read backing over an open file.
fn positional(file: Box<dyn VfsFile>, path: &Path) -> Result<Backing, StoreError> {
    let len = file.len().map_err(|e| io_err("stat", path, e))?;
    Ok(Backing::File(file, len))
}

/// An open store: the decoded footer index plus a handle to the payload
/// bytes. Only the footer is read at open time — O(index), not O(file) —
/// and chunk payloads are fetched, checksum-verified (lazily, once per
/// chunk), and decoded per access, so queries that prune on zone maps
/// never touch the pruned payloads' bytes at all.
#[derive(Debug)]
pub struct Store {
    backing: Backing,
    entries: Vec<IndexEntry>,
    /// Lazy checksum latches, one per chunk: `None` until the chunk's
    /// first byte access computes the FNV sum, then the latched verdict.
    /// A failed verdict is permanent — every later access keeps erroring.
    checks: Vec<OnceLock<bool>>,
    /// True when the open (normal or salvage) asked for a memory map and
    /// the platform refused with an error (not merely "unsupported") — the store then
    /// runs on positional reads. Surfaced by `store stat`.
    mmap_fell_back: bool,
}

/// What [`Store::open_salvage`] managed to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalvageReport {
    /// True when the footer and trailer validated and no scan was needed
    /// (the salvage open degenerated to a normal open).
    pub footer_intact: bool,
    /// Chunks recovered into the rebuilt index.
    pub recovered: usize,
    /// Damaged candidates: aligned chunk preambles that failed
    /// validation (bad length, checksum mismatch, out-of-order label),
    /// plus salvage hits whose payloads would not decode.
    pub damaged: u64,
    /// Bytes the salvage scan walked (0 when the footer was intact).
    pub scanned_bytes: u64,
}

impl Store {
    /// Opens and validates a store file. Reads the header, trailer, and
    /// footer only — O(index), not O(file). The payload region is
    /// memory-mapped where the platform supports it, so subsequent chunk
    /// accesses are zero-copy; otherwise (and whenever the kernel refuses
    /// the mapping) the store falls back to positional reads, exactly as
    /// [`Store::open_unmapped`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(&OsVfs, path)
    }

    /// [`Store::open`] through an explicit [`Vfs`] (fault injection,
    /// alternative backends). When the map attempt *errors* — as opposed
    /// to the platform not supporting maps — the open falls back to
    /// positional reads instead of failing, counts
    /// `store.open.mmap_fallback`, and flags the handle
    /// ([`Store::mmap_fell_back`]).
    pub fn open_with(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let _span = tel::span!("store.open");
        let (backing, fell_back) = open_backing(vfs, path.as_ref())?;
        Self::load(backing, fell_back)
    }

    /// Opens a store with positional reads instead of a memory map: each
    /// chunk access reads its payload into a per-thread scratch buffer.
    /// This is [`Store::open`]'s fallback path, exposed for callers that
    /// must not map the file (and for testing both paths).
    pub fn open_unmapped(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let _span = tel::span!("store.open");
        let path = path.as_ref();
        let file = OsVfs.open(path).map_err(|e| io_err("open", path, e))?;
        Self::load(positional(file, path)?, false)
    }

    /// Opens a store from its raw bytes (validates header, trailer,
    /// checksum, and index geometry — never panics on corrupt input).
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, StoreError> {
        let _span = tel::span!("store.open");
        Self::load(Backing::Mem(data), false)
    }

    /// Reads and validates header magic, trailer, and footer — the
    /// normal open path, borrowed out of `load` so the salvage path can
    /// try it first and keep the backing when it fails.
    fn read_index(backing: &Backing) -> Result<Vec<IndexEntry>, StoreError> {
        let corrupt = |msg: String| StoreError::Corrupt(msg);
        let file_len = backing.len();
        if file_len < MIN_FILE_LEN as u64 {
            return Err(corrupt(format!(
                "file holds {file_len} bytes; a store needs at least {MIN_FILE_LEN}"
            )));
        }
        let magic = backing.read_at(0, HEADER_MAGIC.len())?;
        if magic != HEADER_MAGIC {
            return Err(pre_v3_refusal(&magic)
                .unwrap_or_else(|| corrupt("missing BLZSTOR3 header magic".into())));
        }
        let trailer = backing.read_at(file_len - TRAILER_LEN as u64, TRAILER_LEN)?;
        if &trailer[16..] != TRAILER_MAGIC {
            return Err(corrupt(
                "missing BLZSIDX1 trailer magic (truncated or unfinished store?)".into(),
            ));
        }
        let footer_len = u64::from_le_bytes(trailer[..8].try_into().expect("8 B"));
        let stored_sum = u64::from_le_bytes(trailer[8..16].try_into().expect("8 B"));
        let Some(footer_start) = file_len
            .checked_sub(TRAILER_LEN as u64)
            .and_then(|v| v.checked_sub(footer_len))
            .filter(|&v| v >= HEADER_MAGIC.len() as u64)
        else {
            return Err(corrupt(format!(
                "footer length {footer_len} does not fit in a {file_len}-byte file"
            )));
        };
        let footer = backing.read_at(footer_start, footer_len as usize)?;
        let actual_sum = fnv1a64(&footer);
        if actual_sum != stored_sum {
            return Err(corrupt(format!(
                "footer checksum mismatch: stored {stored_sum:#018x}, computed {actual_sum:#018x}"
            )));
        }
        decode_footer(&footer, footer_start)
    }

    fn load(backing: Backing, mmap_fell_back: bool) -> Result<Self, StoreError> {
        let entries = Self::read_index(&backing)?;
        let checks = entries.iter().map(|_| OnceLock::new()).collect();
        if tel::counters_enabled() {
            match &backing {
                Backing::Mem(_) => tel::counter!("store.open.memory").add(1),
                Backing::Map(_) => tel::counter!("store.open.mmap").add(1),
                Backing::File(..) => tel::counter!("store.open.file").add(1),
            }
        }
        Ok(Self {
            backing,
            entries,
            checks,
            mmap_fell_back,
        })
    }

    /// True when the open's memory-map attempt ([`Store::open`] or
    /// [`Store::open_salvage`]) failed with an error and the store
    /// quietly fell back to positional reads.
    pub fn mmap_fell_back(&self) -> bool {
        self.mmap_fell_back
    }

    /// Opens a store, rebuilding the index from chunk preambles when the
    /// footer or trailer is damaged. An intact file opens exactly as
    /// [`Store::open`] (with `footer_intact` set in the report); a
    /// damaged v3 file is scanned for aligned, checksum-valid,
    /// self-describing chunk preambles (see the salvage invariants in
    /// [`crate::format`]) and every verified chunk is recovered, in label
    /// order, with its zone map recomputed from the payload. Only
    /// [`StoreError::Corrupt`] triggers the scan — I/O errors propagate —
    /// and a file that yields no salvageable chunk stays `Corrupt`. A
    /// pre-v3 file is refused as by [`Store::open`]: it has no preambles.
    pub fn open_salvage(path: impl AsRef<Path>) -> Result<(Self, SalvageReport), StoreError> {
        Self::open_salvage_with(&OsVfs, path)
    }

    /// [`Store::open_salvage`] through an explicit [`Vfs`]. A map
    /// attempt that errors falls back to positional reads exactly as in
    /// [`Store::open_with`].
    pub fn open_salvage_with(
        vfs: &dyn Vfs,
        path: impl AsRef<Path>,
    ) -> Result<(Self, SalvageReport), StoreError> {
        let _span = tel::span!("store.salvage");
        let (backing, fell_back) = open_backing(vfs, path.as_ref())?;
        Self::salvage(backing, fell_back)
    }

    /// [`Store::open_salvage`] over raw bytes.
    pub fn salvage_from_bytes(data: Vec<u8>) -> Result<(Self, SalvageReport), StoreError> {
        let _span = tel::span!("store.salvage");
        Self::salvage(Backing::Mem(data), false)
    }

    fn salvage(
        backing: Backing,
        mmap_fell_back: bool,
    ) -> Result<(Self, SalvageReport), StoreError> {
        match Self::read_index(&backing) {
            Ok(_) => {
                let store = Self::load(backing, mmap_fell_back)?;
                let report = SalvageReport {
                    footer_intact: true,
                    recovered: store.len(),
                    damaged: 0,
                    scanned_bytes: 0,
                };
                return Ok((store, report));
            }
            // Corruption is what salvage exists for; anything else (I/O
            // failure, bad argument) is not evidence of damage.
            Err(StoreError::Corrupt(_)) => {}
            Err(e) => return Err(e),
        }
        // A pre-v3 file has no preambles: scanning it can only find
        // garbage, so say what is actually wrong.
        let file_len = backing.len();
        if let Some(refusal) = backing
            .read_at(0, HEADER_MAGIC.len())
            .ok()
            .and_then(|magic| pre_v3_refusal(&magic))
        {
            return Err(refusal);
        }
        // Scan the whole file. The addressable backings scan in place;
        // the positional backing reads the file once, with retries.
        let len = usize::try_from(file_len).map_err(|_| {
            StoreError::Corrupt(format!("file length {file_len} exceeds the address space"))
        })?;
        let owned;
        let bytes: &[u8] = match backing.as_slice() {
            Some(all) => all,
            None => {
                owned = backing.read_at(0, len)?;
                &owned
            }
        };
        let (hits, mut damaged) = scan_salvage(bytes);
        let mut entries = Vec::with_capacity(hits.len());
        let mut slot = None;
        for hit in &hits {
            let len = usize::try_from(hit.len).map_err(|_| {
                StoreError::Corrupt(format!(
                    "salvaged chunk length {} exceeds the address space",
                    hit.len
                ))
            })?;
            let payload = slice_range(bytes, hit.offset, len)?;
            // The checksum already passed; decoding validates the stream
            // itself and recomputes the zone map the footer would have
            // held (bit-identical by the determinism contract).
            let entry = from_bytes_dyn_into(payload, &mut slot)
                .map_err(StoreError::from)
                .and_then(|()| {
                    let c = slot.as_ref().expect("decode fills the slot");
                    let zone = ZoneMap::of_dyn(c)?;
                    let coder = blazr::serialize::peek_coder(payload).ok_or_else(|| {
                        StoreError::Corrupt("salvaged chunk has no readable coder tag".into())
                    })?;
                    Ok(IndexEntry {
                        label: hit.label,
                        offset: hit.offset,
                        len: hit.len,
                        payload_sum: hit.payload_sum,
                        coder,
                        zone,
                    })
                });
            match entry {
                Ok(e) => entries.push(e),
                // Checksum-valid but undecodable: quarantine, keep going.
                Err(_) => damaged += 1,
            }
        }
        if entries.is_empty() {
            return Err(StoreError::Corrupt(format!(
                "no salvageable chunks in {file_len} bytes ({damaged} damaged candidates)"
            )));
        }
        tel::count!("store.salvage.recovered", entries.len() as u64);
        tel::count!("store.salvage.damaged", damaged);
        let report = SalvageReport {
            footer_intact: false,
            recovered: entries.len(),
            damaged,
            scanned_bytes: file_len,
        };
        // Every salvaged payload was just hashed against its preamble:
        // pre-latch the per-chunk checksum verdicts.
        let checks: Vec<OnceLock<bool>> = entries
            .iter()
            .map(|_| {
                let lock = OnceLock::new();
                lock.set(true).expect("freshly created latch");
                lock
            })
            .collect();
        let store = Self {
            backing,
            entries,
            checks,
            mmap_fell_back,
        };
        Ok((store, report))
    }

    /// How this store's bytes are accessed: `"mmap"` (zero-copy mapped
    /// file), `"memory"` ([`Store::from_bytes`]), or `"file"` (positional
    /// reads).
    pub fn backing_kind(&self) -> &'static str {
        match self.backing {
            Backing::Mem(_) => "memory",
            Backing::Map(_) => "mmap",
            Backing::File(..) => "file",
        }
    }

    /// The index entry for chunk `i`, or [`StoreError::InvalidArgument`]
    /// when `i` is out of range.
    fn try_entry(&self, i: usize) -> Result<&IndexEntry, StoreError> {
        self.entries.get(i).ok_or_else(|| {
            StoreError::InvalidArgument(format!(
                "chunk index {i} out of range ({} chunks)",
                self.entries.len()
            ))
        })
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True for a store with no chunks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The index entries, in label order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// The chunk labels, in order.
    pub fn labels(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.label).collect()
    }

    /// Total bytes of chunk payloads (excludes header, footer, trailer,
    /// and any alignment padding between payloads).
    pub fn payload_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.len).sum()
    }

    /// Whole-file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.backing.len()
    }

    /// Lazily verifies chunk `i`'s payload checksum: the FNV sum is
    /// computed on the chunk's first byte access and the verdict latched,
    /// so steady-state reads skip the hash entirely. On the zero-copy
    /// backings every access sees the same bytes, so one verification
    /// covers all of them; the positional-read backing re-reads bytes per
    /// access but still hashes only the first (the file is immutable
    /// under the atomic-rename ingest contract).
    fn verify_payload(&self, i: usize, bytes: &[u8]) -> Result<(), StoreError> {
        let e = &self.entries[i];
        let ok = *self.checks[i].get_or_init(|| {
            // Counts hashes actually computed, not latched re-checks —
            // the metric that shows the lazy latch working.
            tel::count!("store.checksum.verified", 1);
            fnv1a64(bytes) == e.payload_sum
        });
        self.checksum_verdict(i, ok)
    }

    /// Chunk `i`'s latched checksum verdict as a result: the one place a
    /// failed verdict becomes an error, so every path reports it alike.
    fn checksum_verdict(&self, i: usize, ok: bool) -> Result<(), StoreError> {
        if ok {
            return Ok(());
        }
        let e = &self.entries[i];
        tel::count!("store.checksum.failed", 1);
        Err(StoreError::Corrupt(format!(
            "chunk {i} (label {}): payload checksum mismatch (stored {:#018x})",
            e.label, e.payload_sum
        )))
    }

    /// Checksum-verifies chunk `i`'s payload without decoding it — what a
    /// query answered from the footer zone maps checks in place of a
    /// decode. A latched verdict costs one `OnceLock` load and reads no
    /// bytes, on every backing; a first touch reads and hashes the
    /// payload once, through [`Store::with_chunk_bytes`]. A mismatch is
    /// the same [`StoreError::Corrupt`] a decode of the chunk meets.
    pub fn verify_chunk(&self, i: usize) -> Result<(), StoreError> {
        match self.checks.get(i).and_then(OnceLock::get) {
            Some(&ok) => self.checksum_verdict(i, ok),
            None => self.with_chunk_bytes(i, |_| ()),
        }
    }

    /// Runs `f` over chunk `i`'s raw payload bytes, checksum-verified
    /// (lazily — see the struct docs). On the mmap and in-memory backings
    /// the slice borrows the backing directly: no bytes are copied. On
    /// the positional-read backing the payload lands in a per-thread
    /// scratch buffer that is reused across accesses.
    pub fn with_chunk_bytes<R>(
        &self,
        i: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, StoreError> {
        let e = self.try_entry(i)?;
        let len = usize::try_from(e.len).map_err(|_| {
            StoreError::Corrupt(format!(
                "chunk {i}: length {} exceeds the address space",
                e.len
            ))
        })?;
        tel::count!("store.chunk_reads", 1);
        tel::count!("store.bytes_read", len as u64);
        if let Some(all) = self.backing.as_slice() {
            let bytes = slice_range(all, e.offset, len)?;
            self.verify_payload(i, bytes)?;
            return Ok(f(bytes));
        }
        let Backing::File(file, _) = &self.backing else {
            unreachable!("non-addressable backings are positional-read files")
        };
        let mut buf = READ_SCRATCH.take();
        buf.clear();
        buf.resize(len, 0);
        let read = read_exact_at_retry(file.as_ref(), &mut buf, e.offset).map_err(|err| {
            StoreError::Io(format!(
                "cannot read [{}, {}+{len}): {err}",
                e.offset, e.offset
            ))
        });
        let out = read
            .and_then(|()| self.verify_payload(i, &buf))
            .map(|()| f(&buf));
        READ_SCRATCH.set(buf);
        out
    }

    /// Raw serialized bytes of chunk `i` as an owned buffer, verified
    /// against the footer's payload checksum. [`Store::with_chunk_bytes`]
    /// serves the same bytes without the copy.
    pub fn chunk_bytes(&self, i: usize) -> Result<Vec<u8>, StoreError> {
        self.with_chunk_bytes(i, <[u8]>::to_vec)
    }

    /// Decodes chunk `i` into `slot`, reusing the previous occupant's
    /// buffers when the stream geometry matches (which it does for every
    /// chunk of a store written through [`StoreWriter`]) — the
    /// steady-state scan path decodes with no per-chunk heap allocation.
    /// On success the slot holds the decoded chunk; only inspect it after
    /// `Ok`.
    pub fn chunk_into(&self, i: usize, slot: &mut Option<DynCompressed>) -> Result<(), StoreError> {
        self.with_chunk_bytes(i, |bytes| from_bytes_dyn_into(bytes, slot))??;
        Ok(())
    }

    /// Decodes chunk `i` with runtime types read from its payload.
    pub fn chunk(&self, i: usize) -> Result<DynCompressed, StoreError> {
        let mut slot = None;
        self.chunk_into(i, &mut slot)?;
        Ok(slot.expect("chunk_into fills the slot on success"))
    }

    /// Decodes chunk `i` at a statically-known type pair.
    pub fn chunk_typed<P: StorableReal, I: BinIndex>(
        &self,
        i: usize,
    ) -> Result<CompressedArray<P, I>, StoreError> {
        Ok(self.with_chunk_bytes(i, CompressedArray::<P, I>::from_bytes)??)
    }

    /// Header summary of chunk `i` — types, transform, coder, geometry,
    /// and the fixed-width baseline size — parsed from the
    /// checksum-verified payload. The zero-copy backings peek the mapped
    /// bytes in place; the positional-read backing reads the payload into
    /// the per-thread scratch. Either way the bytes are verified before
    /// parsing (lazily, on the chunk's first touch), so a bit-flipped
    /// header yields [`StoreError::Corrupt`] — never a silently wrong
    /// `StreamInfo`.
    pub fn chunk_info(&self, i: usize) -> Result<StreamInfo, StoreError> {
        let info = self.with_chunk_bytes(i, blazr::serialize::peek_info)?;
        info.ok_or_else(|| {
            let e = &self.entries[i];
            StoreError::Corrupt(format!("chunk {i} (label {}): unreadable header", e.label))
        })
    }

    /// The runtime types of the store's chunks, from the first chunk's
    /// §IV-C type tags (`None` for an empty store or an unreadable tag
    /// byte; this is a cheap one-byte diagnostic peek, not a checksummed
    /// read).
    pub fn chunk_types(&self) -> Option<(ScalarType, IndexType)> {
        let first = self.entries.first()?;
        let tag = self.backing.read_at(first.offset, 1).ok()?;
        blazr::serialize::peek_types(&tag)
    }

    /// Indices of the chunks whose labels fall in `[from, to]`
    /// (inclusive). Labels are sorted, so this is two binary searches.
    pub fn select(&self, from: u64, to: u64) -> Range<usize> {
        let lo = self.entries.partition_point(|e| e.label < from);
        let hi = self.entries.partition_point(|e| e.label <= to);
        lo..hi.max(lo)
    }

    /// Checks that `self` and `other` hold the same labels in `range`
    /// and returns the paired indices.
    fn aligned(
        &self,
        other: &Store,
        from: u64,
        to: u64,
    ) -> Result<Vec<(usize, usize)>, StoreError> {
        let a = self.select(from, to);
        let b = other.select(from, to);
        if a.len() != b.len()
            || a.clone()
                .zip(b.clone())
                .any(|(i, j)| self.entries[i].label != other.entries[j].label)
        {
            return Err(StoreError::InvalidArgument(format!(
                "stores hold different labels in [{from}, {to}]"
            )));
        }
        Ok(a.zip(b).collect())
    }

    /// L2 distance between same-label chunks of two stores (the §I "two
    /// movies" comparison, on disk): one `(label, ‖A−B‖₂, error bound)`
    /// per label in `[from, to]`. The bound is the triangle-inequality
    /// widening by both chunks' §IV-D error models. Chunk pairs are
    /// processed in parallel; results are in label order and
    /// bit-deterministic at any thread count.
    pub fn deviation_from(
        &self,
        other: &Store,
        from: u64,
        to: u64,
    ) -> Result<Vec<(u64, f64, f64)>, StoreError> {
        let pairs = self.aligned(other, from, to)?;
        let rows: Vec<Result<(u64, f64, f64), StoreError>> = pairs
            .par_iter()
            .map(|&(i, j)| {
                let a = self.chunk(i)?;
                let b = other.chunk(j)?;
                let d = a.sub(&b)?.l2_norm();
                let bound = self.entries[i].zone.bounds.l2 + other.entries[j].zone.bounds.l2;
                Ok((self.entries[i].label, d, bound))
            })
            .collect();
        rows.into_iter().collect()
    }

    /// Dot product of the concatenation of same-label chunks in
    /// `[from, to]`: `Σ_chunks ⟨A_k, B_k⟩`, combined in label order.
    /// Returns `(value, error bound)`.
    pub fn dot(&self, other: &Store, from: u64, to: u64) -> Result<(f64, f64), StoreError> {
        let pairs = self.aligned(other, from, to)?;
        let parts: Vec<Result<(f64, f64), StoreError>> = pairs
            .par_iter()
            .map(|&(i, j)| {
                let a = self.chunk(i)?;
                let b = other.chunk(j)?;
                let d = a.dot(&b)?;
                // |⟨â,b̂⟩ − ⟨a,b⟩| ≤ ‖â‖δ_b + ‖b̂‖δ_a + δ_a·δ_b.
                let (ea, eb) = (
                    self.entries[i].zone.bounds.l2,
                    other.entries[j].zone.bounds.l2,
                );
                let (na, nb) = (
                    self.entries[i].zone.stats.l2_norm(),
                    other.entries[j].zone.stats.l2_norm(),
                );
                Ok((d, na * eb + nb * ea + ea * eb))
            })
            .collect();
        let mut value = 0.0;
        let mut bound = 0.0;
        for p in parts {
            let (v, b) = p?;
            value += v;
            bound += b;
        }
        Ok((value, bound))
    }

    /// Decodes every chunk once, in parallel (adjacent-pair analyses
    /// would otherwise decode each interior chunk twice).
    fn decoded_chunks(&self) -> Result<Vec<DynCompressed>, StoreError> {
        let rows: Vec<Result<DynCompressed, StoreError>> = (0..self.len())
            .into_par_iter()
            .map(|i| self.chunk(i))
            .collect();
        rows.into_iter().collect()
    }

    /// L2 distance between adjacent chunks — the Fig. 6(a) scission
    /// analysis, against on-disk data.
    pub fn adjacent_l2(&self) -> Result<Vec<(u64, u64, f64)>, StoreError> {
        let chunks = self.decoded_chunks()?;
        let rows: Vec<Result<(u64, u64, f64), StoreError>> = (0..self.len().saturating_sub(1))
            .into_par_iter()
            .map(|w| {
                let d = chunks[w].sub(&chunks[w + 1])?.l2_norm();
                Ok((self.entries[w].label, self.entries[w + 1].label, d))
            })
            .collect();
        rows.into_iter().collect()
    }

    /// Approximate Wasserstein distance between adjacent chunks — the
    /// Fig. 6(b) analysis, against on-disk data.
    pub fn adjacent_wasserstein(&self, p: f64) -> Result<Vec<(u64, u64, f64)>, StoreError> {
        let chunks = self.decoded_chunks()?;
        let rows: Vec<Result<(u64, u64, f64), StoreError>> = (0..self.len().saturating_sub(1))
            .into_par_iter()
            .map(|w| {
                let d = chunks[w].wasserstein(&chunks[w + 1], p)?;
                Ok((self.entries[w].label, self.entries[w + 1].label, d))
            })
            .collect();
        rows.into_iter().collect()
    }

    /// The adjacent pair with the largest L2 jump (event detection).
    /// Distances compare under `f64::total_cmp`, so non-finite data (a
    /// chunk of infinities subtracts to NaN distances) surfaces the NaN
    /// pair in the result instead of panicking mid-scan.
    pub fn largest_jump(&self) -> Result<Option<(u64, u64, f64)>, StoreError> {
        Ok(self
            .adjacent_l2()?
            .into_iter()
            .max_by(|a, b| a.2.total_cmp(&b.2)))
    }

    /// First label at which this store deviates from `other` by more than
    /// `threshold` in relative L2 — [`CompressedSeries::first_divergence`]
    /// against on-disk data. Scans label order sequentially and stops at
    /// the first divergence, so the cost is bounded by where the runs
    /// split, not by the store size.
    pub fn first_divergence(
        &self,
        other: &Store,
        threshold: f64,
    ) -> Result<Option<u64>, StoreError> {
        if self.labels() != other.labels() {
            return Err(StoreError::InvalidArgument(
                "stores hold different labels".into(),
            ));
        }
        for i in 0..self.len() {
            let diff = self.chunk(i)?.sub(&other.chunk(i)?)?.l2_norm();
            let scale = self.entries[i].zone.stats.l2_norm().max(f64::MIN_POSITIVE);
            if diff / scale > threshold {
                return Ok(Some(self.entries[i].label));
            }
        }
        Ok(None)
    }

    /// Loads the whole store as an in-memory [`CompressedSeries`] (the
    /// store is the durable form of a series; this is the bridge back).
    /// Fails if chunks differ in type, settings, or shape.
    pub fn to_series<P: StorableReal, I: BinIndex>(
        &self,
    ) -> Result<CompressedSeries<P, I>, StoreError> {
        let mut frames = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            frames.push(self.chunk_typed::<P, I>(i)?);
        }
        let settings = match frames.first() {
            Some(f) => f.settings().clone(),
            None => {
                return Err(StoreError::InvalidArgument(
                    "cannot build a series from an empty store (settings unknown)".into(),
                ))
            }
        };
        Ok(CompressedSeries::from_parts(
            settings,
            self.labels(),
            frames,
        )?)
    }
}

/// Persists a [`CompressedSeries`] as a store file (each frame becomes a
/// chunk; zone maps are computed in compressed space — no frame is
/// decompressed).
pub fn write_series<P: StorableReal, I: BinIndex>(
    path: impl AsRef<Path>,
    series: &CompressedSeries<P, I>,
) -> Result<(), StoreError> {
    let mut w = StoreWriter::create(path, series.settings().clone(), P::TYPE, I::TYPE)?;
    for (i, &label) in series.labels().iter().enumerate() {
        w.append_compressed(label, series.frame(i))?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_range_rejects_hostile_offsets_without_overflow() {
        // Regression: `offset as usize + len` wrapped (a panic under
        // debug-profile overflow checks) before the checked rewrite.
        let bytes = [0u8; 16];
        assert!(matches!(
            slice_range(&bytes, u64::MAX, 16),
            Err(StoreError::Corrupt(_))
        ));
        assert!(slice_range(&bytes, u64::MAX - 7, 16).is_err());
        assert!(slice_range(&bytes, 8, usize::MAX).is_err());
        assert!(slice_range(&bytes, 17, 0).is_err());
        assert_eq!(slice_range(&bytes, 8, 8).unwrap().len(), 8);
        assert_eq!(slice_range(&bytes, 16, 0).unwrap().len(), 0);
    }
}
