//! A minimal virtual filesystem seam, plus a deterministic
//! fault-injection wrapper.
//!
//! The store's writer and reader perform a small, fixed set of I/O
//! operations: create/open a file, append bytes, positional reads,
//! fsync, rename, unlink, directory sync, and (optionally) memory-map.
//! [`Vfs`]/[`VfsFile`] name exactly that set, [`OsVfs`] implements it on
//! `std::fs`, and [`FaultyVfs`] wraps any implementation with a
//! [`crate::fault::Script`] over the [`FaultOp`] classes: fail the Nth
//! write with ENOSPC, tear a write after k bytes, short-read, return
//! EINTR-style transient errors that succeed on retry, stall, or refuse
//! a memory map. On top of the script, storage alone can flip bits in
//! the bytes a reader sees; seeded helpers ([`seeded_bit_rot`]) derive
//! reproducible corruption patterns from a [`crate::rng`] seed.
//!
//! Faults are injected **between** the caller and the real filesystem:
//! a torn write really does persist its prefix, so crash-consistency
//! tests observe the same directory states a power cut would leave.

use crate::fault::{Fault, Op, Script};
use crate::mmap::Mmap;
use crate::rng::Xoshiro256pp;
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// One open file behind the [`Vfs`] seam.
///
/// Writers only ever append (`append_all`); readers only ever read at
/// explicit offsets (`read_exact_at`) or map the whole file (`mmap`), so
/// no cursor state is shared and implementations stay trivially
/// race-free under parallel reads.
pub trait VfsFile: Send + Sync + std::fmt::Debug {
    /// Reads exactly `buf.len()` bytes at `offset`.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()>;

    /// Appends all of `buf` at the current end of file.
    fn append_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Flushes file contents and metadata to stable storage.
    fn sync_all(&self) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// True for a zero-length file.
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Memory-maps the whole file read-only. `Ok(None)` means mapping is
    /// unsupported here (callers fall back to positional reads);
    /// `Err` means the platform supports mapping but this file refused.
    fn mmap(&self) -> io::Result<Option<Mmap>> {
        Ok(None)
    }
}

/// The filesystem operations the store needs, as a trait so tests can
/// interpose faults (and future backends can virtualize storage).
pub trait Vfs: Send + Sync {
    /// Creates (truncating) a file for appending.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Opens an existing file read-only.
    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically renames `from` onto `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Unlinks a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Fsyncs a directory, making renames within it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// The real filesystem.

/// [`Vfs`] over `std::fs` — the production implementation.
#[derive(Debug, Default, Clone, Copy)]
pub struct OsVfs;

/// A real file behind the seam.
#[derive(Debug)]
struct OsFile(File);

impl VfsFile for OsFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        self.0.read_exact_at(buf, offset)
    }

    fn append_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }

    fn sync_all(&self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.0.metadata()?.len())
    }

    fn mmap(&self) -> io::Result<Option<Mmap>> {
        Mmap::map(&self.0)
    }
}

impl Vfs for OsVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OsFile(File::create(path)?)))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(OsFile(File::open(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_all()
    }
}

// ---------------------------------------------------------------------------
// Fault injection.

/// The storage operation classes a [`Rule`](crate::fault::Rule) can
/// target. Each class keeps its own index across the whole
/// [`FaultyVfs`], so "the Nth write" is well-defined regardless of which
/// file performs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// `Vfs::create`.
    Create,
    /// `Vfs::open`.
    Open,
    /// `VfsFile::read_exact_at`.
    Read,
    /// `VfsFile::append_all`.
    Write,
    /// `VfsFile::sync_all`.
    Sync,
    /// `Vfs::rename`.
    Rename,
    /// `Vfs::remove_file`.
    Remove,
    /// `Vfs::sync_dir`.
    SyncDir,
    /// `VfsFile::mmap`.
    Mmap,
}

impl Op for FaultOp {
    fn index(self) -> usize {
        self as usize
    }
}

/// A [`Vfs`] wrapper that injects scripted, deterministic storage faults
/// — see the module docs. Clones share the same [`Script`] and bit
/// flips, so a test can keep a handle for arming rules while the code
/// under test owns another.
///
/// A [`Fault::Tear`] on a write persists its prefix, then fails; on a
/// read it fills the prefix, then reports `UnexpectedEof` (a short
/// read). Files opened through a `FaultyVfs` never memory-map (`mmap`
/// reports "unsupported" unless a [`FaultOp::Mmap`] rule makes it fail
/// outright): every read funnels through `read_exact_at`, where read
/// faults and bit flips apply.
#[derive(Clone)]
pub struct FaultyVfs {
    inner: Arc<dyn Vfs>,
    script: Arc<Script<FaultOp>>,
    /// Absolute-file-offset byte corruptions applied to every read that
    /// covers them (models bit rot under a live reader).
    flips: Arc<Mutex<Vec<(u64, u8)>>>,
}

impl std::fmt::Debug for FaultyVfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyVfs").finish_non_exhaustive()
    }
}

impl FaultyVfs {
    /// Wraps `inner` with an (initially empty) fault script.
    pub fn new(inner: impl Vfs + 'static) -> Self {
        Self {
            inner: Arc::new(inner),
            script: Arc::default(),
            flips: Arc::default(),
        }
    }

    /// Wraps the real filesystem.
    pub fn os() -> Self {
        Self::new(OsVfs)
    }

    /// The fault script every operation consults.
    pub fn script(&self) -> &Script<FaultOp> {
        &self.script
    }

    /// XORs `mask` into the byte at absolute file offset `offset` of
    /// every positional read that covers it (bit rot as seen by the
    /// reader; the file itself is untouched).
    pub fn flip_byte(&self, offset: u64, mask: u8) {
        self.flips
            .lock()
            .expect("fault flips poisoned")
            .push((offset, mask));
    }

    fn file(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(FaultyFile {
            inner,
            script: Arc::clone(&self.script),
            flips: Arc::clone(&self.flips),
        })
    }
}

impl Vfs for FaultyVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.script.guard(FaultOp::Create, "create")?;
        Ok(self.file(self.inner.create(path)?))
    }

    fn open(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.script.guard(FaultOp::Open, "open")?;
        Ok(self.file(self.inner.open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.script.guard(FaultOp::Rename, "rename")?;
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.script.guard(FaultOp::Remove, "remove")?;
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.script.guard(FaultOp::SyncDir, "sync_dir")?;
        self.inner.sync_dir(path)
    }
}

/// A file whose operations consult the shared fault script.
#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn VfsFile>,
    script: Arc<Script<FaultOp>>,
    flips: Arc<Mutex<Vec<(u64, u8)>>>,
}

impl VfsFile for FaultyFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        match self.script.tick(FaultOp::Read) {
            None => {}
            Some(Fault::Tear { keep }) => {
                let keep = keep.min(buf.len());
                self.inner.read_exact_at(&mut buf[..keep], offset)?;
                return Err(Fault::Fail(io::ErrorKind::UnexpectedEof).into_error("short read"));
            }
            Some(fault) => return Err(fault.into_error("read")),
        }
        self.inner.read_exact_at(buf, offset)?;
        let flips = self.flips.lock().expect("fault flips poisoned");
        for &(at, mask) in flips.iter() {
            if at >= offset {
                if let Ok(i) = usize::try_from(at - offset) {
                    if i < buf.len() {
                        buf[i] ^= mask;
                    }
                }
            }
        }
        Ok(())
    }

    fn append_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.script.tick(FaultOp::Write) {
            None => self.inner.append_all(buf),
            Some(Fault::Tear { keep }) => {
                self.inner.append_all(&buf[..keep.min(buf.len())])?;
                Err(Fault::Fail(io::ErrorKind::Other).into_error("torn write"))
            }
            Some(fault) => Err(fault.into_error("write")),
        }
    }

    fn sync_all(&self) -> io::Result<()> {
        self.script.guard(FaultOp::Sync, "sync")?;
        self.inner.sync_all()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn mmap(&self) -> io::Result<Option<Mmap>> {
        // No rule: report "unsupported" so every subsequent read goes
        // through the faultable positional path.
        self.script.guard(FaultOp::Mmap, "mmap")?;
        Ok(None)
    }
}

/// Derives a reproducible bit-rot pattern from a seed: `n` byte flips at
/// distinct offsets in `[lo, hi)`, usable with [`FaultyVfs::flip_byte`]
/// or applied directly to a byte buffer. Masks are never zero.
pub fn seeded_bit_rot(seed: u64, lo: u64, hi: u64, n: usize) -> Vec<(u64, u8)> {
    assert!(lo < hi, "empty corruption range [{lo}, {hi})");
    let span = hi - lo;
    let n = n.min(usize::try_from(span).unwrap_or(usize::MAX));
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut out: Vec<(u64, u8)> = Vec::with_capacity(n);
    while out.len() < n {
        let offset = lo + rng.below(span);
        if out.iter().any(|&(o, _)| o == offset) {
            continue;
        }
        let mask = 1u8 << rng.below(8);
        out.push((offset, mask));
    }
    out
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("blazr-util-vfs");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn os_vfs_roundtrips_and_renames() {
        let vfs = OsVfs;
        let a = tmp("a.bin");
        let b = tmp("b.bin");
        let mut f = vfs.create(&a).unwrap();
        f.append_all(b"hello ").unwrap();
        f.append_all(b"world").unwrap();
        f.sync_all().unwrap();
        assert_eq!(f.len().unwrap(), 11);
        drop(f);
        vfs.rename(&a, &b).unwrap();
        vfs.sync_dir(b.parent().unwrap()).unwrap();
        let f = vfs.open(&b).unwrap();
        let mut buf = [0u8; 5];
        f.read_exact_at(&mut buf, 6).unwrap();
        assert_eq!(&buf, b"world");
        vfs.remove_file(&b).unwrap();
        assert!(vfs.open(&b).is_err());
    }

    #[test]
    fn nth_write_fails_and_prefix_persists() {
        let vfs = FaultyVfs::os();
        vfs.script()
            .fail_nth(FaultOp::Write, 2, io::ErrorKind::StorageFull);
        let p = tmp("enospc.bin");
        let mut f = vfs.create(&p).unwrap();
        f.append_all(b"one").unwrap();
        f.append_all(b"two").unwrap();
        let err = f.append_all(b"three").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"onetwo");
        assert_eq!(vfs.script().op_count(FaultOp::Write), 3);
    }

    #[test]
    fn torn_write_persists_exactly_keep_bytes() {
        let vfs = FaultyVfs::os();
        vfs.script().tear(FaultOp::Write, 1, 2);
        let p = tmp("torn.bin");
        let mut f = vfs.create(&p).unwrap();
        f.append_all(b"head").unwrap();
        assert!(f.append_all(b"tail").is_err());
        // Later writes succeed again (the rule fired once).
        f.append_all(b"rest").unwrap();
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"headtarest");
    }

    #[test]
    fn transient_reads_recover_after_retries() {
        let vfs = FaultyVfs::os();
        let p = tmp("transient.bin");
        std::fs::write(&p, b"0123456789").unwrap();
        vfs.script().transient(FaultOp::Read, 0, 2);
        let f = vfs.open(&p).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(
            f.read_exact_at(&mut buf, 3).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        assert_eq!(
            f.read_exact_at(&mut buf, 3).unwrap_err().kind(),
            io::ErrorKind::Interrupted
        );
        f.read_exact_at(&mut buf, 3).unwrap();
        assert_eq!(&buf, b"3456");
    }

    #[test]
    fn short_read_delivers_prefix_then_eof() {
        let vfs = FaultyVfs::os();
        let p = tmp("short.bin");
        std::fs::write(&p, b"abcdef").unwrap();
        vfs.script().tear(FaultOp::Read, 0, 3);
        let f = vfs.open(&p).unwrap();
        let mut buf = [0u8; 6];
        let err = f.read_exact_at(&mut buf, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(&buf[..3], b"abc");
    }

    #[test]
    fn bit_flips_corrupt_reads_not_the_file() {
        let vfs = FaultyVfs::os();
        let p = tmp("flip.bin");
        std::fs::write(&p, vec![0u8; 16]).unwrap();
        vfs.flip_byte(5, 0x80);
        let f = vfs.open(&p).unwrap();
        let mut buf = [0u8; 16];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(buf[5], 0x80);
        // A read that does not cover the offset is untouched.
        let mut tail = [0u8; 8];
        f.read_exact_at(&mut tail, 8).unwrap();
        assert!(tail.iter().all(|&b| b == 0));
        // The on-disk bytes were never modified.
        assert!(std::fs::read(&p).unwrap().iter().all(|&b| b == 0));
    }

    #[test]
    fn mmap_is_unsupported_by_default_and_failable_by_rule() {
        let vfs = FaultyVfs::os();
        let p = tmp("map.bin");
        std::fs::write(&p, b"bytes").unwrap();
        let f = vfs.open(&p).unwrap();
        assert!(f.mmap().unwrap().is_none());
        vfs.script()
            .fail_nth(FaultOp::Mmap, 1, io::ErrorKind::Other);
        assert!(f.mmap().is_err());
    }

    #[test]
    fn seeded_bit_rot_is_reproducible_and_in_range() {
        let a = seeded_bit_rot(7, 100, 200, 16);
        let b = seeded_bit_rot(7, 100, 200, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for &(offset, mask) in &a {
            assert!((100..200).contains(&offset));
            assert_ne!(mask, 0);
        }
        let c = seeded_bit_rot(8, 100, 200, 16);
        assert_ne!(a, c, "different seeds, different patterns");
    }
}
