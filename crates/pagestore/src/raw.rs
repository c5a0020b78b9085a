//! Raw byte-level file abstraction under [`FileStorage`](crate::FileStorage).
//!
//! The durable backend does all its physical I/O — positioned reads and
//! writes, truncation, durability barriers — through this trait instead of
//! `std::fs::File` directly, so the *same* storage code runs over:
//!
//! * [`OsFile`] — a real file on disk (`pread`/`pwrite` on unix, a
//!   `seek` + `read`/`write` pair elsewhere);
//! * [`MemFile`] — an in-memory byte image, used to reopen frozen crash
//!   images harvested by the fault harness without touching the
//!   filesystem;
//! * [`FaultFile`](crate::fault::FaultFile) — the fault-injection wrapper
//!   that counts every mutating operation and can simulate a crash at any
//!   of them (see [`fault`](crate::fault)).
//!
//! Each `write_at` / `set_len` / `sync_all` call is one *physical I/O
//! operation* — the granularity at which the crash-recovery harness
//! injects faults, and therefore the granularity at which
//! [`FileStorage`](crate::FileStorage)'s commit protocol must be
//! crash-atomic.

use std::fs::File;
use std::io;
#[cfg(not(unix))]
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
#[cfg(unix)]
use std::os::unix::fs::FileExt;
use std::path::Path;

/// A positioned-I/O byte file. Implementations need no internal
/// synchronisation (`FileStorage` owns its file exclusively and all calls
/// arrive serialised under the buffer pool's policy lock) — only `Send`.
pub trait RawFile: Send {
    /// Read exactly `out.len()` bytes at `offset`; errors (like
    /// `read_exact`) if the file ends first.
    fn read_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()>;

    /// Write all of `data` at `offset`, extending the file if the range
    /// lies past its current end.
    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Truncate or zero-extend the file to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// Current file length in bytes.
    fn byte_len(&mut self) -> io::Result<u64>;

    /// Durability barrier: all preceding writes reach the medium before
    /// any following write. A no-op for in-memory implementations.
    fn sync_all(&mut self) -> io::Result<()>;
}

/// [`RawFile`] over a real `std::fs::File`.
///
/// On unix, positioned reads/writes are single `pread`/`pwrite` syscalls
/// (`FileExt::read_exact_at` / `write_all_at`) with no cursor motion —
/// half the syscalls of the historical `seek` + `read` pair, one saved per
/// page fault. Other platforms keep the two-call fallback.
pub struct OsFile {
    file: File,
}

impl OsFile {
    pub fn new(file: File) -> Self {
        OsFile { file }
    }
}

impl RawFile for OsFile {
    fn read_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        #[cfg(unix)]
        {
            FileExt::read_exact_at(&self.file, out, offset)
        }
        #[cfg(not(unix))]
        {
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.read_exact(out)
        }
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        #[cfg(unix)]
        {
            FileExt::write_all_at(&self.file, data, offset)
        }
        #[cfg(not(unix))]
        {
            self.file.seek(SeekFrom::Start(offset))?;
            self.file.write_all(data)
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    fn byte_len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// [`RawFile`] over an in-memory byte vector.
///
/// The crash-recovery harness opens frozen disk images through this:
/// `FileStorage::open_image(bytes)` behaves exactly like reopening a real
/// file holding those bytes, including every checksum verification, and
/// the reopened storage stays writable (recovery-then-resync tests).
#[derive(Default)]
pub struct MemFile {
    bytes: Vec<u8>,
}

impl MemFile {
    pub fn new() -> Self {
        MemFile::default()
    }

    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemFile { bytes }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl RawFile for MemFile {
    fn read_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        read_image_at(&self.bytes, offset, out)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        write_image_at(&mut self.bytes, offset, data);
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.bytes
            .resize(usize::try_from(len).expect("length fits memory"), 0);
        Ok(())
    }

    fn byte_len(&mut self) -> io::Result<u64> {
        Ok(self.bytes.len() as u64)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Make the entries of directory `dir` durable: fsync the directory
/// itself. POSIX makes a newly created file's *name* durable only once its
/// parent directory is synced, however often the file's contents were.
/// Fails if `dir` does not exist. Off unix, where a directory cannot be
/// opened for syncing, it only checks that `dir` exists.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        std::fs::metadata(dir).map(|_| ())
    }
}

/// `read_exact`-style positioned read from a byte image (shared with the
/// fault wrapper).
pub(crate) fn read_image_at(image: &[u8], offset: u64, out: &mut [u8]) -> io::Result<()> {
    let start = usize::try_from(offset).map_err(|_| io::ErrorKind::UnexpectedEof)?;
    let end = start
        .checked_add(out.len())
        .ok_or(io::ErrorKind::UnexpectedEof)?;
    if end > image.len() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "read of {} byte(s) at offset {offset} past end of {}-byte image",
                out.len(),
                image.len()
            ),
        ));
    }
    out.copy_from_slice(&image[start..end]);
    Ok(())
}

/// Positioned write into a byte image, zero-extending like a real file
/// (shared with the fault wrapper).
pub(crate) fn write_image_at(image: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let start = usize::try_from(offset).expect("offset fits memory");
    let end = start + data.len();
    if end > image.len() {
        image.resize(end, 0);
    }
    image[start..end].copy_from_slice(data);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfile_round_trips_and_extends() {
        let mut f = MemFile::new();
        f.write_at(10, b"abc").unwrap();
        assert_eq!(f.byte_len().unwrap(), 13);
        let mut out = [0u8; 3];
        f.read_at(10, &mut out).unwrap();
        assert_eq!(&out, b"abc");
        // The gap was zero-filled, like a sparse file.
        let mut gap = [9u8; 10];
        f.read_at(0, &mut gap).unwrap();
        assert!(gap.iter().all(|&b| b == 0));
    }

    #[test]
    fn memfile_short_read_is_an_error() {
        let mut f = MemFile::from_bytes(vec![1, 2, 3]);
        let mut out = [0u8; 4];
        let err = f.read_at(0, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(f.read_at(4, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn memfile_set_len_truncates_and_extends() {
        let mut f = MemFile::from_bytes(vec![7; 8]);
        f.set_len(4).unwrap();
        assert_eq!(f.byte_len().unwrap(), 4);
        f.set_len(6).unwrap();
        let mut out = [9u8; 2];
        f.read_at(4, &mut out).unwrap();
        assert_eq!(out, [0, 0], "extension must zero-fill");
        f.sync_all().unwrap();
    }

    #[test]
    fn sync_dir_syncs_a_directory_and_refuses_a_missing_path() {
        let dir = std::env::temp_dir();
        sync_dir(&dir).expect("a directory syncs");
        let missing = dir.join(format!("oif-no-such-dir-{}", std::process::id()));
        assert!(sync_dir(&missing).is_err(), "a missing path must fail");
    }
}
