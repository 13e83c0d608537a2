//! Read-only file regions: memory-mapped when the platform allows it,
//! read into an owned buffer otherwise.
//!
//! This is the only module in the crate allowed to use `unsafe` — a
//! minimal `mmap(2)`/`munmap(2)` FFI binding (the toolchain here has no
//! crates.io access, so no `memmap2`). Everything above it sees a safe
//! [`Region`] that hands out the file's bytes as one slice; whether those
//! bytes come from the page cache via a mapping or from a buffer read at
//! open is an implementation detail. Set `SSR_STORE_NO_MMAP=1` to force
//! the buffered fallback.

use std::fs::File;
use std::io;
use std::path::Path;

/// Environment switch forcing the buffered fallback.
const NO_MMAP_ENV: &str = "SSR_STORE_NO_MMAP";

/// A read-only view of a file's bytes.
pub(crate) enum Region {
    /// The whole file mapped into the address space; residency is the
    /// kernel's problem.
    Mapped(Mapped),
    /// The whole file read into memory once, at open.
    Buffered(Vec<u8>),
}

impl Region {
    /// Opens `path`, preferring a memory map. Zero-length files and
    /// mapping failures quietly use the buffered fallback; so does
    /// `SSR_STORE_NO_MMAP=1`.
    pub(crate) fn open(path: &Path) -> io::Result<Region> {
        if std::env::var(NO_MMAP_ENV).is_ok_and(|v| v == "1") {
            return Self::read(path);
        }
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            if let Some(mapped) = Mapped::map(&file, len)? {
                return Ok(Region::Mapped(mapped));
            }
        }
        Self::read(path)
    }

    /// Reads the whole of `path` into an owned buffer — the fallback
    /// [`Region::open`] takes, reachable directly so tests need not set
    /// the process-wide environment switch.
    pub(crate) fn read(path: &Path) -> io::Result<Region> {
        Ok(Region::Buffered(std::fs::read(path)?))
    }

    /// The file's bytes.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Region::Mapped(m) => m.as_slice(),
            Region::Buffered(b) => b,
        }
    }

    /// Whether reads go through a memory mapping.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self, Region::Mapped(_))
    }

    /// Heap bytes this region holds: the buffer of the fallback, nothing
    /// for a mapping (the kernel pages it in and out on demand).
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            Region::Mapped(_) => 0,
            Region::Buffered(b) => b.len(),
        }
    }
}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub(super) const PROT_READ: c_int = 1;
    pub(super) const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// An owned read-only mapping of a whole file.
pub(crate) struct Mapped {
    #[cfg(unix)]
    ptr: *const u8,
    len: usize,
}

// The mapping is immutable for its whole lifetime (PROT_READ, private),
// so shared references from any thread are fine.
#[allow(unsafe_code)]
unsafe impl Send for Mapped {}
#[allow(unsafe_code)]
unsafe impl Sync for Mapped {}

impl Mapped {
    /// Maps `file` read-only. Returns `Ok(None)` when the platform call
    /// fails (callers fall back to reads rather than erroring).
    #[cfg(unix)]
    #[allow(unsafe_code)]
    fn map(file: &File, len: u64) -> io::Result<Option<Mapped>> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file too large to map"))?;
        // SAFETY: fd is a valid open descriptor for the whole call; a
        // PROT_READ + MAP_PRIVATE mapping of `len` bytes at a
        // kernel-chosen address aliases nothing we hand out mutably. The
        // pointer is only dereferenced within `len` while `self` is
        // alive, and unmapped exactly once in `Drop`.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == usize::MAX as *mut _ {
            return Ok(None);
        }
        Ok(Some(Mapped { ptr: ptr as *const u8, len }))
    }

    #[cfg(not(unix))]
    fn map(_file: &File, _len: u64) -> io::Result<Option<Mapped>> {
        Ok(None)
    }

    #[cfg(unix)]
    #[allow(unsafe_code)]
    fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr..ptr+len is a live PROT_READ mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    #[cfg(not(unix))]
    fn as_slice(&self) -> &[u8] {
        unreachable!("no mapping exists on this platform")
    }
}

#[cfg(unix)]
impl Drop for Mapped {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // SAFETY: exactly the region mmap returned, unmapped once.
        unsafe {
            sys::munmap(self.ptr as *mut _, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("ssr_store_mmap_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}_{name}", std::process::id()))
    }

    #[test]
    fn mapped_and_fallback_agree() {
        let path = tmp("agree.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let region = Region::open(&path).unwrap();
        let fallback = Region::read(&path).unwrap();
        assert!(!fallback.is_mapped());
        assert_eq!(region.bytes(), payload);
        assert_eq!(fallback.bytes(), payload);
        assert_eq!(fallback.resident_bytes(), payload.len());
    }

    #[test]
    fn empty_file_uses_fallback() {
        let path = tmp("empty.bin");
        std::fs::write(&path, []).unwrap();
        let region = Region::open(&path).unwrap();
        assert!(!region.is_mapped());
        assert!(region.bytes().is_empty());
    }
}
