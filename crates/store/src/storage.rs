//! The [`Storage`] trait and its two honest implementations.
//!
//! The store never touches the filesystem directly: every byte goes
//! through this narrow, flat-namespace interface, so the same store
//! logic runs over real files ([`FsStorage`]), a deterministic
//! in-memory map ([`MemStorage`], with a simulated crash that throws
//! away unsynced bytes), and the seeded fault injector
//! ([`FaultyStorage`](crate::FaultyStorage)) the chaos sweep wraps
//! around either.
//!
//! The contract mirrors what a crash-safe store can actually rely on
//! from POSIX:
//!
//! * [`Storage::append`] may tear — on error, a *prefix* of the data
//!   (reported in the error) may still have been written;
//! * appended bytes are durable only after [`Storage::sync`];
//! * [`Storage::rename`] atomically replaces the target — it is the
//!   only primitive that can serve as a commit point.

use std::collections::BTreeMap;

use hds_trace::rng::XorShift64Star;

/// A storage operation's typed failure. Every variant is something the
/// store degrades through gracefully — none of them may panic a
/// serving process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// The named file does not exist.
    NotFound,
    /// The device is full: `written` bytes of this append made it to
    /// the file before space ran out (a real `ENOSPC` mid-append also
    /// leaves a prefix behind).
    NoSpace {
        /// Bytes of the attempted append that were written anyway.
        written: usize,
    },
    /// A crash/power-style torn write: only `written` bytes of the
    /// append landed.
    Torn {
        /// Bytes of the attempted append that were written.
        written: usize,
    },
    /// The operation failed without touching the file (open failure,
    /// rename failure, permission, …).
    Failed(
        /// Which primitive failed.
        &'static str,
    ),
    /// The simulated process kill of a chaos schedule: the op (and
    /// every op after it) did not happen. Only
    /// [`FaultyStorage`](crate::FaultyStorage) produces this.
    Killed,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NotFound => f.write_str("file not found"),
            StorageError::NoSpace { written } => {
                write!(f, "no space left on device ({written} bytes written)")
            }
            StorageError::Torn { written } => {
                write!(f, "torn write ({written} bytes written)")
            }
            StorageError::Failed(what) => write!(f, "storage {what} failed"),
            StorageError::Killed => f.write_str("killed by fault schedule"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A flat namespace of append-only-ish files with explicit durability.
///
/// All methods take the file's name within the namespace (no
/// directories) and `&mut self` — even reads, so a seeded fault
/// injector can advance its schedule on read-side faults.
/// Implementations must be deterministic: [`Storage::list`] returns
/// names in sorted order.
pub trait Storage: Send + 'static {
    /// Every file name in the namespace, sorted.
    ///
    /// # Errors
    ///
    /// Any [`StorageError`] from the underlying medium.
    fn list(&mut self) -> Result<Vec<String>, StorageError>;

    /// Downcast hook so tests and the chaos harness can reach a
    /// concrete implementation (e.g. [`MemStorage::crash`] or its
    /// corruption hook) through a `Box<dyn Storage>`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// The full contents of a file.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] when absent, or any other failure.
    fn read(&mut self, name: &str) -> Result<Vec<u8>, StorageError>;

    /// Appends `data` to the file, creating it if missing. On error, a
    /// prefix of `data` may still have been written (see
    /// [`StorageError::Torn`] / [`StorageError::NoSpace`]); the bytes
    /// are not durable until [`Storage::sync`].
    ///
    /// # Errors
    ///
    /// Any [`StorageError`] from the underlying medium.
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Makes all previously appended bytes of the file durable.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] when absent, or any other failure.
    fn sync(&mut self, name: &str) -> Result<(), StorageError>;

    /// Atomically replaces `to` with `from` (the commit-point
    /// primitive). The renamed content is durable on success.
    ///
    /// # Errors
    ///
    /// [`StorageError::NotFound`] when `from` is absent, or any other
    /// failure; on error the namespace is unchanged.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError>;

    /// Deletes a file. Removing an absent file is `Ok` (idempotent, so
    /// crash-retried cleanup converges).
    ///
    /// # Errors
    ///
    /// Any [`StorageError`] from the underlying medium.
    fn remove(&mut self, name: &str) -> Result<(), StorageError>;
}

/// One in-memory file: its bytes plus how many of them have been made
/// durable by `sync`.
#[derive(Clone, Debug, Default)]
struct MemFile {
    data: Vec<u8>,
    durable: usize,
}

/// Deterministic in-memory [`Storage`] with explicit durability
/// tracking: a simulated crash ([`MemStorage::crash`]) throws away a
/// seeded amount of whatever was appended but never synced, exactly
/// the way a kernel page cache would.
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    files: BTreeMap<String, MemFile>,
}

impl MemStorage {
    /// An empty namespace.
    #[must_use]
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Simulates a process/machine crash: for every file, bytes beyond
    /// the last `sync` survive only as a seeded prefix (the page cache
    /// may have flushed some of them, in order, or none). Renames and
    /// removes are modeled as immediately durable.
    pub fn crash(&mut self, seed: u64) {
        let mut rng = XorShift64Star::new(seed | 1);
        for file in self.files.values_mut() {
            let unsynced = file.data.len() - file.durable;
            if unsynced > 0 {
                let kept = (rng.next_u64() as usize) % (unsynced + 1);
                file.data.truncate(file.durable + kept);
            }
        }
    }

    /// Direct mutable access to a file's bytes — the corruption hook
    /// for bit-rot tests. Returns `None` when absent.
    pub fn data_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.files.get_mut(name).map(|f| &mut f.data)
    }

    /// Total bytes held across all files.
    #[must_use]
    pub fn total_bytes(&self) -> usize {
        self.files.values().map(|f| f.data.len()).sum()
    }
}

impl Storage for MemStorage {
    fn list(&mut self) -> Result<Vec<String>, StorageError> {
        Ok(self.files.keys().cloned().collect())
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.files
            .get(name)
            .map(|f| f.data.clone())
            .ok_or(StorageError::NotFound)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        let file = self.files.entry(name.to_string()).or_default();
        file.data.extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        let file = self.files.get_mut(name).ok_or(StorageError::NotFound)?;
        file.durable = file.data.len();
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError> {
        let mut file = self.files.remove(from).ok_or(StorageError::NotFound)?;
        // The store syncs before renaming; model the rename itself as
        // the durability point for whatever the file holds.
        file.durable = file.data.len();
        self.files.insert(to.to_string(), file);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        self.files.remove(name);
        Ok(())
    }
}

/// Real-filesystem [`Storage`] rooted at a directory (created on
/// construction). `sync` maps to `fsync`; `rename` maps to
/// `std::fs::rename` followed by an fsync of the root directory, which
/// is the POSIX recipe for a durable atomic replace.
#[derive(Debug)]
pub struct FsStorage {
    root: std::path::PathBuf,
}

impl FsStorage {
    /// Opens (creating if needed) the namespace rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StorageError::Failed`] when the directory cannot be created.
    pub fn open(root: impl Into<std::path::PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|_| StorageError::Failed("create dir"))?;
        Ok(FsStorage { root })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.root.join(name)
    }

    fn sync_dir(&self) -> Result<(), StorageError> {
        // Best-effort on platforms where opening a directory for sync
        // is not supported; on Linux this is the real deal.
        if let Ok(dir) = std::fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

fn map_io(err: &std::io::Error, what: &'static str, written: usize) -> StorageError {
    match err.kind() {
        std::io::ErrorKind::NotFound => StorageError::NotFound,
        std::io::ErrorKind::StorageFull => StorageError::NoSpace { written },
        _ => StorageError::Failed(what),
    }
}

impl Storage for FsStorage {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn list(&mut self) -> Result<Vec<String>, StorageError> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.root).map_err(|e| map_io(&e, "list", 0))?;
        for entry in entries {
            let entry = entry.map_err(|e| map_io(&e, "list", 0))?;
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&mut self, name: &str) -> Result<Vec<u8>, StorageError> {
        std::fs::read(self.path(name)).map_err(|e| map_io(&e, "read", 0))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), StorageError> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))
            .map_err(|e| map_io(&e, "open", 0))?;
        file.write_all(data).map_err(|e| map_io(&e, "append", 0))
    }

    fn sync(&mut self, name: &str) -> Result<(), StorageError> {
        let file = std::fs::File::open(self.path(name)).map_err(|e| map_io(&e, "open", 0))?;
        file.sync_all().map_err(|e| map_io(&e, "sync", 0))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), StorageError> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| map_io(&e, "rename", 0))?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> Result<(), StorageError> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(map_io(&e, "remove", 0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::new();
        s.append("a.log", b"hello ").unwrap();
        s.append("a.log", b"world").unwrap();
        assert_eq!(s.read("a.log").unwrap(), b"hello world");
        assert_eq!(s.read("missing"), Err(StorageError::NotFound));
        assert_eq!(s.list().unwrap(), vec!["a.log".to_string()]);
        s.remove("a.log").unwrap();
        s.remove("a.log").unwrap(); // idempotent
        assert!(s.list().unwrap().is_empty());
    }

    #[test]
    fn crash_keeps_synced_bytes_and_a_prefix_of_the_rest() {
        for seed in 0..32 {
            let mut s = MemStorage::new();
            s.append("f", b"durable").unwrap();
            s.sync("f").unwrap();
            s.append("f", b"maybe").unwrap();
            s.crash(seed);
            let data = s.read("f").unwrap();
            assert!(data.starts_with(b"durable"), "synced bytes survive");
            assert!(data.len() <= b"durable".len() + b"maybe".len());
            assert!(b"durablemaybe".starts_with(data.as_slice()));
        }
    }

    #[test]
    fn rename_replaces_atomically() {
        let mut s = MemStorage::new();
        s.append("tmp", b"new").unwrap();
        s.append("target", b"old").unwrap();
        s.rename("tmp", "target").unwrap();
        assert_eq!(s.read("target").unwrap(), b"new");
        assert_eq!(s.read("tmp"), Err(StorageError::NotFound));
        assert_eq!(s.rename("gone", "x"), Err(StorageError::NotFound));
    }

    #[test]
    fn fs_storage_round_trips_in_a_temp_dir() {
        let dir = std::env::temp_dir().join(format!("hds-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FsStorage::open(&dir).unwrap();
        s.append("seg-0.log", b"abc").unwrap();
        s.append("seg-0.log", b"def").unwrap();
        s.sync("seg-0.log").unwrap();
        assert_eq!(s.read("seg-0.log").unwrap(), b"abcdef");
        s.append("m.tmp", b"manifest").unwrap();
        s.sync("m.tmp").unwrap();
        s.rename("m.tmp", "MANIFEST").unwrap();
        assert_eq!(s.read("MANIFEST").unwrap(), b"manifest");
        assert_eq!(
            s.list().unwrap(),
            vec!["MANIFEST".to_string(), "seg-0.log".to_string()]
        );
        s.remove("seg-0.log").unwrap();
        s.remove("seg-0.log").unwrap();
        assert_eq!(s.read("seg-0.log"), Err(StorageError::NotFound));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
