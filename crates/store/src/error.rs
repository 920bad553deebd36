//! The typed storage-error taxonomy.

use std::io;
use std::path::PathBuf;

/// Everything that can go wrong opening, verifying, or committing an index
/// directory. Each variant is a distinct, actionable diagnosis — the
/// replacement for the `io::Error` strings the first save/open used.
#[derive(Debug)]
pub enum StoreError {
    /// The directory has no `MANIFEST.json`: nothing was ever committed
    /// there, or the manifest was removed (`ii repair` rebuilds one from
    /// the artifacts that still validate).
    MissingManifest {
        /// The directory inspected.
        dir: PathBuf,
    },
    /// `MANIFEST.json` exists but does not parse — a torn or corrupted
    /// manifest write.
    TornManifest {
        /// Parse failure detail.
        detail: String,
    },
    /// The manifest's format version is not one this build reads.
    VersionSkew {
        /// Version found in the manifest.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The manifest references an artifact whose file is gone.
    MissingArtifact {
        /// Logical artifact name.
        name: String,
    },
    /// An artifact's on-disk length disagrees with the manifest.
    SizeMismatch {
        /// Logical artifact name.
        name: String,
        /// Length recorded in the manifest.
        expected: u64,
        /// Length found on disk.
        found: u64,
    },
    /// An artifact's CRC32 disagrees with the manifest — bit rot or a
    /// misdirected write.
    ChecksumMismatch {
        /// Logical artifact name.
        name: String,
        /// Checksum recorded in the manifest.
        expected: u32,
        /// Checksum computed from the file.
        found: u32,
    },
    /// An artifact passed its checksum but failed semantic decoding, or an
    /// artifact name violates the layout's naming rules.
    Corrupt {
        /// Logical artifact name.
        name: String,
        /// Decode failure detail.
        detail: String,
    },
    /// The directory holds a committed build *checkpoint*, not a finished
    /// index — resume the build instead of opening it.
    IncompleteBuild {
        /// The directory inspected.
        dir: PathBuf,
    },
    /// A resume was requested against a checkpoint whose recorded
    /// build-knob fingerprint disagrees with the current configuration.
    /// Resuming anyway could produce an index that is byte-divergent from
    /// an uninterrupted build, so the mismatch is refused with both
    /// fingerprints for diffing.
    CheckpointMismatch {
        /// What the checkpoint disagrees about (`config` / `collection`).
        what: String,
        /// Fingerprint recorded in the checkpoint.
        expected: String,
        /// Fingerprint of the current build.
        found: String,
    },
    /// The volume ran out of space mid-operation (ENOSPC). Distinct from
    /// [`StoreError::Io`] because it is the one storage failure that is
    /// worth retrying after backoff: space frees up, disks get swapped —
    /// and the atomic-commit protocol leaves the previous generation
    /// intact, so a retried commit starts clean.
    DiskFull {
        /// The underlying ENOSPC error text.
        detail: String,
    },
    /// An underlying I/O failure (including injected crash points).
    Io(io::Error),
}

impl StoreError {
    /// True for failures a caller may retry after backing off (the volume
    /// may have space again); everything else is a terminal diagnosis.
    pub fn is_retriable(&self) -> bool {
        matches!(self, StoreError::DiskFull { .. })
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::MissingManifest { dir } => {
                write!(f, "no MANIFEST.json in {}", dir.display())
            }
            StoreError::TornManifest { detail } => {
                write!(f, "torn or corrupt MANIFEST.json: {detail}")
            }
            StoreError::VersionSkew { found, supported } => write!(
                f,
                "manifest format version {found} is not supported (this build reads {supported})"
            ),
            StoreError::MissingArtifact { name } => {
                write!(f, "artifact '{name}' listed in the manifest is missing")
            }
            StoreError::SizeMismatch { name, expected, found } => write!(
                f,
                "artifact '{name}' is {found} bytes, manifest says {expected}"
            ),
            StoreError::ChecksumMismatch { name, expected, found } => write!(
                f,
                "artifact '{name}' checksum {found:#010x} != manifest {expected:#010x}"
            ),
            StoreError::Corrupt { name, detail } => {
                write!(f, "artifact '{name}' is corrupt: {detail}")
            }
            StoreError::IncompleteBuild { dir } => write!(
                f,
                "{} holds an uncommitted build checkpoint, not a finished index \
                 (rerun the build with --resume)",
                dir.display()
            ),
            StoreError::CheckpointMismatch { what, expected, found } => write!(
                f,
                "checkpoint {what} mismatch: checkpoint was built with '{expected}', \
                 current build is '{found}' (resuming would diverge)"
            ),
            StoreError::DiskFull { detail } => {
                write!(f, "volume is out of space (retriable): {detail}")
            }
            StoreError::Io(e) => write!(f, "storage I/O failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        // ENOSPC classifies as the typed, retriable disk-full error.
        // (Matched by raw OS errno: `ErrorKind::StorageFull` is not yet
        // stable on every toolchain this builds with.)
        if e.raw_os_error() == Some(28) {
            return StoreError::DiskFull { detail: e.to_string() };
        }
        StoreError::Io(e)
    }
}

impl From<StoreError> for io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = StoreError::ChecksumMismatch {
            name: "dictionary.bin".into(),
            expected: 0xDEADBEEF,
            found: 0x12345678,
        };
        let s = e.to_string();
        assert!(s.contains("dictionary.bin"));
        assert!(s.contains("0xdeadbeef"));
        let io: io::Error = e.into();
        assert_eq!(io.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn checkpoint_mismatch_names_both_fingerprints() {
        let e = StoreError::CheckpointMismatch {
            what: "config".into(),
            expected: "cpus=1|mem_budget=0".into(),
            found: "cpus=2|mem_budget=64".into(),
        };
        let s = e.to_string();
        assert!(s.contains("cpus=1|mem_budget=0"), "{s}");
        assert!(s.contains("cpus=2|mem_budget=64"), "{s}");
        assert!(!e.is_retriable(), "a knob mismatch never resolves by retrying");
    }

    #[test]
    fn enospc_classifies_as_retriable_disk_full() {
        let e: StoreError = io::Error::from_raw_os_error(28).into();
        assert!(matches!(e, StoreError::DiskFull { .. }), "{e:?}");
        assert!(e.is_retriable());
        assert!(e.to_string().contains("retriable"), "{e}");
        let plain: StoreError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(!plain.is_retriable());
    }
}
