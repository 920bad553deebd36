//! Fault injection and the ingest error taxonomy.
//!
//! Production collections are not pristine: disks hiccup, containers arrive
//! truncated or bit-flipped, compressed payloads are garbage. This module
//! gives the rest of the system two things:
//!
//! 1. [`IngestError`] — a typed union of everything that can go wrong on the
//!    read → decompress → parse path, classified *transient* (worth
//!    retrying) vs *permanent* (corrupt data; retrying cannot help).
//! 2. [`FaultPlan`] — a deterministic, seeded fault-injection harness wired
//!    into [`StoredCollection`](crate::StoredCollection)'s read path, so the
//!    pipeline's recovery machinery can be exercised reproducibly in tests
//!    and chaos runs.

use crate::compress::DecompressError;
use crate::container::ContainerError;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::Mutex;

/// Everything that can go wrong turning a container file into documents.
#[derive(Debug)]
pub enum IngestError {
    /// Reading the file failed. I/O faults are classified transient: a
    /// retry against real hardware may succeed.
    Io(io::Error),
    /// The compressed payload did not decompress. Permanent: the bytes on
    /// disk are corrupt and will not improve on retry.
    Decompress(DecompressError),
    /// The decompressed container did not parse (bad magic, truncated
    /// record table, invalid UTF-8, checksum mismatch). Permanent.
    Container(ContainerError),
}

impl IngestError {
    /// Whether retrying the operation could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        matches!(self, IngestError::Io(_))
    }
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "read failed: {e}"),
            IngestError::Decompress(e) => write!(f, "decompress failed: {e}"),
            IngestError::Container(e) => write!(f, "container parse failed: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            IngestError::Decompress(e) => Some(e),
            IngestError::Container(e) => Some(e),
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<DecompressError> for IngestError {
    fn from(e: DecompressError) -> Self {
        IngestError::Decompress(e)
    }
}

impl From<ContainerError> for IngestError {
    fn from(e: ContainerError) -> Self {
        IngestError::Container(e)
    }
}

/// A fault to inject when a specific container file is read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The first `failures` read attempts fail with a transient
    /// `io::ErrorKind::Interrupted`; subsequent attempts succeed. Models a
    /// flaky disk that recovers under retry.
    TransientRead {
        /// How many attempts fail before reads start succeeding.
        failures: u32,
    },
    /// The compressed payload is cut to half its length — guaranteed to
    /// surface as a permanent [`DecompressError::Truncated`].
    Truncate,
    /// One deterministically-chosen bit of the compressed payload is
    /// flipped. Surfaces as a decompress error or (via the container
    /// checksum, which covers its own trailer too) a
    /// `ContainerError::ChecksumMismatch`; in rare cases the flip is
    /// harmless (the stream still decompresses to the same bytes).
    BitFlip,
    /// The whole payload is replaced by deterministic garbage of the same
    /// length — a permanently corrupt file.
    Garbage,
    /// Reading the file panics, modeling a poisoned parser thread. The
    /// pipeline must contain the crash rather than hang or truncate.
    Panic,
}

/// Deterministic, seeded fault-injection plan keyed by file index.
///
/// Attach one to a collection with
/// [`StoredCollection::with_faults`](crate::StoredCollection::with_faults);
/// every `read_file_raw` call then consults the plan. All corruption is
/// derived from the seed and the file index, so a given plan replays
/// identically across runs and parser counts.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: BTreeMap<usize, FaultKind>,
    /// Remaining transient failures per file; interior mutability because
    /// reads take `&self` from many parser threads.
    remaining: Mutex<HashMap<usize, u32>>,
}

impl FaultPlan {
    /// An empty plan; corruption positions derive from `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, faults: BTreeMap::new(), remaining: Mutex::new(HashMap::new()) }
    }

    /// Inject `kind` when file `file_idx` is read.
    pub fn with_fault(mut self, file_idx: usize, kind: FaultKind) -> FaultPlan {
        if let FaultKind::TransientRead { failures } = kind {
            self.remaining
                .get_mut()
                .unwrap_or_else(|e| e.into_inner())
                .insert(file_idx, failures);
        }
        self.faults.insert(file_idx, kind);
        self
    }

    /// Inject `kind` into a deterministic pseudo-random `fraction` of
    /// `num_files` files (at least one). Useful for "faults at 10% of
    /// files" chaos runs.
    pub fn sprinkle(seed: u64, num_files: usize, fraction: f64, kind: FaultKind) -> FaultPlan {
        let k = ((num_files as f64 * fraction).round() as usize).clamp(1, num_files);
        // Seeded Fisher-Yates over the file indices, take the first k.
        let mut order: Vec<usize> = (0..num_files).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            state = splitmix64(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let mut plan = FaultPlan::new(seed);
        for &f in order.iter().take(k) {
            plan = plan.with_fault(f, kind);
        }
        plan
    }

    /// The fault registered for a file, if any.
    pub fn fault_for(&self, file_idx: usize) -> Option<FaultKind> {
        self.faults.get(&file_idx).copied()
    }

    /// Files with a registered fault, ascending.
    pub fn faulty_files(&self) -> Vec<usize> {
        self.faults.keys().copied().collect()
    }

    /// The read-path hook: given the bytes actually read for `file_idx`,
    /// return what the (possibly faulty) disk would have produced.
    pub fn apply_read(&self, file_idx: usize, mut bytes: Vec<u8>) -> io::Result<Vec<u8>> {
        match self.fault_for(file_idx) {
            None => Ok(bytes),
            Some(FaultKind::TransientRead { failures }) => {
                let mut remaining = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
                let left = remaining.entry(file_idx).or_insert(failures);
                if *left > 0 {
                    *left -= 1;
                    Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        format!("injected transient read fault (file {file_idx})"),
                    ))
                } else {
                    Ok(bytes)
                }
            }
            Some(FaultKind::Truncate) => {
                bytes.truncate(bytes.len() / 2);
                Ok(bytes)
            }
            Some(FaultKind::BitFlip) => {
                if !bytes.is_empty() {
                    let bit = splitmix64(self.seed ^ file_idx as u64) % (bytes.len() as u64 * 8);
                    bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                Ok(bytes)
            }
            Some(FaultKind::Garbage) => {
                let mut state = splitmix64(self.seed ^ (file_idx as u64).wrapping_mul(0x9E37));
                for b in bytes.iter_mut() {
                    state = splitmix64(state);
                    *b = state as u8;
                }
                Ok(bytes)
            }
            Some(FaultKind::Panic) => {
                panic!("injected parser panic (file {file_idx})")
            }
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_read_recovers_after_budget() {
        let plan = FaultPlan::new(7).with_fault(2, FaultKind::TransientRead { failures: 2 });
        let payload = vec![1u8, 2, 3];
        assert!(plan.apply_read(2, payload.clone()).is_err());
        assert!(plan.apply_read(2, payload.clone()).is_err());
        assert_eq!(plan.apply_read(2, payload.clone()).unwrap(), payload);
        // Unfaulted files are untouched.
        assert_eq!(plan.apply_read(0, payload.clone()).unwrap(), payload);
    }

    #[test]
    fn corruption_is_deterministic() {
        let payload: Vec<u8> = (0..64).collect();
        for kind in [FaultKind::Truncate, FaultKind::BitFlip, FaultKind::Garbage] {
            let a = FaultPlan::new(9).with_fault(1, kind).apply_read(1, payload.clone()).unwrap();
            let b = FaultPlan::new(9).with_fault(1, kind).apply_read(1, payload.clone()).unwrap();
            assert_eq!(a, b, "{kind:?} not deterministic");
            assert_ne!(a, payload, "{kind:?} left payload intact");
        }
    }

    #[test]
    fn sprinkle_hits_requested_fraction() {
        let plan = FaultPlan::sprinkle(11, 20, 0.1, FaultKind::Garbage);
        assert_eq!(plan.faulty_files().len(), 2);
        let again = FaultPlan::sprinkle(11, 20, 0.1, FaultKind::Garbage);
        assert_eq!(plan.faulty_files(), again.faulty_files(), "sprinkle must be seeded");
        // At least one fault even for tiny fractions.
        assert_eq!(FaultPlan::sprinkle(3, 4, 0.01, FaultKind::Truncate).faulty_files().len(), 1);
    }

    #[test]
    #[should_panic(expected = "injected parser panic")]
    fn panic_fault_panics() {
        let plan = FaultPlan::new(1).with_fault(0, FaultKind::Panic);
        let _ = plan.apply_read(0, vec![0]);
    }

    #[test]
    fn transient_errors_classified_transient() {
        let io: IngestError = io::Error::new(io::ErrorKind::Interrupted, "x").into();
        assert!(io.is_transient());
        let perm: IngestError = DecompressError::Truncated.into();
        assert!(!perm.is_transient());
        let perm: IngestError = ContainerError::BadMagic.into();
        assert!(!perm.is_transient());
    }
}
