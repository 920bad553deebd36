//! Run output files (paper §III.F).
//!
//! "A separate output file is created for the postings lists generated
//! during a single run, whose header contains a mapping table indicating
//! the location and length of each postings list." Postings handles stored
//! in the dictionary index into these mapping tables; a term's full list is
//! the concatenation of its partial lists across runs, which is already
//! doc-ordered because runs are.
//!
//! Two on-disk formats coexist:
//!
//! * **v1 (`IIRF`)** — the legacy layout: every list is one whole-list
//!   stream in the run's single codec. Still readable (and writable via
//!   [`RunFile::build_legacy`]) so pre-block-layout indexes keep opening.
//! * **v2 (`IIR2`)** — the block layout of [`crate::block`]: each list is
//!   a skip table plus fixed 128-document blocks, each mapping-table row
//!   carries its own (length-class-resolved) codec and the list's maximum
//!   term frequency. This is what [`RunFile::build`] writes.

use crate::block;
use crate::codec::{decode, encode, Codec, CodecError};
use crate::cursor::{RunCursor, SetCursor};
use crate::posting::{Posting, PostingsList};
use ii_corpus::DocId;

/// Magic bytes of a legacy (whole-list) run file.
pub const RUN_MAGIC: &[u8; 4] = b"IIRF";

/// Magic bytes of a block-layout run file.
pub const RUN_MAGIC_V2: &[u8; 4] = b"IIR2";

/// Which on-disk layout a run file uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunFormat {
    /// v1: whole-list streams, one codec per run.
    Legacy,
    /// v2: 128-doc blocks + skip tables, one codec per list.
    Blocked,
}

/// One mapping-table row: where a partial postings list lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunEntry {
    /// Postings handle (dictionary pointer).
    pub handle: u32,
    /// Payload-relative byte offset.
    pub offset: u64,
    /// Encoded length in bytes.
    pub len: u32,
    /// Number of postings encoded.
    pub n_postings: u32,
    /// Smallest document ID in the partial list.
    pub doc_min: u32,
    /// Largest document ID in the partial list.
    pub doc_max: u32,
    /// Codec of this list. In v1 files every entry inherits the run codec;
    /// in v2 it is the length-class-resolved codec of the list.
    pub codec: Codec,
    /// Largest term frequency in the list (block-max metadata; 0 in
    /// legacy files, which never stored it).
    pub max_tf: u32,
}

const ENTRY_BYTES_V1: usize = 28;
const ENTRY_BYTES_V2: usize = 41;
const HEADER_BYTES: usize = 33;

/// A run file: header + mapping table + payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFile {
    /// Which run produced this file.
    pub run_id: u32,
    /// Which indexer produced this file.
    pub indexer_id: u32,
    /// Mapping table, sorted by handle.
    pub entries: Vec<RunEntry>,
    /// Concatenated encoded postings.
    pub payload: Vec<u8>,
    /// The codec the run was built with (possibly [`Codec::Auto`]; the
    /// per-list resolution lives in each entry).
    pub codec: Codec,
    /// On-disk layout.
    pub format: RunFormat,
}

/// Errors from [`RunFile::from_bytes`].
#[derive(Debug, PartialEq, Eq)]
pub enum RunFileError {
    /// Wrong magic or impossible sizes.
    Malformed,
    /// Buffer too short.
    Truncated,
}

impl std::fmt::Display for RunFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunFileError::Malformed => write!(f, "malformed run file"),
            RunFileError::Truncated => write!(f, "truncated run file"),
        }
    }
}

impl std::error::Error for RunFileError {}

/// Canonical on-disk artifact name of a run file: `run_IND_RUNID.iirf`,
/// zero-padded so lexicographic and numeric orders agree. Shared by the
/// pipeline's checkpoint commits and the index save/open paths.
pub fn run_artifact_name(indexer_id: u32, run_id: u32) -> String {
    format!("run_{indexer_id:03}_{run_id:05}.iirf")
}

/// Parse a name produced by [`run_artifact_name`] back into
/// `(indexer_id, run_id)`. Strict: both fields must be non-empty ASCII
/// digits and nothing may follow the run id — `run_000_00001_extra.iirf`
/// or `run_000_00001.iirf.bak` are rejected, not silently truncated.
pub fn parse_run_artifact_name(name: &str) -> Option<(u32, u32)> {
    let rest = name.strip_prefix("run_")?.strip_suffix(".iirf")?;
    let (indexer, run) = rest.split_once('_')?;
    let digits =
        |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !digits(indexer) || !digits(run) {
        return None;
    }
    Some((indexer.parse().ok()?, run.parse().ok()?))
}

fn codec_tag(c: Codec) -> (u8, u64) {
    match c {
        Codec::VarByte => (0, 0),
        Codec::Gamma => (1, 0),
        Codec::Golomb(b) => (2, b),
        Codec::Bp128 => (3, 0),
        Codec::PFor => (4, 0),
        Codec::EliasFano => (5, 0),
        Codec::Auto => (6, 0),
    }
}

fn codec_from_tag(tag: u8, b: u64) -> Option<Codec> {
    match tag {
        0 => Some(Codec::VarByte),
        1 => Some(Codec::Gamma),
        2 => Some(Codec::Golomb(b.max(1))),
        3 => Some(Codec::Bp128),
        4 => Some(Codec::PFor),
        5 => Some(Codec::EliasFano),
        6 => Some(Codec::Auto),
        _ => None,
    }
}

impl RunFile {
    /// Build a block-layout (v2) run file from `(handle, list)` pairs (the
    /// end-of-run flush). Empty lists are skipped; entries are stored
    /// sorted by handle; each list's codec is `codec` resolved by its
    /// length ([`Codec::Auto`] applies the measured length-class policy).
    pub fn build(
        run_id: u32,
        indexer_id: u32,
        lists: &mut dyn Iterator<Item = (u32, &PostingsList)>,
        codec: Codec,
    ) -> RunFile {
        let mut pairs: Vec<(u32, &PostingsList)> =
            lists.filter(|(_, l)| !l.is_empty()).collect();
        pairs.sort_unstable_by_key(|(h, _)| *h);
        let mut entries = Vec::with_capacity(pairs.len());
        let mut payload = Vec::new();
        for (handle, list) in pairs {
            let resolved = codec.resolve(list.len());
            let enc = block::encode_list(list.postings(), resolved);
            let (lo, hi) = list.doc_range().expect("non-empty");
            entries.push(RunEntry {
                handle,
                offset: payload.len() as u64,
                len: enc.bytes.len() as u32,
                n_postings: list.len() as u32,
                doc_min: lo.0,
                doc_max: hi.0,
                codec: resolved,
                max_tf: enc.max_tf,
            });
            payload.extend_from_slice(&enc.bytes);
        }
        RunFile { run_id, indexer_id, entries, payload, codec, format: RunFormat::Blocked }
    }

    /// Build a legacy (v1, whole-list) run file. Kept for fixtures and the
    /// backwards-compatibility tests; `codec` must be a legacy codec.
    pub fn build_legacy(
        run_id: u32,
        indexer_id: u32,
        lists: &mut dyn Iterator<Item = (u32, &PostingsList)>,
        codec: Codec,
    ) -> RunFile {
        assert!(!codec.is_blocked(), "legacy run files only support whole-list codecs");
        let mut pairs: Vec<(u32, &PostingsList)> =
            lists.filter(|(_, l)| !l.is_empty()).collect();
        pairs.sort_unstable_by_key(|(h, _)| *h);
        let mut entries = Vec::with_capacity(pairs.len());
        let mut payload = Vec::new();
        for (handle, list) in pairs {
            let bytes = encode(list.postings(), codec);
            let (lo, hi) = list.doc_range().expect("non-empty");
            entries.push(RunEntry {
                handle,
                offset: payload.len() as u64,
                len: bytes.len() as u32,
                n_postings: list.len() as u32,
                doc_min: lo.0,
                doc_max: hi.0,
                codec,
                max_tf: 0,
            });
            payload.extend_from_slice(&bytes);
        }
        RunFile { run_id, indexer_id, entries, payload, codec, format: RunFormat::Legacy }
    }

    /// Document range covered by the whole run, if any list is present.
    pub fn doc_range(&self) -> Option<(u32, u32)> {
        let lo = self.entries.iter().map(|e| e.doc_min).min()?;
        let hi = self.entries.iter().map(|e| e.doc_max).max()?;
        Some((lo, hi))
    }

    /// Largest term frequency across every list in the run (0 when empty
    /// or legacy).
    pub fn max_tf(&self) -> u32 {
        self.entries.iter().map(|e| e.max_tf).max().unwrap_or(0)
    }

    /// Total 128-doc blocks across every list (0 for legacy files).
    pub fn block_count(&self) -> u64 {
        match self.format {
            RunFormat::Legacy => 0,
            RunFormat::Blocked => {
                self.entries.iter().map(|e| block::n_blocks(e.n_postings as usize) as u64).sum()
            }
        }
    }

    /// Look up the mapping-table row of `handle`.
    pub fn entry(&self, handle: u32) -> Option<&RunEntry> {
        self.entries
            .binary_search_by_key(&handle, |e| e.handle)
            .ok()
            .map(|i| &self.entries[i])
    }

    /// The encoded bytes of one mapping-table row.
    pub fn payload_of(&self, e: &RunEntry) -> &[u8] {
        &self.payload[e.offset as usize..(e.offset + e.len as u64) as usize]
    }

    /// Decode the partial postings list behind one mapping-table row.
    pub fn decode_entry(&self, e: &RunEntry) -> Result<Vec<Posting>, CodecError> {
        let buf = self.payload_of(e);
        match self.format {
            RunFormat::Blocked => block::decode_list(buf, e.n_postings as usize, e.codec),
            RunFormat::Legacy => decode(buf, e.n_postings as usize, e.codec),
        }
    }

    /// A skip-capable cursor over one mapping-table row. Blocked entries
    /// decode lazily (block at a time via the skip table); legacy entries
    /// fall back to an eager whole-list decode.
    pub fn cursor_of(&self, e: &RunEntry) -> Result<RunCursor<'_>, CodecError> {
        match self.format {
            RunFormat::Blocked => Ok(RunCursor::Blocked(crate::cursor::ListCursor::new(
                self.payload_of(e),
                e.n_postings as usize,
                e.codec,
            )?)),
            RunFormat::Legacy => {
                Ok(RunCursor::Legacy { postings: self.decode_entry(e)?, pos: 0 })
            }
        }
    }

    /// Decode the partial postings list of `handle` in this run. `None`
    /// when the handle is absent or its bytes are corrupt.
    pub fn get(&self, handle: u32) -> Option<Vec<Posting>> {
        let e = self.entry(handle)?;
        self.decode_entry(e).ok()
    }

    /// Serialize to bytes (what goes to disk). The format is preserved: a
    /// v1-loaded file re-serializes as v1, so round-trips never silently
    /// migrate an artifact.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (magic, entry_bytes) = match self.format {
            RunFormat::Legacy => (RUN_MAGIC, ENTRY_BYTES_V1),
            RunFormat::Blocked => (RUN_MAGIC_V2, ENTRY_BYTES_V2),
        };
        let mut out =
            Vec::with_capacity(HEADER_BYTES + self.entries.len() * entry_bytes + self.payload.len());
        out.extend_from_slice(magic);
        out.extend_from_slice(&self.run_id.to_le_bytes());
        out.extend_from_slice(&self.indexer_id.to_le_bytes());
        let (tag, b) = codec_tag(self.codec);
        out.push(tag);
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        for e in &self.entries {
            out.extend_from_slice(&e.handle.to_le_bytes());
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.n_postings.to_le_bytes());
            out.extend_from_slice(&e.doc_min.to_le_bytes());
            out.extend_from_slice(&e.doc_max.to_le_bytes());
            if self.format == RunFormat::Blocked {
                out.extend_from_slice(&e.max_tf.to_le_bytes());
                let (tag, b) = codec_tag(e.codec);
                out.push(tag);
                out.extend_from_slice(&b.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.payload);
        out
    }

    /// Deserialize a run file (either format, dispatched on the magic).
    pub fn from_bytes(buf: &[u8]) -> Result<RunFile, RunFileError> {
        if buf.len() < HEADER_BYTES {
            return Err(RunFileError::Truncated);
        }
        let format = if &buf[..4] == RUN_MAGIC {
            RunFormat::Legacy
        } else if &buf[..4] == RUN_MAGIC_V2 {
            RunFormat::Blocked
        } else {
            return Err(RunFileError::Malformed);
        };
        let entry_bytes = match format {
            RunFormat::Legacy => ENTRY_BYTES_V1,
            RunFormat::Blocked => ENTRY_BYTES_V2,
        };
        let rd32 = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
        let rd64 = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        let run_id = rd32(4);
        let indexer_id = rd32(8);
        let codec = codec_from_tag(buf[12], rd64(13)).ok_or(RunFileError::Malformed)?;
        let n = rd32(21) as usize;
        let payload_len = rd64(25) as usize;
        let table_start = HEADER_BYTES;
        let payload_start = table_start
            .checked_add(n.checked_mul(entry_bytes).ok_or(RunFileError::Malformed)?)
            .ok_or(RunFileError::Malformed)?;
        if buf.len() < payload_start.checked_add(payload_len).ok_or(RunFileError::Malformed)? {
            return Err(RunFileError::Truncated);
        }
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        for i in 0..n {
            let o = table_start + i * entry_bytes;
            let (entry_codec, max_tf) = match format {
                RunFormat::Legacy => (codec, 0),
                RunFormat::Blocked => {
                    let c = codec_from_tag(buf[o + 32], rd64(o + 33))
                        .ok_or(RunFileError::Malformed)?;
                    if c == Codec::Auto {
                        // Entries must carry resolved codecs.
                        return Err(RunFileError::Malformed);
                    }
                    (c, rd32(o + 28))
                }
            };
            entries.push(RunEntry {
                handle: rd32(o),
                offset: rd64(o + 4),
                len: rd32(o + 12),
                n_postings: rd32(o + 16),
                doc_min: rd32(o + 20),
                doc_max: rd32(o + 24),
                codec: entry_codec,
                max_tf,
            });
        }
        for e in &entries {
            // `checked_add`: an offset near `u64::MAX` must not wrap past
            // the bound and panic later in `payload_of`.
            match e.offset.checked_add(u64::from(e.len)) {
                Some(end) if end <= payload_len as u64 => {}
                _ => return Err(RunFileError::Malformed),
            }
        }
        let payload = buf[payload_start..payload_start + payload_len].to_vec();
        Ok(RunFile { run_id, indexer_id, entries, payload, codec, format })
    }
}

/// All the run files one indexer produced, in run order; answers full-list
/// and range-narrowed lookups (the two §III.F retrieval benefits).
#[derive(Clone, Debug, Default)]
pub struct RunSet {
    runs: Vec<RunFile>,
}

impl RunSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the next run (must be in run order).
    pub fn push(&mut self, run: RunFile) {
        if let Some(last) = self.runs.last() {
            assert!(run.run_id > last.run_id, "runs must be appended in order");
        }
        self.runs.push(run);
    }

    /// Runs held.
    pub fn runs(&self) -> &[RunFile] {
        &self.runs
    }

    /// Full postings list of `handle`: concatenation of its partial lists.
    pub fn fetch(&self, handle: u32) -> PostingsList {
        let mut out = PostingsList::new();
        for r in &self.runs {
            if let Some(part) = r.get(handle) {
                for p in part {
                    out.push(p);
                }
            }
        }
        out
    }

    /// A lazy skip-pointer cursor over the full list of `handle`, chaining
    /// its partial lists across runs (already in global doc order). `None`
    /// when no run contains the handle.
    pub fn cursor(&self, handle: u32) -> Result<Option<SetCursor<'_>>, CodecError> {
        let mut parts = Vec::new();
        let mut df = 0u64;
        for r in &self.runs {
            if let Some(e) = r.entry(handle) {
                df += e.n_postings as u64;
                parts.push((e.doc_max, r.cursor_of(e)?));
            }
        }
        if parts.is_empty() {
            return Ok(None);
        }
        Ok(Some(SetCursor::new(parts, df)))
    }

    /// Postings of `handle` restricted to documents in `[lo, hi]`. Only
    /// partial lists whose doc range overlaps are decoded; returns the
    /// postings and the number of runs actually decoded (so tests and
    /// benches can observe the §III.F narrowing benefit).
    pub fn fetch_range(&self, handle: u32, lo: DocId, hi: DocId) -> (Vec<Posting>, usize) {
        let mut out = Vec::new();
        let mut decoded = 0usize;
        for r in &self.runs {
            if let Some(e) = r.entry(handle) {
                if e.doc_max < lo.0 || e.doc_min > hi.0 {
                    continue;
                }
                decoded += 1;
                if let Some(part) = r.get(handle) {
                    out.extend(part.into_iter().filter(|p| p.doc >= lo && p.doc <= hi));
                }
            }
        }
        (out, decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_names_roundtrip_and_reject_garbage() {
        assert_eq!(run_artifact_name(3, 41), "run_003_00041.iirf");
        assert_eq!(parse_run_artifact_name("run_003_00041.iirf"), Some((3, 41)));
        // Wide ids still parse (padding is a minimum, not a cap).
        assert_eq!(parse_run_artifact_name("run_1234_123456.iirf"), Some((1234, 123456)));
        for bad in [
            "run_000_00001_extra.iirf", // trailing garbage in the id field
            "run_000_00001.iirf.bak",   // trailing garbage after the suffix
            "run_000_.iirf",            // empty run id
            "run__00001.iirf",          // empty indexer id
            "run_00a_00001.iirf",       // non-digit
            "run_000.iirf",             // missing field
            "dictionary.bin",
        ] {
            assert_eq!(parse_run_artifact_name(bad), None, "{bad} must be rejected");
        }
    }

    fn list(docs: &[(u32, u32)]) -> PostingsList {
        docs.iter().map(|&(d, tf)| Posting { doc: DocId(d), tf }).collect()
    }

    fn sample_run(run_id: u32) -> RunFile {
        let base = run_id * 100;
        let l1 = list(&[(base, 2), (base + 5, 1)]);
        let l2 = list(&[(base + 1, 4)]);
        let pairs = [(7u32, l1), (3u32, l2)];
        let mut it = pairs.iter().map(|(h, l)| (*h, l));
        RunFile::build(run_id, 0, &mut it, Codec::VarByte)
    }

    #[test]
    fn build_sorts_entries_and_skips_empty() {
        let l1 = list(&[(1, 1)]);
        let empty = PostingsList::new();
        let pairs = [(9u32, l1), (2u32, empty)];
        let mut it = pairs.iter().map(|(h, l)| (*h, l));
        let run = RunFile::build(0, 0, &mut it, Codec::VarByte);
        assert_eq!(run.entries.len(), 1);
        assert_eq!(run.entries[0].handle, 9);
        assert_eq!(run.format, RunFormat::Blocked);
    }

    #[test]
    fn build_resolves_auto_per_list_and_records_max_tf() {
        let short = list(&[(1, 9), (5, 2)]);
        let medium: PostingsList = (0..500u32).map(|i| Posting { doc: DocId(i * 2), tf: 1 + i % 3 }).collect();
        let long: PostingsList = (0..5000u32).map(|i| Posting { doc: DocId(i * 3), tf: 1 }).collect();
        let pairs = [(1u32, short), (2u32, medium), (3u32, long)];
        let mut it = pairs.iter().map(|(h, l)| (*h, l));
        let run = RunFile::build(0, 0, &mut it, Codec::Auto);
        assert_eq!(run.entry(1).unwrap().codec, Codec::VarByte);
        assert_eq!(run.entry(2).unwrap().codec, Codec::PFor);
        assert_eq!(run.entry(3).unwrap().codec, Codec::Bp128);
        assert_eq!(run.entry(1).unwrap().max_tf, 9);
        assert_eq!(run.entry(2).unwrap().max_tf, 3);
        assert_eq!(run.max_tf(), 9);
        assert_eq!(run.block_count(), 1 + 4 + 40);
        // Every entry decodes back to its source list.
        for (h, l) in pairs.iter() {
            assert_eq!(run.get(*h).unwrap(), l.postings());
        }
    }

    #[test]
    fn get_decodes_partial_list() {
        let run = sample_run(1);
        assert_eq!(
            run.get(7).unwrap(),
            vec![Posting { doc: DocId(100), tf: 2 }, Posting { doc: DocId(105), tf: 1 }]
        );
        assert_eq!(run.get(3).unwrap(), vec![Posting { doc: DocId(101), tf: 4 }]);
        assert_eq!(run.get(99), None);
    }

    #[test]
    fn serialization_roundtrip_blocked() {
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::EliasFano, Codec::Auto] {
            let l = list(&[(0, 1), (9, 3)]);
            let pairs = [(1u32, l)];
            let mut it = pairs.iter().map(|(h, l)| (*h, l));
            let run = RunFile::build(5, 2, &mut it, codec);
            let bytes = run.to_bytes();
            assert_eq!(&bytes[..4], RUN_MAGIC_V2);
            let back = RunFile::from_bytes(&bytes).unwrap();
            assert_eq!(back, run);
        }
    }

    #[test]
    fn serialization_roundtrip_legacy() {
        for codec in [Codec::VarByte, Codec::Gamma, Codec::Golomb(8)] {
            let l = list(&[(0, 1), (9, 3)]);
            let pairs = [(1u32, l.clone())];
            let mut it = pairs.iter().map(|(h, l)| (*h, l));
            let run = RunFile::build_legacy(5, 2, &mut it, codec);
            let bytes = run.to_bytes();
            assert_eq!(&bytes[..4], RUN_MAGIC, "legacy files keep the v1 magic");
            let back = RunFile::from_bytes(&bytes).unwrap();
            assert_eq!(back, run, "format preserved across a round-trip");
            assert_eq!(back.get(1).unwrap(), l.postings());
        }
    }

    #[test]
    fn corrupt_rejected() {
        assert_eq!(RunFile::from_bytes(b"shrt"), Err(RunFileError::Truncated));
        let mut bytes = sample_run(0).to_bytes();
        bytes[0] = b'X';
        assert_eq!(RunFile::from_bytes(&bytes), Err(RunFileError::Malformed));
        let bytes = sample_run(0).to_bytes();
        assert_eq!(
            RunFile::from_bytes(&bytes[..bytes.len() - 1]),
            Err(RunFileError::Truncated)
        );
    }

    #[test]
    fn wrapping_entry_offset_rejected() {
        // Entry 0's offset field sits 4 bytes into the mapping table. With
        // `offset = u64::MAX - len + 1` the unchecked sum wraps to 0 and
        // used to pass the bound, leaving `payload_of` to panic at query
        // time.
        let run = sample_run(0);
        let mut bytes = run.to_bytes();
        let hostile = u64::MAX - u64::from(run.entries[0].len) + 1;
        bytes[HEADER_BYTES + 4..HEADER_BYTES + 12].copy_from_slice(&hostile.to_le_bytes());
        assert_eq!(RunFile::from_bytes(&bytes), Err(RunFileError::Malformed));
        // One byte past the payload is rejected too; the exact end is fine.
        let mut bytes = run.to_bytes();
        let last = run.entries.len() - 1;
        let at = HEADER_BYTES + last * ENTRY_BYTES_V2 + 4;
        let past = run.entries[last].offset + 1;
        bytes[at..at + 8].copy_from_slice(&past.to_le_bytes());
        assert_eq!(RunFile::from_bytes(&bytes), Err(RunFileError::Malformed));
        assert!(RunFile::from_bytes(&run.to_bytes()).is_ok());
    }

    #[test]
    fn runset_concatenates_runs() {
        let mut rs = RunSet::new();
        rs.push(sample_run(0));
        rs.push(sample_run(1));
        rs.push(sample_run(2));
        let full = rs.fetch(7);
        let docs: Vec<u32> = full.postings().iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![0, 5, 100, 105, 200, 205]);
        // Sorted invariant held by construction.
        assert!(docs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn runset_cursor_matches_fetch() {
        let mut rs = RunSet::new();
        for r in 0..3 {
            rs.push(sample_run(r));
        }
        let mut c = rs.cursor(7).unwrap().unwrap();
        assert_eq!(c.df(), 6);
        let mut got = Vec::new();
        while let Some(p) = c.next().unwrap() {
            got.push(p);
        }
        assert_eq!(got, rs.fetch(7).postings());
        // advance_to across run boundaries.
        let mut c = rs.cursor(7).unwrap().unwrap();
        assert_eq!(c.advance_to(199).unwrap().unwrap().doc, DocId(200));
        assert!(rs.cursor(999).unwrap().is_none());
    }

    #[test]
    fn range_fetch_skips_nonoverlapping_runs() {
        let mut rs = RunSet::new();
        for r in 0..5 {
            rs.push(sample_run(r));
        }
        let (hits, decoded) = rs.fetch_range(7, DocId(100), DocId(205));
        assert_eq!(decoded, 2, "only runs 1 and 2 overlap");
        let docs: Vec<u32> = hits.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![100, 105, 200, 205]);
        let (none, decoded) = rs.fetch_range(7, DocId(1000), DocId(2000));
        assert!(none.is_empty());
        assert_eq!(decoded, 0);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_runs_rejected() {
        let mut rs = RunSet::new();
        rs.push(sample_run(1));
        rs.push(sample_run(0));
    }
}
