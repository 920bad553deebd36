//! Run output files (paper §III.F).
//!
//! "A separate output file is created for the postings lists generated
//! during a single run, whose header contains a mapping table indicating
//! the location and length of each postings list." Postings handles stored
//! in the dictionary index into these mapping tables; a term's full list is
//! the concatenation of its partial lists across runs, which is already
//! doc-ordered because runs are.
//!
//! There is one wire layout, `IIR3`: what [`RunBuilder`] (so
//! [`RunFile::build`], the indexers' flush and the merge) produces,
//! [`RunFile::to_bytes`] writes and [`RunFile::from_bytes`] reads. The
//! mapping table is delta-varint coded (rows sorted by handle, offsets
//! implied by the running sum of lengths) and stays so in memory, from the
//! builder to the query ([`RunTable`]); a list's payload slice is the
//! block layout of [`crate::block`] — except that a list of at most
//! [`BLOCK_LEN`] postings is its block body alone: the one skip entry it
//! would carry is implied by its row ([`RunFile::blocks_of`]). A list of
//! one posting goes one step further and is its row alone, `(handle, 1,
//! doc, tf)`: no length, no span, no codec tag and no payload byte
//! ([`RunEntry::sole_posting`]). [`RunSet`] chains the runs of one indexer
//! and remembers which of them hold each handle.

use crate::block::{BlockedList, ListEncoder, ListWriter, SkipEntry, BLOCK_LEN};
use crate::codec::{check_alloc, Codec, CodecError};
use crate::cursor::{ListCursor, SetCursor};
use crate::posting::{Posting, PostingsList};
use crate::table::RunTable;
use ii_corpus::DocId;

/// Magic bytes of a run file.
pub const RUN_MAGIC_V3: &[u8; 4] = b"IIR3";

/// One mapping-table row, decoded: where a partial postings list lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunEntry {
    /// Postings handle (dictionary pointer).
    pub handle: u32,
    /// Payload-relative byte offset.
    pub offset: u64,
    /// Encoded length in bytes (0 for a list of one posting).
    pub len: u32,
    /// Number of postings encoded.
    pub n_postings: u32,
    /// Smallest document ID in the partial list.
    pub doc_min: u32,
    /// Largest document ID in the partial list.
    pub doc_max: u32,
    /// Codec of this list: the run's codec resolved by the list's length.
    pub codec: Codec,
    /// Largest term frequency in the list (block-max metadata).
    pub max_tf: u32,
}

impl RunEntry {
    /// The row that is the list of `posting` alone: no payload byte at
    /// `offset`, and `codec` as a longer row's tag would have named it.
    pub(crate) fn of_posting(handle: u32, offset: u64, posting: Posting, codec: Codec) -> RunEntry {
        RunEntry {
            handle,
            offset,
            len: 0,
            n_postings: 1,
            doc_min: posting.doc.0,
            doc_max: posting.doc.0,
            codec,
            max_tf: posting.tf,
        }
    }

    /// The posting of a one-posting list, which its row holds whole:
    /// `(doc_min, max_tf)`. `None` for a longer list.
    pub fn sole_posting(&self) -> Option<Posting> {
        (self.n_postings == 1).then_some(Posting { doc: DocId(self.doc_min), tf: self.max_tf })
    }
}

/// `IIR3` header: magic, run id, indexer id, codec tag, eight reserved
/// bytes (zero), row count, then the table's byte length before the payload
/// length, so the payload is addressable without walking the table.
pub(crate) const HEADER_BYTES_V3: usize = 41;
/// Fewest bytes an `IIR3` row can take (the four one-byte varints of a
/// one-posting row): bounds the row count a table of a given length can hold.
const MIN_ROW_BYTES_V3: usize = 4;

/// A run file: header + mapping table + payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFile {
    /// Which run produced this file.
    pub run_id: u32,
    /// Which indexer produced this file.
    pub indexer_id: u32,
    /// Mapping table, sorted by handle: the header and rows as they are on
    /// disk, decoded a row at a time.
    pub entries: RunTable,
    /// Concatenated encoded postings.
    pub payload: Vec<u8>,
    /// The codec the run was built with (possibly [`Codec::Auto`]; the
    /// per-list resolution lives in each entry).
    pub codec: Codec,
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

/// The byte that names `c` in a header or a row. Tags 1, 2 and 5 named
/// codecs the index no longer has; they stay unassigned.
pub(crate) fn codec_tag(c: Codec) -> u8 {
    match c {
        Codec::VarByte => 0,
        Codec::Bp128 => 3,
        Codec::PFor => 4,
        Codec::Auto => 6,
    }
}

/// The codec a tag names; `None` for any byte [`codec_tag`] does not write.
pub(crate) fn codec_from_tag(tag: u8) -> Option<Codec> {
    match tag {
        0 => Some(Codec::VarByte),
        3 => Some(Codec::Bp128),
        4 => Some(Codec::PFor),
        6 => Some(Codec::Auto),
        _ => None,
    }
}

impl RunFile {
    /// Build a block-layout run file from `(handle, list)` pairs. Empty
    /// lists are skipped; entries are stored sorted by handle; each list's
    /// codec is `codec` resolved by its length ([`Codec::Auto`] applies the
    /// measured length-class policy).
    pub fn build(
        run_id: u32,
        indexer_id: u32,
        lists: &mut dyn Iterator<Item = (u32, &PostingsList)>,
        codec: Codec,
    ) -> RunFile {
        let mut pairs: Vec<(u32, &PostingsList)> =
            lists.filter(|(_, l)| !l.is_empty()).collect();
        pairs.sort_unstable_by_key(|(h, _)| *h);
        let mut run = RunBuilder::new(run_id, indexer_id, codec, pairs.len());
        for (handle, list) in pairs {
            run.push_list(handle, list.postings());
        }
        run.finish()
    }

    /// Document range covered by the whole run, if any list is present.
    pub fn doc_range(&self) -> Option<(u32, u32)> {
        self.entries.doc_range()
    }

    /// Largest term frequency across every list in the run (0 when empty).
    pub fn max_tf(&self) -> u32 {
        self.entries.max_tf()
    }

    /// Total 128-doc blocks across every list.
    pub fn block_count(&self) -> u64 {
        self.entries.blocks()
    }

    /// Look up the mapping-table row of `handle`, decoding at most one group
    /// of the table's rows.
    pub fn entry(&self, handle: u32) -> Option<RunEntry> {
        self.entries.entry(handle)
    }

    /// The encoded bytes of one mapping-table row.
    pub fn payload_of(&self, e: &RunEntry) -> &[u8] {
        &self.payload[e.offset as usize..(e.offset + e.len as u64) as usize]
    }

    /// The block structure of one row — the only place
    /// that knows whether a list's skip table is in its payload slice or
    /// implied by the row. A list of at most [`BLOCK_LEN`] postings is its
    /// block body alone and its skip entry is
    /// `(first_doc: doc_min, offset: 0, max_tf)`; a list of one posting has
    /// no body either, that entry being the posting; a longer list carries
    /// its skip table in front ([`RunBuilder`] writes all three).
    pub fn blocks_of(&self, e: &RunEntry) -> Result<BlockedList<'_>, CodecError> {
        if e.n_postings == 1 {
            return Ok(BlockedList::one_posting(implied_skip(e)));
        }
        let buf = self.payload_of(e);
        let n = e.n_postings as usize;
        check_alloc(buf, n)?;
        if (1..=BLOCK_LEN).contains(&n) {
            Ok(BlockedList::single_block(buf, n, implied_skip(e)))
        } else {
            BlockedList::parse(buf, n)
        }
    }

    /// Decode the partial postings list behind one mapping-table row.
    pub fn decode_entry(&self, e: &RunEntry) -> Result<Vec<Posting>, CodecError> {
        self.blocks_of(e)?.decode(e.codec)
    }

    /// A skip-capable cursor over one mapping-table row: blocks decode
    /// lazily, one at a time, via the skip entries.
    pub fn cursor_of(&self, e: &RunEntry) -> Result<ListCursor<'_>, CodecError> {
        Ok(ListCursor::over(self.blocks_of(e)?, e.codec))
    }

    /// Decode the partial postings list of `handle` in this run. `None`
    /// when the handle is absent or its bytes are corrupt.
    pub fn get(&self, handle: u32) -> Option<Vec<Posting>> {
        self.decode_entry(&self.entry(handle)?).ok()
    }

    /// Serialize to bytes (what goes to disk): the header, the table's rows
    /// as they are held, the payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let rows = self.entries.rows_bytes();
        let mut out = Vec::with_capacity(HEADER_BYTES_V3 + rows.len() + self.payload.len());
        out.extend_from_slice(&self.header());
        out.extend_from_slice(rows);
        out.extend_from_slice(&self.payload);
        out
    }

    /// The `IIR3` header of this run: magic, ids, codec, the reserved bytes
    /// 13..21 left zero, then the row count and the table's byte length
    /// before the payload's, so the payload is addressable without walking
    /// the table.
    fn header(&self) -> [u8; HEADER_BYTES_V3] {
        let rows = u32::try_from(self.entries.len()).expect("a run's rows fit the header's u32");
        let mut h = [0u8; HEADER_BYTES_V3];
        h[..4].copy_from_slice(RUN_MAGIC_V3);
        h[4..8].copy_from_slice(&self.run_id.to_le_bytes());
        h[8..12].copy_from_slice(&self.indexer_id.to_le_bytes());
        h[12] = codec_tag(self.codec);
        h[21..25].copy_from_slice(&rows.to_le_bytes());
        h[25..33].copy_from_slice(&(self.entries.rows_bytes().len() as u64).to_le_bytes());
        h[33..41].copy_from_slice(&(self.payload.len() as u64).to_le_bytes());
        h
    }

    /// Deserialize a run file. Bytes that do not begin with the `IIR3`
    /// magic are [`RunFileError::Malformed`]. The table is checked row by
    /// row, once ([`RunTable`]), and kept as the bytes it is.
    pub fn from_bytes(buf: &[u8]) -> Result<RunFile, RunFileError> {
        let head = Header::parse(buf)?;
        let (table, payload) = buf.split_at(head.table_end);
        head.read(table.to_vec(), payload.to_vec(), |_| {})
    }

    /// [`Self::from_bytes`] of a buffer it may keep, handing `mark` the
    /// handle of every row as the one walk over the table reaches it. The
    /// table stays where it was read (on tail-heavy text it is most of a
    /// run); the payload is moved out.
    pub(crate) fn from_vec(
        mut buf: Vec<u8>,
        mark: impl FnMut(u32),
    ) -> Result<RunFile, RunFileError> {
        let head = Header::parse(&buf)?;
        let payload = buf.split_off(head.table_end);
        buf.shrink_to_fit();
        head.read(buf, payload, mark)
    }
}

/// What a run file's header says, checked against the length of the file.
struct Header {
    run_id: u32,
    indexer_id: u32,
    codec: Codec,
    rows: usize,
    /// Where the table ends and the payload starts.
    table_end: usize,
}

impl Header {
    fn parse(buf: &[u8]) -> Result<Header, RunFileError> {
        if buf.len() < HEADER_BYTES_V3 {
            return Err(RunFileError::Truncated);
        }
        if &buf[..4] != RUN_MAGIC_V3 {
            return Err(RunFileError::Malformed);
        }
        let rd32 = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("a header word"));
        let rd64 = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().expect("a header word"));
        // The index reads what it writes: a tag it does not write, or a
        // reserved byte that is not zero, is no run of its.
        let codec =
            codec_from_tag(buf[12]).filter(|_| rd64(13) == 0).ok_or(RunFileError::Malformed)?;
        let (rows, table_len, payload_len) = (rd32(21) as usize, rd64(25), rd64(33));
        let body = (buf.len() - HEADER_BYTES_V3) as u64;
        match table_len.checked_add(payload_len) {
            Some(need) if need == body => {}
            Some(need) if need > body => return Err(RunFileError::Truncated),
            _ => return Err(RunFileError::Malformed),
        }
        // A hostile row count must not size the sample: `rows` rows take at
        // least `MIN_ROW_BYTES_V3 * rows` table bytes.
        if rows.checked_mul(MIN_ROW_BYTES_V3).is_none_or(|min| min as u64 > table_len) {
            return Err(RunFileError::Malformed);
        }
        Ok(Header {
            run_id: rd32(4),
            indexer_id: rd32(8),
            codec,
            rows,
            table_end: HEADER_BYTES_V3 + table_len as usize,
        })
    }

    /// The run of `table` (this header and its rows) and `payload`.
    fn read(
        self,
        table: Vec<u8>,
        payload: Vec<u8>,
        mark: impl FnMut(u32),
    ) -> Result<RunFile, RunFileError> {
        let (entries, paid) = RunTable::read(table, self.rows, self.codec, mark)?;
        if paid != payload.len() as u64 {
            return Err(RunFileError::Malformed);
        }
        let Header { run_id, indexer_id, codec, .. } = self;
        Ok(RunFile { run_id, indexer_id, entries, payload, codec })
    }
}

/// Writer of a run file: lists arrive in ascending handle order, each row
/// is appended to the table as the bytes it will be committed as, and each
/// list is encoded straight into the payload through one [`ListEncoder`] —
/// the writing half of [`RunFile::blocks_of`]. A list of at most
/// [`BLOCK_LEN`] postings is its block body alone, because its one skip
/// entry is `(doc_min, 0, max_tf)` and the row says so; a list of one
/// posting is that row and nothing else; a longer list has its skip table
/// in front.
#[derive(Debug)]
pub struct RunBuilder {
    run: RunFile,
    enc: ListEncoder,
}

impl RunBuilder {
    /// An empty run with room for `lists` rows.
    pub fn new(run_id: u32, indexer_id: u32, codec: Codec, lists: usize) -> RunBuilder {
        RunBuilder {
            run: RunFile {
                run_id,
                indexer_id,
                entries: RunTable::with_capacity(codec, lists),
                payload: Vec::new(),
                codec,
            },
            enc: ListEncoder::new(),
        }
    }

    /// Append the non-empty, doc-ordered list of `handle`, in the run's
    /// codec resolved by the list's length.
    pub fn push_list(&mut self, handle: u32, postings: &[Posting]) {
        if let [only] = postings {
            return self.push_posting(handle, *only);
        }
        let first = postings.first().expect("a run holds no empty list");
        let last = postings.last().expect("a run holds no empty list");
        let codec = self.run.codec.resolve(postings.len());
        self.push_list_with(handle, codec, postings.len(), (first.doc.0, last.doc.0), |list| {
            list.extend(postings)
        });
    }

    /// Append the list that is `posting` alone: a row, no payload byte and
    /// no work for the block encoder.
    pub(crate) fn push_posting(&mut self, handle: u32, posting: Posting) {
        assert!(posting.tf >= 1, "postings carry at least one occurrence");
        let (offset, codec) = (self.run.payload.len() as u64, self.run.codec.resolve(1));
        self.run.entries.push(&RunEntry::of_posting(handle, offset, posting, codec));
    }

    /// Append a list of `n >= 2` postings spanning `doc_min..=doc_max` in
    /// the concrete `codec`; `fill` pushes exactly those postings.
    pub(crate) fn push_list_with(
        &mut self,
        handle: u32,
        codec: Codec,
        n: usize,
        (doc_min, doc_max): (u32, u32),
        fill: impl FnOnce(&mut ListWriter<'_>),
    ) {
        assert!(n >= 2, "a list of one posting is its row");
        let offset = self.run.payload.len();
        let mut list = self.enc.begin(&mut self.run.payload, codec, n, n > BLOCK_LEN);
        fill(&mut list);
        let max_tf = list.finish();
        self.run.entries.push(&RunEntry {
            handle,
            offset: offset as u64,
            len: (self.run.payload.len() - offset) as u32,
            n_postings: n as u32,
            doc_min,
            doc_max,
            codec,
            max_tf,
        });
    }

    /// The run file written so far, its header in front of its table.
    pub fn finish(mut self) -> RunFile {
        let header = self.run.header();
        self.run.entries.set_header(header);
        self.run
    }
}

/// The skip entry of a list that fits one block, as its row implies it.
fn implied_skip(e: &RunEntry) -> SkipEntry {
    SkipEntry { first_doc: e.doc_min, offset: 0, max_tf: e.max_tf }
}

/// All the run files one indexer produced, in run order; answers full-list
/// and range-narrowed lookups (the two §III.F retrieval benefits).
#[derive(Clone, Debug, Default)]
pub struct RunSet {
    runs: Vec<RunFile>,
    /// Per handle, bit `position % 64` set for every run (by position in
    /// `runs`) whose table has the handle — where a look-up searches
    /// instead of every run's table. `None` until
    /// [`Self::track_holders`]; a handle past its end is not tracked.
    holders: Option<Vec<u64>>,
}

fn mark_holders(holders: &mut [u64], position: usize, run: &RunFile) {
    for e in &run.entries {
        // Rows ascend by handle: the first one out of range ends the run.
        let Some(slot) = holders.get_mut(e.handle as usize) else { break };
        *slot |= 1 << (position % 64);
    }
}

impl RunSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the next run. One whose run does not come after the last
    /// one is refused ([`RunFileError::Malformed`], as [`Self::push_bytes`]
    /// refuses it) and not appended.
    pub fn push(&mut self, run: RunFile) -> Result<(), RunFileError> {
        if self.runs.last().is_some_and(|last| run.run_id <= last.run_id) {
            return Err(RunFileError::Malformed);
        }
        if let Some(holders) = &mut self.holders {
            mark_holders(holders, self.runs.len(), &run);
        }
        self.runs.push(run);
        Ok(())
    }

    /// Read the run file `bytes` and append it: the one walk that checks its
    /// table also marks which handles it holds, when the set tracks them. A
    /// file that does not parse, or whose run does not come after the last
    /// one ([`RunFileError::Malformed`]), is refused and not appended; marks
    /// the walk already made stay, and only widen where a look-up searches.
    pub fn push_bytes(&mut self, bytes: Vec<u8>) -> Result<&RunFile, RunFileError> {
        let bit = 1u64 << (self.runs.len() % 64);
        let mut holders = self.holders.as_deref_mut();
        let run = RunFile::from_vec(bytes, |handle| {
            if let Some(slot) = holders.as_mut().and_then(|h| h.get_mut(handle as usize)) {
                *slot |= bit;
            }
        })?;
        if self.runs.last().is_some_and(|last| run.run_id <= last.run_id) {
            return Err(RunFileError::Malformed);
        }
        self.runs.push(run);
        Ok(self.runs.last().expect("a run was just pushed"))
    }

    /// Remember, for every handle below `n_handles`, which runs hold it —
    /// the runs already here and those pushed from now on — so that
    /// [`Self::cursor`] and the fetches search only those runs' tables.
    /// Costs 8 bytes per handle; the caller bounds `n_handles` (the index
    /// passes its dictionary's term count). Results never change: an
    /// untracked handle is searched for in every run.
    pub fn track_holders(&mut self, n_handles: usize) {
        let mut holders = vec![0u64; n_handles];
        for (position, run) in self.runs.iter().enumerate() {
            mark_holders(&mut holders, position, run);
        }
        self.holders = Some(holders);
    }

    /// Whether [`Self::track_holders`] was called.
    pub fn tracks_holders(&self) -> bool {
        self.holders.is_some()
    }

    /// The runs to search for `handle`, as a mask over `position % 64`.
    fn holders_of(&self, handle: u32) -> u64 {
        let tracked = self.holders.as_ref().and_then(|h| h.get(handle as usize));
        tracked.copied().unwrap_or(u64::MAX)
    }

    fn parts_of(&self, handle: u32, keep: impl Fn(&RunEntry) -> bool) -> Option<SetCursor<'_>> {
        SetCursor::over_parts(&self.runs, self.holders_of(handle), handle, keep)
    }

    /// Runs held.
    pub fn runs(&self) -> &[RunFile] {
        &self.runs
    }

    /// Full postings list of `handle`: concatenation of its partial lists
    /// (empty when no run holds the handle). A part that does not decode is
    /// the error, never a list silently missing that run's postings.
    pub fn fetch(&self, handle: u32) -> Result<PostingsList, CodecError> {
        let mut out = PostingsList::new();
        if let Some(mut c) = self.parts_of(handle, |_| true) {
            while let Some(p) = c.next()? {
                // `PostingsList::push` asserts document order; corrupt
                // bytes must be an error, not a panic.
                if out.doc_range().is_some_and(|(_, last)| p.doc <= last) {
                    return Err(CodecError::NonMonotone);
                }
                out.push(p);
            }
        }
        Ok(out)
    }

    /// A lazy skip-pointer cursor over the full list of `handle`, chaining
    /// its partial lists across runs (already in global doc order). `None`
    /// when no run contains the handle. Always `Ok` now that parts open
    /// lazily (a corrupt list surfaces from the cursor when reached); the
    /// `Result` stays for the callers written against the eager cursor.
    pub fn cursor(&self, handle: u32) -> Result<Option<SetCursor<'_>>, CodecError> {
        Ok(self.parts_of(handle, |_| true))
    }

    /// Postings of `handle` restricted to documents in `[lo, hi]`. Only
    /// partial lists whose doc range overlaps are decoded; returns the
    /// postings and the number of runs actually decoded (so tests and
    /// benches can observe the §III.F narrowing benefit). A part that does
    /// not decode is the error, as in [`Self::fetch`].
    pub fn fetch_range(
        &self,
        handle: u32,
        lo: DocId,
        hi: DocId,
    ) -> Result<(Vec<Posting>, usize), CodecError> {
        let overlaps = |e: &RunEntry| e.doc_max >= lo.0 && e.doc_min <= hi.0;
        let mut out = Vec::new();
        let Some(mut c) = self.parts_of(handle, overlaps) else {
            return Ok((out, 0));
        };
        let mut next = c.advance_to(lo.0)?;
        while let Some(p) = next.filter(|p| p.doc <= hi) {
            out.push(p);
            next = c.next()?;
        }
        Ok((out, c.parts()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varbyte;

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
        assert_eq!(run.entries.last().unwrap().handle, 9);
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
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto] {
            let l = list(&[(0, 1), (9, 3)]);
            let pairs = [(1u32, l)];
            let mut it = pairs.iter().map(|(h, l)| (*h, l));
            let run = RunFile::build(5, 2, &mut it, codec);
            let bytes = run.to_bytes();
            assert_eq!(&bytes[..4], RUN_MAGIC_V3);
            let back = RunFile::from_bytes(&bytes).unwrap();
            assert_eq!(back, run);
        }
        // Lists past one block keep their skip table.
        let long: PostingsList =
            (0..300u32).map(|i| Posting { doc: DocId(i * 7), tf: 1 + i % 3 }).collect();
        let pairs = [(4u32, list(&[(3, 1)])), (u32::MAX, long)];
        let mut it = pairs.iter().map(|(h, l)| (*h, l));
        let run = RunFile::build(1, 0, &mut it, Codec::PFor);
        assert_eq!(RunFile::from_bytes(&run.to_bytes()).unwrap(), run);
        assert_eq!(run.get(u32::MAX).unwrap(), pairs[1].1.postings());
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
        // A retired codec tag, or a reserved header byte that is not zero.
        assert!(bytes[13..21].iter().all(|&b| b == 0), "reserved bytes are written as zero");
        for (at, value) in [(12, 1), (12, 2), (12, 5), (13, 1), (20, 0x80)] {
            let mut hostile = bytes.clone();
            hostile[at] = value;
            assert_eq!(RunFile::from_bytes(&hostile), Err(RunFileError::Malformed), "byte {at}");
        }
    }

    /// An `IIR3` file from a hand-written table: header fields of
    /// `sample_run(0)`, `rows` as the table, `payload_len` zero bytes.
    fn v3_with_table(n: u32, rows: &[u8], payload_len: usize) -> Vec<u8> {
        let mut out = sample_run(0).to_bytes()[..21].to_vec();
        out.extend_from_slice(&n.to_le_bytes());
        out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
        out.extend_from_slice(&(payload_len as u64).to_le_bytes());
        out.extend_from_slice(rows);
        out.resize(out.len() + payload_len, 0x80);
        out
    }

    /// One `IIR3` row of a list of two or more postings.
    fn v3_row(fields: [u32; 6], tag: u8) -> Vec<u8> {
        let mut row = varbyte::encode_all(&fields);
        row.push(tag);
        row
    }

    /// The `IIR3` row of a one-posting list: `[handle delta, 1, doc, tf]`.
    fn v3_single(handle_delta: u32, doc: u32, tf: u32) -> Vec<u8> {
        varbyte::encode_all(&[handle_delta, 1, doc, tf])
    }

    #[test]
    fn compact_table_rejects_every_malformed_row() {
        // [handle delta, n_postings, len, doc_min, doc_max - doc_min, max_tf]
        let ok = v3_row([5, 2, 2, 9, 1, 1], 0);
        let run = RunFile::from_bytes(&v3_with_table(1, &ok, 2)).unwrap();
        assert_eq!(run.entry(5).unwrap().handle, 5);
        let malformed = |n: u32, rows: &[u8], payload_len: usize| {
            assert_eq!(
                RunFile::from_bytes(&v3_with_table(n, rows, payload_len)),
                Err(RunFileError::Malformed),
                "{rows:?}"
            );
        };
        // The running handle overflows u32 (u32::MAX, then anything).
        let two = [v3_row([u32::MAX, 2, 1, 0, 1, 1], 0), v3_row([0, 2, 1, 2, 1, 1], 0)].concat();
        malformed(2, &two, 2);
        malformed(2, &[v3_single(u32::MAX, 0, 1), v3_single(0, 1, 1)].concat(), 0);
        malformed(1, &v3_row([5, 0, 1, 9, 0, 1], 0), 1); // no postings
        malformed(1, &v3_row([5, 2, 1, u32::MAX, 1, 1], 0), 1); // doc_max overflows
        for tag in [1, 2, 5, 7] {
            // γ, Golomb and Elias-Fano, which the index no longer writes,
            // and a tag it never wrote.
            malformed(1, &v3_row([5, 2, 1, 9, 1, 1], tag), 1);
        }
        malformed(1, &v3_row([5, 2, 1, 9, 1, 1], 6), 1); // Codec::Auto in a row
        malformed(1, &v3_row([5, 2, 3, 9, 1, 1], 0), 2); // lengths sum past the payload
        malformed(1, &v3_row([5, 2, 2, 9, 1, 1], 0), 3); // ... and short of it
        malformed(1, &[ok.clone(), vec![0x80]].concat(), 2); // table bytes left over
        malformed(1 << 30, &ok, 2); // more rows than the table could hold
        // Bytes after the payload.
        let mut trailing = v3_with_table(1, &ok, 2);
        trailing.push(0);
        assert_eq!(RunFile::from_bytes(&trailing), Err(RunFileError::Malformed));
        // A table that ends inside a row.
        let cut_varint = &v3_row([300, 2, 1, 9, 1, 1], 0)[..7];
        let cut_single = &v3_single(300, 9, 1)[..4];
        for rows in [cut_varint, cut_single] {
            assert_eq!(
                RunFile::from_bytes(&v3_with_table(1, rows, 1)),
                Err(RunFileError::Truncated)
            );
        }
        // Two rows of the largest lengths: the running offset stays a u64.
        let big = [v3_row([0, 2, u32::MAX, 0, 1, 1], 0), v3_row([0, 2, u32::MAX, 2, 1, 1], 0)]
            .concat();
        malformed(2, &big, 2);
    }

    #[test]
    fn one_posting_rows_are_the_list_and_own_no_payload() {
        let run = RunFile::from_bytes(&v3_with_table(1, &v3_single(5, 9, 3), 0)).unwrap();
        let e = run.entries.last().unwrap();
        assert_eq!((e.handle, e.offset, e.len, e.doc_min, e.doc_max, e.max_tf), (5, 0, 0, 9, 9, 3));
        assert_eq!(e.codec, run.codec.resolve(1));
        let p = Posting { doc: DocId(9), tf: 3 };
        assert_eq!(e.sole_posting(), Some(p));
        assert_eq!(run.get(5).unwrap(), vec![p]);
        let mut c = run.cursor_of(&e).unwrap();
        assert_eq!((c.next().unwrap(), c.next().unwrap()), (Some(p), None));
        assert_eq!((c.blocks_decoded(), c.blocks_total()), (1, 1), "counted as a block");
        // tf 0 is no posting; a payload byte nobody owns is no run.
        for (row, payload_len) in [(v3_single(5, 9, 0), 0), (v3_single(5, 9, 3), 1)] {
            assert_eq!(
                RunFile::from_bytes(&v3_with_table(1, &row, payload_len)),
                Err(RunFileError::Malformed)
            );
        }
        // Between two longer lists the one-posting row moves no offset: the
        // list after it starts where the one before it ended.
        let rows = [v3_row([0, 2, 2, 1, 1, 1], 0), v3_single(0, 7, 2), v3_row([3, 2, 3, 8, 4, 1], 0)];
        let run = RunFile::from_bytes(&v3_with_table(3, &rows.concat(), 5)).unwrap();
        let at: Vec<(u32, u64, u32)> = run.entries.iter().map(|e| (e.handle, e.offset, e.len)).collect();
        assert_eq!(at, [(0, 0, 2), (1, 2, 0), (5, 2, 3)]);
        assert_eq!(RunFile::from_bytes(&run.to_bytes()).unwrap(), run);
    }

    #[test]
    fn one_posting_lists_cost_their_row_and_no_payload_byte() {
        // The layout's reason to exist, pinned where `cargo test` sees it:
        // 10 000 one-posting lists (78 % of the rows a tail-heavy
        // collection writes) take at most 7 table bytes each — handle
        // delta, count, a three-byte document, tf — and no payload at all.
        let lists: Vec<(u32, PostingsList)> =
            (0..10_000u32).map(|i| (i * 3, list(&[(i * 17, 1 + i % 4)]))).collect();
        let mut it = lists.iter().map(|(h, l)| (*h, l));
        let run = RunFile::build(0, 0, &mut it, Codec::Auto);
        let bytes = run.to_bytes();
        assert!(run.payload.is_empty());
        let table = bytes.len() - HEADER_BYTES_V3;
        assert!(table <= 7 * lists.len(), "{table} table bytes for {} rows", lists.len());
        assert_eq!(RunFile::from_bytes(&bytes).unwrap(), run);
        assert_eq!(run.block_count(), lists.len() as u64, "each still counts as a block");
        for (h, l) in &lists {
            assert_eq!(run.get(*h).unwrap(), l.postings());
        }
    }

    #[test]
    fn roundtrip_of_mixed_list_lengths_under_every_codec() {
        let of = |n: u32, first: u32| -> PostingsList {
            (0..n).map(|i| Posting { doc: DocId(first + i * 3), tf: 1 + i % 5 }).collect()
        };
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto] {
            let lists =
                [(0u32, of(1, 4)), (1, of(128, 0)), (2, of(1, u32::MAX)), (9, of(300, 7)), (10, of(2, 1))];
            let run = RunFile::build(3, 1, &mut lists.iter().map(|(h, l)| (*h, l)), codec);
            assert_eq!(RunFile::from_bytes(&run.to_bytes()).unwrap(), run, "{codec:?}");
            for (h, l) in &lists {
                assert_eq!(run.get(*h).unwrap(), l.postings(), "{codec:?} handle {h}");
            }
        }
    }

    #[test]
    fn runset_concatenates_runs() {
        let mut rs = RunSet::new();
        rs.push(sample_run(0)).unwrap();
        rs.push(sample_run(1)).unwrap();
        rs.push(sample_run(2)).unwrap();
        let full = rs.fetch(7).unwrap();
        let docs: Vec<u32> = full.postings().iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![0, 5, 100, 105, 200, 205]);
        // Sorted invariant held by construction.
        assert!(docs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn runset_cursor_matches_fetch() {
        let mut rs = RunSet::new();
        for r in 0..3 {
            rs.push(sample_run(r)).unwrap();
        }
        let mut c = rs.cursor(7).unwrap().unwrap();
        assert_eq!(c.df(), 6);
        let mut got = Vec::new();
        while let Some(p) = c.next().unwrap() {
            got.push(p);
        }
        assert_eq!(got, rs.fetch(7).unwrap().postings());
        // advance_to across run boundaries.
        let mut c = rs.cursor(7).unwrap().unwrap();
        assert_eq!(c.advance_to(199).unwrap().unwrap().doc, DocId(200));
        assert!(rs.cursor(999).unwrap().is_none());
    }

    #[test]
    fn range_fetch_skips_nonoverlapping_runs() {
        let mut rs = RunSet::new();
        for r in 0..5 {
            rs.push(sample_run(r)).unwrap();
        }
        let (hits, decoded) = rs.fetch_range(7, DocId(100), DocId(205)).unwrap();
        assert_eq!(decoded, 2, "only runs 1 and 2 overlap");
        let docs: Vec<u32> = hits.iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![100, 105, 200, 205]);
        let (none, decoded) = rs.fetch_range(7, DocId(1000), DocId(2000)).unwrap();
        assert!(none.is_empty());
        assert_eq!(decoded, 0);
    }

    /// What a cursor over `handle` reports and streams.
    fn walked(set: &RunSet, handle: u32) -> Option<(u64, usize, usize, Vec<Posting>, u32)> {
        let mut c = set.cursor(handle).unwrap()?;
        let mut got = Vec::new();
        while let Some(p) = c.next().unwrap() {
            got.push(p);
        }
        Some((c.df(), c.parts(), c.blocks_total(), got, c.blocks_decoded()))
    }

    #[test]
    fn tracked_holders_change_where_a_lookup_searches_not_what_it_finds() {
        // 70 runs, so positions 0..6 share their bit with 64..70. Handle
        // `r % 5` gets one posting in run r, handle 9 a longer list in
        // every seventh, handle 40 lives in run 66 alone, handle 41 nowhere.
        let mut plain = RunSet::new();
        for r in 0..70u32 {
            let mut lists = vec![(r % 5, list(&[(r * 10, 1 + r % 3)]))];
            if r % 7 == 0 {
                lists.push((9, list(&[(r * 10 + 1, 2), (r * 10 + 2, 1), (r * 10 + 5, 4)])));
            }
            if r == 66 {
                lists.push((40, list(&[(r * 10 + 3, 1)])));
            }
            plain.push(RunFile::build(r, 0, &mut lists.iter().map(|(h, l)| (*h, l)), Codec::Auto)).unwrap();
        }
        let mut tracked = plain.clone();
        tracked.track_holders(41);
        // Runs pushed after tracking began are marked as they arrive, and a
        // handle the column was not sized for is searched for everywhere.
        for set in [&mut plain, &mut tracked] {
            let lists = [(3u32, list(&[(900, 1)])), (77, list(&[(901, 5)]))];
            set.push(RunFile::build(70, 0, &mut lists.iter().map(|(h, l)| (*h, l)), Codec::Auto)).unwrap();
        }
        for handle in [0, 1, 2, 3, 4, 9, 40, 41, 77, 78, u32::MAX] {
            assert_eq!(walked(&tracked, handle), walked(&plain, handle), "handle {handle}");
            assert_eq!(tracked.fetch(handle).unwrap(), plain.fetch(handle).unwrap());
            let (lo, hi) = (DocId(100), DocId(665));
            assert_eq!(
                tracked.fetch_range(handle, lo, hi).unwrap(),
                plain.fetch_range(handle, lo, hi).unwrap(),
                "handle {handle} in range"
            );
        }
        assert_eq!(walked(&tracked, 40).unwrap().1, 1);
        assert_eq!(walked(&tracked, 3).unwrap().1, 15);
        assert!(walked(&tracked, 41).is_none() && walked(&tracked, 78).is_none());
    }

    #[test]
    fn a_one_run_set_answers_alike_with_and_without_holders() {
        // Handles 0..40 with lists of one to three blocks' worth, some
        // handles missing; pushed as bytes, the way an index is opened.
        let lists: Vec<(u32, PostingsList)> = (0..40u32)
            .filter(|h| h % 3 != 1)
            .map(|h| (h, (0..1 + h * 9).map(|d| Posting { doc: DocId(d * 3 + h), tf: 1 + d % 4 }).collect()))
            .collect();
        let run = RunFile::build(0, 0, &mut lists.iter().map(|(h, l)| (*h, l)), Codec::Auto);
        let mut plain = RunSet::new();
        plain.push_bytes(run.to_bytes()).unwrap();
        let mut tracked = RunSet::new();
        tracked.track_holders(40);
        tracked.push_bytes(run.to_bytes()).unwrap();
        assert!(tracked.tracks_holders() && !plain.tracks_holders());
        for handle in (0..45).chain([u32::MAX]) {
            assert_eq!(walked(&tracked, handle), walked(&plain, handle), "handle {handle}");
            assert_eq!(tracked.fetch(handle).unwrap(), plain.fetch(handle).unwrap(), "handle {handle}");
            let (lo, hi) = (DocId(20), DocId(200));
            assert_eq!(
                tracked.fetch_range(handle, lo, hi).unwrap(),
                plain.fetch_range(handle, lo, hi).unwrap(),
                "handle {handle} in range"
            );
        }
        assert!(walked(&plain, 1).is_none() && walked(&plain, 40).is_none());
        assert_eq!(walked(&plain, 39).unwrap().1, 1);
    }

    #[test]
    fn out_of_order_runs_rejected() {
        let mut rs = RunSet::new();
        rs.push(sample_run(1)).unwrap();
        assert!(matches!(rs.push(sample_run(0)), Err(RunFileError::Malformed)));
        assert!(matches!(rs.push(sample_run(1)), Err(RunFileError::Malformed)), "a repeat too");
        assert_eq!(rs.runs().len(), 1, "a refused run is not appended");
    }
}
