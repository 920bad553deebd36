//! A run file's mapping table, held as its `IIR3` bytes (paper §III.F).
//!
//! "A separate output file is created for the postings lists generated
//! during a single run, whose header contains a mapping table": a
//! [`RunTable`] is exactly those bytes — the file's header and its
//! delta-varint rows, the payload cut off — plus two things counted once,
//! when the rows are written or read:
//!
//! * a sample of every [`SAMPLE_EVERY`]-th row: the handle its delta counts
//!   from, where it starts in the bytes and where its list starts in the
//!   payload. A look-up binary-searches the sample, then decodes one group
//!   of at most `SAMPLE_EVERY` rows: a fixed-width head over variable-width
//!   bytes;
//! * a summary of the whole table — rows, blocks, largest term frequency,
//!   document range — which the run's accessors and the manifest's
//!   postings record read without a walk.
//!
//! Nothing else about a row is kept: [`RunEntry`] is the decoded value of
//! one row, made when asked for. This module is the only one that knows
//! how a row is encoded: [`RunTable::push`] writes one (for `RunBuilder`)
//! and [`RunTable::read`] checks a whole table in one walk (for
//! `RunFile::from_bytes`), which is why a look-up may treat the bytes as
//! sound.

use crate::block;
use crate::codec::Codec;
use crate::posting::Posting;
use crate::run::{codec_from_tag, codec_tag, RunEntry, RunFileError, HEADER_BYTES_V3};
use crate::varbyte;
use ii_corpus::DocId;

/// Rows per sample point: a look-up decodes at most this many rows. Chosen
/// by measurement on the ledger (EXPERIMENTS.md "Open without
/// materialising"): every 32nd row opened `query-tail` 5 % faster but
/// answered its queries 3 % slower; every 8th set head cursors up faster but
/// answered head queries no faster end to end, and opened no faster.
pub const SAMPLE_EVERY: usize = 16;

/// Where row `i * SAMPLE_EVERY` of a table is: enough to decode the rows
/// from it on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Sample {
    /// What the row's handle delta counts from: one past the handle of the
    /// row before it. Every handle of an earlier group is below it, so the
    /// group of a handle is the last whose `from` does not pass it.
    from: u32,
    /// Byte offset of the row in the table's bytes.
    at: usize,
    /// Payload offset of the row's list.
    offset: u64,
}

/// What a table holds, counted once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Summary {
    rows: usize,
    blocks: u64,
    max_tf: u32,
    /// Smallest and largest document of the lists; `(u32::MAX, 0)` until a
    /// row is counted.
    doc_min: u32,
    doc_max: u32,
}

impl Summary {
    const EMPTY: Summary = Summary { rows: 0, blocks: 0, max_tf: 0, doc_min: u32::MAX, doc_max: 0 };

    fn count(&mut self, row: &RunEntry) {
        self.rows += 1;
        self.blocks += block::n_blocks(row.n_postings as usize) as u64;
        self.max_tf = self.max_tf.max(row.max_tf);
        self.doc_min = self.doc_min.min(row.doc_min);
        self.doc_max = self.doc_max.max(row.doc_max);
    }
}

/// The mapping table of one run, as its bytes: see the module
/// documentation. Rows ascend by handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunTable {
    /// The run file's header, which `RunFile`'s fields mirror, then the rows.
    bytes: Vec<u8>,
    sample: Vec<Sample>,
    summary: Summary,
    /// What a one-posting row says its codec is: the run's, resolved for
    /// one posting (a longer row names its own).
    single: Codec,
    /// What the next row's handle delta would count from: one past the
    /// last row's handle.
    from: u64,
}

impl RunTable {
    /// An empty table of a run built in `codec`, with room for `rows` rows.
    /// Its header bytes are zero until [`Self::set_header`].
    pub(crate) fn with_capacity(codec: Codec, rows: usize) -> RunTable {
        // Rows measure 6 bytes on tail-heavy text; 10 avoids a regrow.
        let mut bytes = Vec::with_capacity(HEADER_BYTES_V3 + rows * 10);
        bytes.resize(HEADER_BYTES_V3, 0);
        RunTable {
            bytes,
            sample: Vec::with_capacity(rows / SAMPLE_EVERY + 1),
            summary: Summary::EMPTY,
            single: codec.resolve(1),
            from: 0,
        }
    }

    /// Append `row`, whose list starts where the lists of the rows before it
    /// end. Its handle must be larger than the last row's.
    pub(crate) fn push(&mut self, row: &RunEntry) {
        assert!(u64::from(row.handle) >= self.from, "lists must arrive in ascending handle order");
        let at = self.bytes.len();
        let out = &mut self.bytes;
        varbyte::encode_u32(row.handle - self.from as u32, out);
        varbyte::encode_u32(row.n_postings, out);
        if let Some(p) = row.sole_posting() {
            // The row is the list: its document and its frequency.
            varbyte::encode_u32(p.doc.0, out);
            varbyte::encode_u32(p.tf, out);
        } else {
            varbyte::encode_u32(row.len, out);
            varbyte::encode_u32(row.doc_min, out);
            varbyte::encode_u32(row.doc_max - row.doc_min, out);
            varbyte::encode_u32(row.max_tf, out);
            out.push(codec_tag(row.codec));
        }
        self.note(row, at);
        self.from = u64::from(row.handle) + 1;
    }

    /// Write the header in front of the rows.
    pub(crate) fn set_header(&mut self, header: [u8; HEADER_BYTES_V3]) {
        self.bytes[..HEADER_BYTES_V3].copy_from_slice(&header);
    }

    /// Check `bytes` — a run file's header and the `rows` rows after it, in
    /// a run built in `codec` — in one walk, handing `mark` each row's
    /// handle. Every row must decode, name a larger handle than the one
    /// before it that still fits a `u32`, hold at least one posting (a
    /// posting of `tf >= 1`, a longer list in a concrete codec whose
    /// document range fits a `u32`), and the rows must end exactly where
    /// the bytes do. Returns the table and the payload bytes its rows own.
    pub(crate) fn read(
        bytes: Vec<u8>,
        rows: usize,
        codec: Codec,
        mut mark: impl FnMut(u32),
    ) -> Result<(RunTable, u64), RunFileError> {
        let single = codec.resolve(1);
        // The caller bounded `rows` by the bytes present.
        let mut sample = Vec::with_capacity(rows / SAMPLE_EVERY + 1);
        let mut summary = Summary::EMPTY;
        let mut walk =
            Rows { bytes: &bytes, pos: HEADER_BYTES_V3, from: 0, offset: 0, left: rows, single };
        while walk.left > 0 {
            // `from` fits a `u32`: the row it stands for has a handle.
            sample.push(Sample { from: walk.from as u32, at: walk.pos, offset: walk.offset });
            let group = walk.left.min(SAMPLE_EVERY);
            walk.left -= group;
            for _ in 0..group {
                let row = walk.read()?;
                mark(row.handle);
                summary.count(&row);
            }
        }
        let (end, from, paid) = (walk.pos, walk.from, walk.offset);
        if end != bytes.len() {
            return Err(RunFileError::Malformed);
        }
        Ok((RunTable { bytes, sample, summary, single, from }, paid))
    }

    /// Count `row`, which starts at byte `at`, into the sample and summary.
    fn note(&mut self, row: &RunEntry, at: usize) {
        if self.summary.rows.is_multiple_of(SAMPLE_EVERY) {
            self.sample.push(Sample { from: self.from as u32, at, offset: row.offset });
        }
        self.summary.count(row);
    }

    /// Number of rows (lists).
    pub fn len(&self) -> usize {
        self.summary.rows
    }

    /// True when the table has no row.
    pub fn is_empty(&self) -> bool {
        self.summary.rows == 0
    }

    /// Rows in the sample a look-up searches: at most
    /// `len() / SAMPLE_EVERY + 1`.
    pub fn sampled(&self) -> usize {
        self.sample.len()
    }

    /// Every row, in handle order, decoded as it is reached.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            bytes: &self.bytes,
            pos: HEADER_BYTES_V3,
            from: 0,
            offset: 0,
            left: self.summary.rows,
            single: self.single,
        }
    }

    /// The last row.
    pub fn last(&self) -> Option<RunEntry> {
        self.rows_from(self.sample.len().checked_sub(1)?)?.last()
    }

    /// The row of `handle`: a binary search of the sample, then at most one
    /// group of rows decoded.
    pub(crate) fn entry(&self, handle: u32) -> Option<RunEntry> {
        let g = self.sample.partition_point(|s| s.from <= handle).checked_sub(1)?;
        let mut rows = self.rows_from(g)?;
        rows.left = rows.left.min(SAMPLE_EVERY);
        rows.find_handle(handle)
    }

    /// The rows from sample point `g` to the end of the table.
    fn rows_from(&self, g: usize) -> Option<Rows<'_>> {
        let s = self.sample.get(g)?;
        Some(Rows {
            bytes: &self.bytes,
            pos: s.at,
            from: u64::from(s.from),
            offset: s.offset,
            left: self.summary.rows - g * SAMPLE_EVERY,
            single: self.single,
        })
    }

    /// The rows, as they follow the header on disk.
    pub(crate) fn rows_bytes(&self) -> &[u8] {
        &self.bytes[HEADER_BYTES_V3..]
    }

    /// Total 128-document blocks across the lists.
    pub(crate) fn blocks(&self) -> u64 {
        self.summary.blocks
    }

    /// Largest term frequency across the lists (0 when empty).
    pub(crate) fn max_tf(&self) -> u32 {
        self.summary.max_tf
    }

    /// Smallest and largest document of the lists, if there is one.
    pub(crate) fn doc_range(&self) -> Option<(u32, u32)> {
        let s = &self.summary;
        (s.rows > 0).then_some((s.doc_min, s.doc_max))
    }
}

impl<'a> IntoIterator for &'a RunTable {
    type Item = RunEntry;
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// Rows of a [`RunTable`], each decoded when it is reached.
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    bytes: &'a [u8],
    /// Where the next row starts.
    pos: usize,
    /// What the next row's handle delta counts from: one past the handle
    /// of the row before it.
    from: u64,
    /// Where the next row's list starts in the payload.
    offset: u64,
    left: usize,
    single: Codec,
}

impl Rows<'_> {
    /// Decode the next row and step past it.
    #[inline(always)]
    fn read(&mut self) -> Result<RunEntry, RunFileError> {
        let (row, end) = read_row(self.bytes, self.pos, self.from, self.offset, self.single)?;
        self.pos = end;
        self.from = u64::from(row.handle) + 1;
        self.offset = self.offset.checked_add(u64::from(row.len)).ok_or(RunFileError::Malformed)?;
        Ok(row)
    }

    /// The row of `handle`, if it is among the rows left. A row of a smaller
    /// handle is passed by its handle, shape and length alone; the rest of
    /// its fields are skipped, not decoded.
    fn find_handle(&mut self, handle: u32) -> Option<RunEntry> {
        let bytes = self.bytes;
        let field = |pos: &mut usize| varbyte::decode_u32(bytes, pos);
        let (mut pos, mut from, mut offset) = (self.pos, self.from, self.offset);
        for _ in 0..self.left {
            let start = pos;
            let found = from + u64::from(field(&mut pos)?);
            if found >= u64::from(handle) {
                if found > u64::from(handle) {
                    return None;
                }
                (self.pos, self.from, self.offset) = (start, from, offset);
                return self.read().ok();
            }
            if field(&mut pos)? == 1 {
                skip_varints(bytes, &mut pos, 2)?;
            } else {
                offset += u64::from(field(&mut pos)?);
                skip_varints(bytes, &mut pos, 3)?;
                pos += 1; // the codec tag
            }
            from = found + 1;
        }
        None
    }
}

/// Step `pos` past `n` varbyte values of `bytes` without decoding them.
fn skip_varints(bytes: &[u8], pos: &mut usize, n: usize) -> Option<()> {
    for _ in 0..n {
        while *bytes.get(*pos)? & 0x80 == 0 {
            *pos += 1;
        }
        *pos += 1;
    }
    Some(())
}

impl Iterator for Rows<'_> {
    type Item = RunEntry;

    fn next(&mut self) -> Option<RunEntry> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // The bytes passed `RunTable::read` or were written by
        // `RunTable::push`, so every row decodes; were one not to, the rows
        // would end there rather than fail.
        let row = self.read().ok();
        if row.is_none() {
            self.left = 0;
        }
        row
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left))
    }
}

/// Decode the row at `bytes[at..]` and where it ends: its handle delta
/// counts from `from`, its list starts at payload offset `offset`, and a
/// one-posting row's codec is `single`.
#[inline(always)]
fn read_row(
    bytes: &[u8],
    at: usize,
    from: u64,
    offset: u64,
    single: Codec,
) -> Result<(RunEntry, usize), RunFileError> {
    // A local cursor, not the caller's: it stays in a register.
    let mut pos = at;
    let mut field = || varbyte::decode_u32(bytes, &mut pos).ok_or(RunFileError::Truncated);
    let handle = u32::try_from(from + u64::from(field()?)).map_err(|_| RunFileError::Malformed)?;
    let n_postings = field()?;
    if n_postings == 1 {
        let (doc, tf) = (field()?, field()?);
        if tf == 0 {
            return Err(RunFileError::Malformed);
        }
        let row = RunEntry::of_posting(handle, offset, Posting { doc: DocId(doc), tf }, single);
        return Ok((row, pos));
    }
    let (len, doc_min, doc_span, max_tf) = (field()?, field()?, field()?, field()?);
    let tag = *bytes.get(pos).ok_or(RunFileError::Truncated)?;
    pos += 1;
    let codec = codec_from_tag(tag).ok_or(RunFileError::Malformed)?;
    if codec == Codec::Auto || n_postings == 0 {
        // Rows carry resolved codecs and at least one posting.
        return Err(RunFileError::Malformed);
    }
    let doc_max = doc_min.checked_add(doc_span).ok_or(RunFileError::Malformed)?;
    Ok((RunEntry { handle, offset, len, n_postings, doc_min, doc_max, codec, max_tf }, pos))
}
