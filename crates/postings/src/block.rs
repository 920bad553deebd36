//! Fixed 128-document block layout with per-list skip tables.
//!
//! Every list encoded through [`ListEncoder`] is laid out as
//!
//! ```text
//! [skip table: ceil(n/128) x 12 bytes] [block bodies]
//! ```
//!
//! with one skip entry per block: the block's first document ID, the byte
//! offset of its body relative to the start of the block data, and the
//! maximum term frequency inside the block — the block-max metadata
//! WAND/MaxScore-style query evaluation needs. The posting count is not
//! stored: callers already know `n` (run entries and the dictionary carry
//! it), and every block except the last holds exactly [`BLOCK_LEN`]
//! postings.
//!
//! That is the self-contained layout [`encode_list`] writes and
//! [`decode_list`] / [`crate::cursor::ListCursor::new`] read. A run file
//! stores a list that fits one block as its block body alone — the mapping
//! table row implies the one skip entry ([`BlockedList::single_block`]) —
//! and a list of one posting as no bytes at all: that skip entry *is* the
//! posting ([`BlockedList::one_posting`]). Both are used only by
//! `RunFile::blocks_of`.
//!
//! Blocks are *block-independent*: gaps are relative to the block's own
//! first document (which lives only in the skip entry, so the first gap is
//! implicit), and all stored values are biased down by one (`gap - 1`,
//! `tf - 1`) so a run of unit gaps packs at width zero. Independence is
//! what makes two things cheap:
//!
//! * decoders can seek straight to a block picked from the skip table
//!   without touching its predecessors ([`crate::cursor::ListCursor`]);
//! * the merge can copy a whole block *verbatim* when source and target
//!   codecs agree ([`ListWriter::push_raw_block`]), because re-encoding
//!   the same 128 postings would reproduce the same bytes.

use crate::bits;
use crate::codec::{check_alloc, Codec, CodecError};
use crate::posting::Posting;
use crate::varbyte;
use ii_corpus::DocId;

/// Postings per block. Fixed so skip-table geometry is derivable from the
/// posting count alone.
pub const BLOCK_LEN: usize = 128;

/// Serialized size of one [`SkipEntry`].
pub const SKIP_ENTRY_BYTES: usize = 12;

/// One skip-table entry: everything needed to locate and pre-judge a block
/// without decoding it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkipEntry {
    /// First document ID in the block (also the base all in-block gaps are
    /// relative to).
    pub first_doc: u32,
    /// Byte offset of the block body, relative to the end of the skip
    /// table.
    pub offset: u32,
    /// Largest term frequency in the block (block-max metadata).
    pub max_tf: u32,
}

/// Number of blocks an `n`-posting list occupies.
pub fn n_blocks(n: usize) -> usize {
    n.div_ceil(BLOCK_LEN)
}

/// Number of postings in block `b` of an `n`-posting list.
pub fn len_of_block(n: usize, b: usize) -> usize {
    debug_assert!(b < n_blocks(n));
    (n - b * BLOCK_LEN).min(BLOCK_LEN)
}

/// Bytes of skip table preceding the block data of an `n`-posting list.
pub fn skip_table_bytes(n: usize) -> usize {
    n_blocks(n) * SKIP_ENTRY_BYTES
}

fn read_skip(skip: &[u8], b: usize) -> SkipEntry {
    let s = &skip[b * SKIP_ENTRY_BYTES..(b + 1) * SKIP_ENTRY_BYTES];
    SkipEntry {
        first_doc: u32::from_le_bytes(s[0..4].try_into().unwrap()),
        offset: u32::from_le_bytes(s[4..8].try_into().unwrap()),
        max_tf: u32::from_le_bytes(s[8..12].try_into().unwrap()),
    }
}

/// Reusable per-block decode scratch (biased gaps in `a`, biased tfs in
/// `b`). Fixed [`BLOCK_LEN`] arrays, not `Vec`s: section decoders write
/// through subslices, which keeps the per-value hot loops free of
/// capacity checks.
#[derive(Debug)]
pub(crate) struct BlockScratch {
    pub(crate) a: [u32; BLOCK_LEN],
    pub(crate) b: [u32; BLOCK_LEN],
}

impl Default for BlockScratch {
    fn default() -> Self {
        BlockScratch { a: [0; BLOCK_LEN], b: [0; BLOCK_LEN] }
    }
}

/// Encode one block body (without its skip entry) into `out`. `ps` holds
/// `1..=BLOCK_LEN` doc-sorted postings; `codec` must be concrete. The
/// biased gaps and tfs go through `scratch`, of which only the first
/// `ps.len()` slots are written and read.
fn encode_block(codec: Codec, ps: &[Posting], scratch: &mut BlockScratch, out: &mut Vec<u8>) {
    let m = ps.len();
    debug_assert!((1..=BLOCK_LEN).contains(&m));
    let gaps = &mut scratch.a[..m - 1]; // gaps[i] = doc[i+1] - doc[i] - 1
    let tfs = &mut scratch.b[..m]; // tf - 1
    for (gap, pair) in gaps.iter_mut().zip(ps.windows(2)) {
        debug_assert!(pair[1].doc > pair[0].doc, "block postings out of order");
        *gap = pair[1].doc.0 - pair[0].doc.0 - 1;
    }
    for (tf, p) in tfs.iter_mut().zip(ps) {
        debug_assert!(p.tf >= 1, "postings carry at least one occurrence");
        *tf = p.tf - 1;
    }
    let (gaps, tfs) = (&*gaps, &*tfs);
    match codec {
        Codec::VarByte => {
            for &g in gaps {
                varbyte::encode_u32(g, out);
            }
            for &t in tfs {
                varbyte::encode_u32(t, out);
            }
        }
        Codec::Bp128 => {
            let dw = gaps.iter().map(|&g| bits::bits_needed(g)).max().unwrap_or(0);
            let tw = tfs.iter().map(|&t| bits::bits_needed(t)).max().unwrap_or(0);
            out.push(dw as u8);
            out.push(tw as u8);
            bits::pack_bits(gaps, dw, out);
            bits::pack_bits(tfs, tw, out);
        }
        Codec::PFor => {
            pfor_encode(gaps, out);
            pfor_encode(tfs, out);
        }
        Codec::EliasFano => {
            // Doc section: the m-1 non-first docs as y = doc - first - 1,
            // strictly increasing.
            let mut ys = [0u32; BLOCK_LEN];
            for i in 1..m {
                ys[i - 1] = ps[i].doc.0 - ps[0].doc.0 - 1;
            }
            ef_encode(&ys[..m - 1], out);
            let tw = tfs.iter().map(|&t| bits::bits_needed(t)).max().unwrap_or(0);
            out.push(tw as u8);
            bits::pack_bits(tfs, tw, out);
        }
        Codec::Gamma => {
            let mut w = bits::BitWriter::new();
            for &g in gaps {
                bits::gamma_encode(g as u64 + 1, &mut w); // actual gap >= 1
            }
            for &t in tfs {
                bits::gamma_encode(t as u64 + 1, &mut w); // actual tf >= 1
            }
            out.extend_from_slice(&w.finish());
        }
        Codec::Golomb(b) => {
            let mut w = bits::BitWriter::new();
            for &g in gaps {
                bits::golomb_encode(g as u64 + 1, b, &mut w);
            }
            for &t in tfs {
                bits::gamma_encode(t as u64 + 1, &mut w);
            }
            out.extend_from_slice(&w.finish());
        }
        Codec::Auto => unreachable!("Auto must be resolved before block encode"),
    }
}

/// Decode one block body into `out`. `buf` is exactly the block body (as
/// delimited by skip offsets), `first_doc` comes from the skip entry, `m`
/// is the block's posting count.
fn decode_block(
    codec: Codec,
    buf: &[u8],
    first_doc: u32,
    m: usize,
    scratch: &mut BlockScratch,
    out: &mut Vec<Posting>,
) -> Result<(), CodecError> {
    debug_assert!((1..=BLOCK_LEN).contains(&m));
    let gaps = &mut scratch.a[..m - 1];
    let tfs = &mut scratch.b[..m];
    match codec {
        Codec::VarByte => {
            let mut pos = 0usize;
            for g in gaps.iter_mut() {
                *g = varbyte::decode_u32(buf, &mut pos).ok_or(CodecError::Truncated)?;
            }
            for t in tfs.iter_mut() {
                *t = varbyte::decode_u32(buf, &mut pos).ok_or(CodecError::Truncated)?;
            }
        }
        Codec::Bp128 => {
            let dw = *buf.first().ok_or(CodecError::Truncated)?;
            let tw = *buf.get(1).ok_or(CodecError::Truncated)?;
            if dw > 32 {
                return Err(CodecError::BadBitWidth(dw));
            }
            if tw > 32 {
                return Err(CodecError::BadBitWidth(tw));
            }
            let mut pos = 2usize;
            pos += bits::unpack_bits_into(&buf[pos..], gaps, dw as u32)
                .ok_or(CodecError::Truncated)?;
            bits::unpack_bits_into(&buf[pos..], tfs, tw as u32)
                .ok_or(CodecError::Truncated)?;
        }
        Codec::PFor => {
            let mut pos = 0usize;
            pfor_decode(buf, &mut pos, gaps)?;
            pfor_decode(buf, &mut pos, tfs)?;
        }
        Codec::EliasFano => {
            // Parse the EF header up front so the tf section can be
            // decoded first, then select the high bits straight into
            // postings: one emission pass, no separate gap-rebuild sweep.
            let k = m - 1;
            let mut pos = 0usize;
            let mut l = 0u32;
            let mut high: &[u8] = &[];
            if k > 0 {
                let lb = *buf.first().ok_or(CodecError::Truncated)?;
                if lb > 31 {
                    return Err(CodecError::BadBitWidth(lb));
                }
                l = lb as u32;
                let hb = buf
                    .get(1..3)
                    .map(|s| u16::from_le_bytes(s.try_into().unwrap()) as usize)
                    .ok_or(CodecError::Truncated)?;
                high = buf.get(3..3 + hb).ok_or(CodecError::Truncated)?;
                pos = 3 + hb;
                pos +=
                    bits::unpack_bits_into(&buf[pos..], gaps, l).ok_or(CodecError::Truncated)?;
            }
            let tw = *buf.get(pos).ok_or(CodecError::Truncated)?;
            if tw > 32 {
                return Err(CodecError::BadBitWidth(tw));
            }
            pos += 1;
            bits::unpack_bits_into(&buf[pos..], tfs, tw as u32)
                .ok_or(CodecError::Truncated)?;
            let tf0 = tfs[0].checked_add(1).ok_or(CodecError::Overflow)?;
            out.push(Posting { doc: DocId(first_doc), tf: tf0 });
            // Select the k ones a 64-bit word at a time: the i-th one at
            // bit p encodes high bucket p - i (p >= i always — i ones
            // precede it). Elias-Fano stores absolute (block-relative)
            // positions, not gaps, so docs are emitted directly; strict
            // monotonicity guards hostile low bits within a bucket. The
            // outer loop walks the low bits and tfs in lockstep, so the
            // hot path has no bounds checks; the inner scanner refills a
            // word only when the current one runs dry.
            let ys = &gaps[..k];
            let mut word_iter = high.chunks(8).map(|chunk| match <[u8; 8]>::try_from(chunk) {
                Ok(b) => u64::from_le_bytes(b),
                Err(_) => {
                    let mut b = [0u8; 8];
                    b[..chunk.len()].copy_from_slice(chunk);
                    u64::from_le_bytes(b)
                }
            });
            let mut prev = first_doc;
            let mut w = 0u64;
            // Starts one word "before" the section so the first refill
            // lands base_bit on 0; never read while w == 0.
            let mut base_bit = 0usize.wrapping_sub(64);
            for (i, (&low, &t)) in ys.iter().zip(tfs[1..].iter()).enumerate() {
                while w == 0 {
                    w = word_iter.next().ok_or(CodecError::Truncated)?;
                    base_bit = base_bit.wrapping_add(64);
                }
                let p = base_bit + w.trailing_zeros() as usize;
                w &= w - 1;
                let y = ((p - i) as u64) << l | u64::from(low);
                let doc = u32::try_from(first_doc as u64 + y + 1)
                    .map_err(|_| CodecError::Overflow)?;
                if doc <= prev {
                    return Err(CodecError::NonMonotone);
                }
                let tf = t.checked_add(1).ok_or(CodecError::Overflow)?;
                out.push(Posting { doc: DocId(doc), tf });
                prev = doc;
            }
            return Ok(());
        }
        Codec::Gamma | Codec::Golomb(_) => {
            let mut r = bits::BitReader::new(buf);
            for g in gaps.iter_mut() {
                let v = match codec {
                    Codec::Gamma => bits::gamma_decode(&mut r),
                    Codec::Golomb(b) => bits::golomb_decode(b, &mut r),
                    _ => unreachable!(),
                }
                .ok_or(CodecError::Truncated)?;
                *g = u32::try_from(v - 1).map_err(|_| CodecError::Overflow)?;
            }
            for t in tfs.iter_mut() {
                let v = bits::gamma_decode(&mut r).ok_or(CodecError::Truncated)?;
                *t = u32::try_from(v - 1).map_err(|_| CodecError::Overflow)?;
            }
        }
        Codec::Auto => unreachable!("Auto must be resolved before block decode"),
    }
    // Common tail for gap-coded bodies: rebuild docs from biased gaps
    // (strictly increasing by construction) and unbias tfs.
    let tf0 = tfs[0].checked_add(1).ok_or(CodecError::Overflow)?;
    out.push(Posting { doc: DocId(first_doc), tf: tf0 });
    let mut doc = first_doc;
    for (&g, &t) in gaps.iter().zip(tfs[1..].iter()) {
        doc = doc
            .checked_add(g)
            .and_then(|d| d.checked_add(1))
            .ok_or(CodecError::Overflow)?;
        let tf = t.checked_add(1).ok_or(CodecError::Overflow)?;
        out.push(Posting { doc: DocId(doc), tf });
    }
    Ok(())
}

/// Fraction of a block allowed to be PFor exceptions before widening the
/// base bit width (1/8, the classic NewPFD budget).
const PFOR_EXCEPTION_SHIFT: usize = 3;

/// Encode one PFor section: `[width u8][n_exceptions u8]`, packed low bits
/// for every value, then `(slot u8, varbyte high-bits)` per exception.
fn pfor_encode(vals: &[u32], out: &mut Vec<u8>) {
    let m = vals.len();
    if m == 0 {
        return;
    }
    // counts[w] = number of values needing exactly w bits.
    let mut counts = [0usize; 33];
    for &v in vals {
        counts[bits::bits_needed(v) as usize] += 1;
    }
    // Smallest width whose exception count fits the budget.
    let budget = m >> PFOR_EXCEPTION_SHIFT;
    let mut width = 32u32;
    let mut over = 0usize; // values needing more than `width` bits
    while width > 0 && over + counts[width as usize] <= budget {
        over += counts[width as usize];
        width -= 1;
    }
    let mask: u32 = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
    out.push(width as u8);
    out.push(over as u8);
    let mut lows = [0u32; BLOCK_LEN];
    for (i, &v) in vals.iter().enumerate() {
        lows[i] = v & mask;
    }
    bits::pack_bits(&lows[..m], width, out);
    for (i, &v) in vals.iter().enumerate() {
        if bits::bits_needed(v) > width {
            out.push(i as u8);
            varbyte::encode_u32(v >> width, out);
        }
    }
}

/// Decode one PFor section of `out.len()` values, advancing `pos`.
fn pfor_decode(buf: &[u8], pos: &mut usize, out: &mut [u32]) -> Result<(), CodecError> {
    let m = out.len();
    if m == 0 {
        return Ok(());
    }
    let width = *buf.get(*pos).ok_or(CodecError::Truncated)?;
    let n_exc = *buf.get(*pos + 1).ok_or(CodecError::Truncated)?;
    if width > 32 {
        return Err(CodecError::BadBitWidth(width));
    }
    *pos += 2;
    *pos += bits::unpack_bits_into(&buf[*pos..], out, width as u32)
        .ok_or(CodecError::Truncated)?;
    for _ in 0..n_exc {
        let slot = *buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if slot as usize >= m {
            return Err(CodecError::ExceptionOverflow { index: slot, block_len: m as u8 });
        }
        let high = varbyte::decode_u32(buf, pos).ok_or(CodecError::Truncated)?;
        let patched = (high as u64) << width | out[slot as usize] as u64;
        out[slot as usize] = u32::try_from(patched).map_err(|_| CodecError::Overflow)?;
    }
    Ok(())
}

/// Encode one Elias-Fano section for strictly increasing `ys`:
/// `[l u8][high_bytes u16][unary high bits, LSB-first][packed low bits]`.
/// Empty `ys` writes nothing (the caller knows the count).
fn ef_encode(ys: &[u32], out: &mut Vec<u8>) {
    let k = ys.len();
    if k == 0 {
        return;
    }
    let u = *ys.last().unwrap() as u64;
    let per = u / k as u64;
    let l: u32 = if per >= 2 { 63 - per.leading_zeros() } else { 0 };
    out.push(l as u8);
    // The i-th one sits at bit i + (y_i >> l); with l = floor(log2(u/k))
    // the high region stays under 3k bits.
    let n_high_bits = k + (u >> l) as usize;
    let high_bytes = n_high_bits.div_ceil(8);
    out.extend_from_slice(&(high_bytes as u16).to_le_bytes());
    let start = out.len();
    out.resize(start + high_bytes, 0);
    for (i, &y) in ys.iter().enumerate() {
        let p = i + (y >> l) as usize;
        out[start + p / 8] |= 1 << (p % 8);
    }
    let mask: u32 = if l == 0 { 0 } else { (1u32 << l) - 1 };
    let mut lows = [0u32; BLOCK_LEN];
    for (i, &y) in ys.iter().enumerate() {
        lows[i] = y & mask;
    }
    bits::pack_bits(&lows[..k], l, out);
}

/// A fully encoded block-layout list: skip table followed by block data.
#[derive(Clone, Debug)]
pub struct EncodedList {
    /// Serialized list (skip table + block bodies).
    pub bytes: Vec<u8>,
    /// Postings encoded.
    pub n_postings: usize,
    /// Largest term frequency across the whole list.
    pub max_tf: u32,
}

/// The reusable half of the list encoder: block scratch and the staging
/// area of a block being filled one posting at a time. One per run (or per
/// merge); [`Self::begin`] lends it to one list at a time.
#[derive(Debug, Default)]
pub struct ListEncoder {
    scratch: BlockScratch,
    staging: Vec<Posting>,
}

impl ListEncoder {
    /// New encoder. Allocates nothing until a posting is staged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a list of `n` postings at the end of `out`, in a concrete
    /// (non-[`Codec::Auto`]) codec. With `skip_table` the list is laid out
    /// as the module docs describe: its `ceil(n/128)` skip entries are
    /// reserved here and patched as each block is sealed. Without, only the
    /// block bodies are written — for a list of one block whose caller
    /// keeps the skip entry elsewhere ([`BlockedList::single_block`]).
    pub fn begin<'a>(
        &'a mut self,
        out: &'a mut Vec<u8>,
        codec: Codec,
        n: usize,
        skip_table: bool,
    ) -> ListWriter<'a> {
        assert!(codec != Codec::Auto, "resolve Auto before encoding a list");
        assert!(skip_table || n <= BLOCK_LEN, "only a one-block list can go without its table");
        self.staging.clear();
        let skip_at = out.len();
        if skip_table {
            out.resize(skip_at + skip_table_bytes(n), 0);
        }
        let data_at = out.len();
        ListWriter { enc: self, out, codec, n, skip_table, skip_at, data_at, pushed: 0, max_tf: 0 }
    }
}

/// One list being encoded in place at the end of a byte buffer. Pushing the
/// same postings through any interleaving of [`Self::push`],
/// [`Self::extend`] and [`Self::push_raw_block`] yields byte-identical
/// output.
#[derive(Debug)]
pub struct ListWriter<'a> {
    enc: &'a mut ListEncoder,
    out: &'a mut Vec<u8>,
    codec: Codec,
    n: usize,
    skip_table: bool,
    skip_at: usize,
    data_at: usize,
    pushed: usize,
    max_tf: u32,
}

impl ListWriter<'_> {
    /// Append one posting (strictly increasing doc order).
    pub fn push(&mut self, p: Posting) {
        self.enc.staging.push(p);
        if self.enc.staging.len() == BLOCK_LEN {
            self.seal_staged();
        }
    }

    /// Append a doc-ordered slice. Whole blocks, and a tail that completes
    /// the list, are encoded straight from `ps` when nothing is staged.
    pub fn extend(&mut self, mut ps: &[Posting]) {
        while !ps.is_empty() {
            let completes = self.pushed + ps.len() == self.n;
            if self.at_block_boundary() && (ps.len() >= BLOCK_LEN || completes) {
                let (block, rest) = ps.split_at(ps.len().min(BLOCK_LEN));
                self.seal(block);
                ps = rest;
            } else {
                self.push(ps[0]);
                ps = &ps[1..];
            }
        }
    }

    /// Write the skip entry of the block about to be appended.
    fn open_block(&mut self, first_doc: u32, max_tf: u32) {
        assert!(self.pushed < self.n, "more postings than the list was begun with");
        if self.skip_table {
            let at = self.skip_at + self.pushed / BLOCK_LEN * SKIP_ENTRY_BYTES;
            let offset = (self.out.len() - self.data_at) as u32;
            self.out[at..at + 4].copy_from_slice(&first_doc.to_le_bytes());
            self.out[at + 4..at + 8].copy_from_slice(&offset.to_le_bytes());
            self.out[at + 8..at + 12].copy_from_slice(&max_tf.to_le_bytes());
        }
        self.max_tf = self.max_tf.max(max_tf);
    }

    fn seal(&mut self, block: &[Posting]) {
        let block_max = block.iter().map(|p| p.tf).max().expect("a block holds a posting");
        self.open_block(block[0].doc.0, block_max);
        encode_block(self.codec, block, &mut self.enc.scratch, self.out);
        self.pushed += block.len();
    }

    fn seal_staged(&mut self) {
        let staged = std::mem::take(&mut self.enc.staging);
        self.seal(&staged);
        self.enc.staging = staged;
        self.enc.staging.clear();
    }

    /// True when the writer sits on a block boundary, i.e. a full raw
    /// block may be copied verbatim.
    pub fn at_block_boundary(&self) -> bool {
        self.enc.staging.is_empty()
    }

    /// Copy a full ([`BLOCK_LEN`]-posting) encoded block verbatim. Only
    /// valid on a block boundary; block independence makes the copied
    /// bytes identical to what re-encoding the block's postings would
    /// produce.
    pub fn push_raw_block(&mut self, entry: SkipEntry, body: &[u8]) {
        assert!(self.at_block_boundary(), "raw block copy mid-block");
        self.open_block(entry.first_doc, entry.max_tf);
        self.out.extend_from_slice(body);
        self.pushed += BLOCK_LEN;
    }

    /// Seal the tail block; the list's bytes are complete. Returns the
    /// largest term frequency across the list.
    pub fn finish(mut self) -> u32 {
        if !self.enc.staging.is_empty() {
            self.seal_staged();
        }
        assert_eq!(self.pushed, self.n, "list ended short of the count it was begun with");
        self.max_tf
    }
}

/// Encode a whole list into the self-contained block layout, skip table in
/// front. [`Codec::Auto`] resolves by list length.
pub fn encode_list(ps: &[Posting], codec: Codec) -> EncodedList {
    let mut bytes = Vec::new();
    let mut enc = ListEncoder::new();
    let mut list = enc.begin(&mut bytes, codec.resolve(ps.len()), ps.len(), true);
    list.extend(ps);
    let max_tf = list.finish();
    EncodedList { bytes, n_postings: ps.len(), max_tf }
}

/// Decode a block-layout list of `n` postings.
pub fn decode_list(buf: &[u8], n: usize, codec: Codec) -> Result<Vec<Posting>, CodecError> {
    check_alloc(buf, n)?;
    BlockedList::parse(buf, n)?.decode(codec)
}

/// Where a [`BlockedList`]'s skip entries come from.
#[derive(Clone, Copy, Debug)]
enum Skips<'a> {
    /// A serialized skip table, one [`SKIP_ENTRY_BYTES`] entry per block.
    Table(&'a [u8]),
    /// The list is one block and the caller already held its entry (a run
    /// file's mapping-table row implies it, see `RunFile::blocks_of`).
    Implied(SkipEntry),
    /// The list is one posting, `(first_doc, max_tf)` of this entry, and
    /// has no body.
    Posting(SkipEntry),
}

/// A parsed (but not decoded) block-layout list: skip entries plus block
/// data, with offset-checked access to individual block bodies.
#[derive(Clone, Copy, Debug)]
pub struct BlockedList<'a> {
    skips: Skips<'a>,
    data: &'a [u8],
    n: usize,
}

impl<'a> BlockedList<'a> {
    /// Split `buf` into skip table and block data for an `n`-posting list.
    pub fn parse(buf: &'a [u8], n: usize) -> Result<Self, CodecError> {
        if n == 0 {
            return if buf.is_empty() {
                Ok(BlockedList { skips: Skips::Table(&[]), data: &[], n: 0 })
            } else {
                Err(CodecError::Malformed("bytes present for empty list"))
            };
        }
        let skip_len = skip_table_bytes(n);
        if buf.len() < skip_len {
            return Err(CodecError::Truncated);
        }
        let (skip, data) = buf.split_at(skip_len);
        Ok(BlockedList { skips: Skips::Table(skip), data, n })
    }

    /// A list of `1..=BLOCK_LEN` postings given as its block body alone,
    /// with the skip entry supplied by the caller instead of read from a
    /// table in front of the body.
    pub fn single_block(body: &'a [u8], n: usize, entry: SkipEntry) -> Self {
        assert!((1..=BLOCK_LEN).contains(&n), "single_block takes one block's postings");
        BlockedList { skips: Skips::Implied(entry), data: body, n }
    }

    /// A list of one posting given as the skip entry it would have:
    /// `first_doc` is its document, `max_tf` its term frequency, and there
    /// is no body to decode.
    pub fn one_posting(entry: SkipEntry) -> Self {
        BlockedList { skips: Skips::Posting(entry), data: &[], n: 1 }
    }

    /// Number of postings.
    pub fn n_postings(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        n_blocks(self.n)
    }

    /// Number of postings in block `b`.
    pub fn len_of(&self, b: usize) -> usize {
        len_of_block(self.n, b)
    }

    /// Skip entry of block `b`.
    pub fn entry(&self, b: usize) -> SkipEntry {
        match self.skips {
            Skips::Table(skip) => read_skip(skip, b),
            Skips::Implied(entry) | Skips::Posting(entry) => {
                debug_assert_eq!(b, 0);
                entry
            }
        }
    }

    /// The encoded body of block `b`, bounds-checked against the skip
    /// offsets.
    pub fn body(&self, b: usize) -> Result<&'a [u8], CodecError> {
        let start = self.entry(b).offset as usize;
        let end = if b + 1 < self.n_blocks() {
            self.entry(b + 1).offset as usize
        } else {
            self.data.len()
        };
        if start > end || end > self.data.len() {
            return Err(CodecError::Malformed("skip offsets out of order"));
        }
        Ok(&self.data[start..end])
    }

    /// Decode block `b` in the concrete `codec`, appending its postings to
    /// `out` — the one way a block of a parsed list turns into postings.
    /// `scratch` is allocated by the first block that has a body to decode;
    /// a list that is its row ([`Self::one_posting`]) never needs it.
    pub(crate) fn decode_block_into(
        &self,
        b: usize,
        codec: Codec,
        scratch: &mut Option<Box<BlockScratch>>,
        out: &mut Vec<Posting>,
    ) -> Result<(), CodecError> {
        let e = self.entry(b);
        if let Skips::Posting(_) = self.skips {
            out.push(Posting { doc: DocId(e.first_doc), tf: e.max_tf });
            return Ok(());
        }
        let scratch = scratch.get_or_insert_with(Default::default);
        decode_block(codec, self.body(b)?, e.first_doc, self.len_of(b), scratch, out)
    }

    /// Decode every block. `codec` may be [`Codec::Auto`] (resolved by
    /// list length).
    pub fn decode(&self, codec: Codec) -> Result<Vec<Posting>, CodecError> {
        let codec = codec.resolve(self.n);
        let mut out = Vec::with_capacity(self.n);
        let mut scratch = None;
        let mut prev_last: Option<u32> = None;
        for b in 0..self.n_blocks() {
            let e = self.entry(b);
            if let Some(d) = prev_last {
                if e.first_doc <= d {
                    return Err(CodecError::NonMonotone);
                }
            }
            self.decode_block_into(b, codec, &mut scratch, &mut out)?;
            prev_last = Some(out.last().unwrap().doc.0);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mklist(n: usize, gap: u32, tf: u32) -> Vec<Posting> {
        (0..n as u32).map(|i| Posting { doc: DocId(7 + i * gap), tf: 1 + (i % tf.max(1)) }).collect()
    }

    const BLOCK_CODECS: [Codec; 6] = [
        Codec::VarByte,
        Codec::Gamma,
        Codec::Golomb(8),
        Codec::Bp128,
        Codec::PFor,
        Codec::EliasFano,
    ];

    #[test]
    fn roundtrip_block_boundaries() {
        for n in [1usize, 2, 127, 128, 129, 255, 256, 257, 1000] {
            let list = mklist(n, 3, 5);
            for codec in BLOCK_CODECS {
                let enc = encode_list(&list, codec);
                assert_eq!(enc.n_postings, n);
                assert_eq!(enc.max_tf, list.iter().map(|p| p.tf).max().unwrap());
                let dec = decode_list(&enc.bytes, n, codec).unwrap();
                assert_eq!(dec, list, "{codec:?} n={n}");
            }
        }
    }

    #[test]
    fn skip_entries_expose_block_maxima() {
        let list: Vec<Posting> =
            (0..300u32).map(|i| Posting { doc: DocId(i * 2), tf: if i == 200 { 99 } else { 1 } }).collect();
        let enc = encode_list(&list, Codec::Bp128);
        let blocks = BlockedList::parse(&enc.bytes, 300).unwrap();
        assert_eq!(blocks.n_blocks(), 3);
        assert_eq!(blocks.entry(0).first_doc, 0);
        assert_eq!(blocks.entry(1).first_doc, 256);
        assert_eq!(blocks.entry(0).max_tf, 1);
        assert_eq!(blocks.entry(1).max_tf, 99, "block-max must surface the spike");
        assert_eq!(enc.max_tf, 99);
    }

    #[test]
    fn raw_block_copy_is_byte_identical() {
        let list = mklist(500, 5, 7);
        for codec in BLOCK_CODECS {
            let whole = encode_list(&list, codec);
            let blocks = BlockedList::parse(&whole.bytes, list.len()).unwrap();
            // Re-assemble behind bytes already in the buffer: copy full
            // blocks verbatim, re-push the tail one posting at a time.
            let mut rebuilt = b"earlier lists".to_vec();
            let at = rebuilt.len();
            let mut enc = ListEncoder::new();
            let mut w = enc.begin(&mut rebuilt, codec, list.len(), true);
            for b in 0..blocks.n_blocks() {
                if blocks.len_of(b) == BLOCK_LEN {
                    w.push_raw_block(blocks.entry(b), blocks.body(b).unwrap());
                } else {
                    for &p in &list[b * BLOCK_LEN..] {
                        w.push(p);
                    }
                }
            }
            assert_eq!(w.finish(), whole.max_tf);
            assert_eq!(&rebuilt[at..], whole.bytes, "{codec:?}");
        }
    }

    #[test]
    fn unit_gaps_pack_to_width_zero() {
        let list: Vec<Posting> = (0..128u32).map(|i| Posting { doc: DocId(i), tf: 1 }).collect();
        let enc = encode_list(&list, Codec::Bp128);
        // 12-byte skip entry + 2 width bytes, nothing else.
        assert_eq!(enc.bytes.len(), SKIP_ENTRY_BYTES + 2);
    }

    #[test]
    fn pfor_handles_outliers_cheaply() {
        // 127 unit gaps + one huge gap: the huge one must become an
        // exception, not widen every slot.
        let mut list: Vec<Posting> = (0..127u32).map(|i| Posting { doc: DocId(i), tf: 1 }).collect();
        list.push(Posting { doc: DocId(1 << 30), tf: 1 });
        let enc = encode_list(&list, Codec::PFor);
        let dec = decode_list(&enc.bytes, list.len(), Codec::PFor).unwrap();
        assert_eq!(dec, list);
        // Width stays 0 for gaps; one 5-ish-byte exception.
        assert!(enc.bytes.len() < SKIP_ENTRY_BYTES + 24, "got {}", enc.bytes.len());
    }

    #[test]
    fn maximal_gap_roundtrips() {
        let list =
            vec![Posting { doc: DocId(0), tf: 1 }, Posting { doc: DocId(u32::MAX), tf: u32::MAX }];
        // Golomb needs a parameter near the gap scale or its unary part
        // degenerates (that's why Auto never picks it).
        for codec in
            [Codec::VarByte, Codec::Gamma, Codec::Golomb(1 << 28), Codec::Bp128, Codec::PFor, Codec::EliasFano]
        {
            let enc = encode_list(&list, codec);
            let dec = decode_list(&enc.bytes, 2, codec).unwrap();
            assert_eq!(dec, list, "{codec:?}");
        }
    }

    #[test]
    fn hostile_widths_rejected() {
        let list = mklist(10, 2, 3);
        let enc = encode_list(&list, Codec::Bp128);
        let mut bad = enc.bytes.clone();
        bad[SKIP_ENTRY_BYTES] = 200; // doc width byte of the only block
        assert_eq!(decode_list(&bad, 10, Codec::Bp128), Err(CodecError::BadBitWidth(200)));
    }

    #[test]
    fn hostile_skip_offsets_rejected() {
        let list = mklist(300, 2, 3);
        let enc = encode_list(&list, Codec::Bp128);
        let mut bad = enc.bytes.clone();
        // Second block's offset points far past the end.
        bad[SKIP_ENTRY_BYTES + 4..SKIP_ENTRY_BYTES + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_list(&bad, 300, Codec::Bp128).is_err());
    }
}
