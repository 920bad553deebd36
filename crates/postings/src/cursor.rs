//! Skip-pointer cursors over block-layout postings.
//!
//! A [`ListCursor`] walks one encoded list lazily: blocks are decoded only
//! when entered, and [`ListCursor::advance_to`] uses the skip table to jump
//! over blocks whose document range cannot contain the target — the
//! conjunctive-query fast path the block layout exists for. The
//! `blocks_decoded` counter makes the skipping observable in tests and
//! query stats.

use crate::block::{decode_block, BlockScratch, BlockedList};
use crate::codec::{Codec, CodecError};
use crate::posting::Posting;

/// Lazy decoding cursor over one block-layout list.
#[derive(Debug)]
pub struct ListCursor<'a> {
    blocks: BlockedList<'a>,
    codec: Codec,
    /// Decoded postings of block `cur` (empty before the first load).
    buf: Vec<Posting>,
    /// Next index into `buf`.
    pos: usize,
    /// Block index `buf` holds, or `n_blocks` when exhausted/unloaded.
    cur: usize,
    loaded: bool,
    blocks_decoded: u32,
    /// Boxed: the fixed decode arrays are ~1 KiB and cursors move through
    /// enum variants and collections by value.
    scratch: Box<BlockScratch>,
}

impl<'a> ListCursor<'a> {
    /// Open a cursor over an encoded `n`-posting list (skip table in front
    /// of the block data, as [`crate::block::encode_list`] writes it).
    pub fn new(bytes: &'a [u8], n: usize, codec: Codec) -> Result<Self, CodecError> {
        crate::codec::check_alloc(bytes, n)?;
        Ok(Self::over(BlockedList::parse(bytes, n)?, codec))
    }

    /// Open a cursor over an already parsed list.
    pub fn over(blocks: BlockedList<'a>, codec: Codec) -> Self {
        ListCursor {
            blocks,
            codec: codec.resolve(blocks.n_postings()),
            buf: Vec::new(),
            pos: 0,
            cur: 0,
            loaded: false,
            blocks_decoded: 0,
            scratch: Box::default(),
        }
    }

    /// Number of blocks actually decoded so far (the skip win is
    /// `blocks_total - blocks_decoded`).
    pub fn blocks_decoded(&self) -> u32 {
        self.blocks_decoded
    }

    /// Total blocks in the list.
    pub fn blocks_total(&self) -> usize {
        self.blocks.n_blocks()
    }

    /// Block-max metadata of the block the cursor currently sits in.
    pub fn current_block_max_tf(&self) -> Option<u32> {
        (self.loaded && self.cur < self.blocks.n_blocks())
            .then(|| self.blocks.entry(self.cur).max_tf)
    }

    fn load(&mut self, b: usize) -> Result<(), CodecError> {
        let e = self.blocks.entry(b);
        self.buf.clear();
        decode_block(
            self.codec,
            self.blocks.body(b)?,
            e.first_doc,
            self.blocks.len_of(b),
            &mut self.scratch,
            &mut self.buf,
        )?;
        self.cur = b;
        self.pos = 0;
        self.loaded = true;
        self.blocks_decoded += 1;
        Ok(())
    }

    /// Next posting in document order, or `None` at the end. Not an
    /// `Iterator`: decoding is fallible and the error must surface.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Posting>, CodecError> {
        loop {
            if self.loaded && self.pos < self.buf.len() {
                let p = self.buf[self.pos];
                self.pos += 1;
                return Ok(Some(p));
            }
            let nb = self.blocks.n_blocks();
            let next = if self.loaded { self.cur + 1 } else { self.cur };
            if next >= nb {
                return Ok(None);
            }
            self.load(next)?;
        }
    }

    /// Advance to the first posting with `doc >= target` and consume it.
    /// Blocks whose skip entry shows they end before `target` are jumped
    /// over without decoding.
    pub fn advance_to(&mut self, target: u32) -> Result<Option<Posting>, CodecError> {
        let nb = self.blocks.n_blocks();
        // Furthest block that could contain `target`: the last one whose
        // first_doc <= target (first_doc is strictly increasing across
        // blocks). Never move backwards.
        let base = if self.loaded { self.cur } else { 0 };
        let mut lo = base + 1;
        let mut hi = nb;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.blocks.entry(mid).first_doc <= target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let dest = lo - 1; // >= base
        if dest > base || !self.loaded {
            if dest >= nb {
                return Ok(None);
            }
            self.load(dest)?;
        }
        loop {
            while self.pos < self.buf.len() {
                let p = self.buf[self.pos];
                self.pos += 1;
                if p.doc.0 >= target {
                    return Ok(Some(p));
                }
            }
            let next = self.cur + 1;
            if next >= nb {
                return Ok(None);
            }
            self.load(next)?;
        }
    }
}

/// Cursor over one run entry: block-layout entries get real skip pointers,
/// legacy whole-list entries fall back to an eager decode.
#[derive(Debug)]
pub enum RunCursor<'a> {
    /// Lazy block cursor (blocked run files).
    Blocked(ListCursor<'a>),
    /// Eagerly decoded legacy list.
    Legacy {
        /// The decoded postings.
        postings: Vec<Posting>,
        /// Next index into `postings`.
        pos: usize,
    },
}

impl RunCursor<'_> {
    /// Next posting in document order (fallible, so not an `Iterator`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Posting>, CodecError> {
        match self {
            RunCursor::Blocked(c) => c.next(),
            RunCursor::Legacy { postings, pos } => {
                let p = postings.get(*pos).copied();
                *pos += 1;
                Ok(p)
            }
        }
    }

    /// Advance to the first posting with `doc >= target` and consume it.
    pub fn advance_to(&mut self, target: u32) -> Result<Option<Posting>, CodecError> {
        match self {
            RunCursor::Blocked(c) => c.advance_to(target),
            RunCursor::Legacy { postings, pos } => {
                let tail = postings.get(*pos..).unwrap_or(&[]);
                *pos += tail.partition_point(|p| p.doc.0 < target);
                let p = postings.get(*pos).copied();
                *pos += 1;
                Ok(p)
            }
        }
    }

    /// Blocks decoded so far (0 for legacy cursors).
    pub fn blocks_decoded(&self) -> u32 {
        match self {
            RunCursor::Blocked(c) => c.blocks_decoded(),
            RunCursor::Legacy { .. } => 0,
        }
    }

    /// Total blocks (0 for legacy cursors).
    pub fn blocks_total(&self) -> usize {
        match self {
            RunCursor::Blocked(c) => c.blocks_total(),
            RunCursor::Legacy { .. } => 0,
        }
    }
}

/// A term's postings across every run that contains it, in global document
/// order (runs cover disjoint, increasing document ranges by construction —
/// the pipeline's round-robin consumption order).
#[derive(Debug)]
pub struct SetCursor<'a> {
    parts: Vec<(u32, RunCursor<'a>)>, // (doc_max of the entry, cursor)
    idx: usize,
    df: u64,
}

impl<'a> SetCursor<'a> {
    /// Chain per-run cursors; `parts` must be in ascending doc-range order
    /// and carry each entry's `doc_max`.
    pub fn new(parts: Vec<(u32, RunCursor<'a>)>, df: u64) -> Self {
        SetCursor { parts, idx: 0, df }
    }

    /// Document frequency (total postings behind this cursor).
    pub fn df(&self) -> u64 {
        self.df
    }

    /// Next posting in global document order (fallible, so not an
    /// `Iterator`).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Posting>, CodecError> {
        while self.idx < self.parts.len() {
            if let Some(p) = self.parts[self.idx].1.next()? {
                return Ok(Some(p));
            }
            self.idx += 1;
        }
        Ok(None)
    }

    /// Advance to the first posting with `doc >= target` and consume it.
    pub fn advance_to(&mut self, target: u32) -> Result<Option<Posting>, CodecError> {
        while self.idx < self.parts.len() {
            let (doc_max, cur) = &mut self.parts[self.idx];
            if *doc_max < target {
                // Whole run entry is below the target: skip it entirely.
                self.idx += 1;
                continue;
            }
            if let Some(p) = cur.advance_to(target)? {
                return Ok(Some(p));
            }
            self.idx += 1;
        }
        Ok(None)
    }

    /// Blocks decoded across all parts.
    pub fn blocks_decoded(&self) -> u32 {
        self.parts.iter().map(|(_, c)| c.blocks_decoded()).sum()
    }

    /// Total blocks across all parts.
    pub fn blocks_total(&self) -> usize {
        self.parts.iter().map(|(_, c)| c.blocks_total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{encode_list, BLOCK_LEN};
    use ii_corpus::DocId;

    fn mklist(n: usize) -> Vec<Posting> {
        (0..n as u32).map(|i| Posting { doc: DocId(i * 3), tf: 1 + i % 4 }).collect()
    }

    #[test]
    fn cursor_streams_all_postings() {
        let list = mklist(300);
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::EliasFano] {
            let enc = encode_list(&list, codec);
            let mut c = ListCursor::new(&enc.bytes, 300, codec).unwrap();
            let mut got = Vec::new();
            while let Some(p) = c.next().unwrap() {
                got.push(p);
            }
            assert_eq!(got, list, "{codec:?}");
            assert_eq!(c.blocks_decoded(), 3);
        }
    }

    #[test]
    fn advance_skips_blocks_without_decoding() {
        let n = 20 * BLOCK_LEN;
        let list = mklist(n);
        let enc = encode_list(&list, Codec::Bp128);
        let mut c = ListCursor::new(&enc.bytes, n, Codec::Bp128).unwrap();
        // Jump straight to the last posting's doc.
        let last = list.last().unwrap();
        assert_eq!(c.advance_to(last.doc.0).unwrap(), Some(*last));
        assert_eq!(c.blocks_decoded(), 1, "only the landing block decodes");
        assert_eq!(c.blocks_total(), 20);
        assert_eq!(c.next().unwrap(), None);
    }

    #[test]
    fn advance_to_present_and_absent_targets() {
        let list = mklist(500);
        let enc = encode_list(&list, Codec::PFor);
        let mut c = ListCursor::new(&enc.bytes, 500, Codec::PFor).unwrap();
        // doc 3*77 exists.
        assert_eq!(c.advance_to(231).unwrap(), Some(list[77]));
        // 232 is absent: lands on the next larger doc.
        assert_eq!(c.advance_to(233).unwrap(), Some(list[78]));
        // Past the end.
        assert_eq!(c.advance_to(u32::MAX).unwrap(), None);
        assert_eq!(c.next().unwrap(), None);
    }

    #[test]
    fn advance_never_moves_backwards() {
        let list = mklist(300);
        let enc = encode_list(&list, Codec::Bp128);
        let mut c = ListCursor::new(&enc.bytes, 300, Codec::Bp128).unwrap();
        assert_eq!(c.advance_to(600).unwrap(), Some(list[200]));
        // A smaller target must not rewind: next posting is 201.
        assert_eq!(c.advance_to(0).unwrap(), Some(list[201]));
    }

    #[test]
    fn block_max_visible_mid_stream() {
        let mut list = mklist(256);
        list[200].tf = 77;
        let enc = encode_list(&list, Codec::Bp128);
        let mut c = ListCursor::new(&enc.bytes, 256, Codec::Bp128).unwrap();
        c.advance_to(list[200].doc.0).unwrap();
        assert_eq!(c.current_block_max_tf(), Some(77));
    }
}
