//! Skip-pointer cursors over block-layout postings.
//!
//! A [`ListCursor`] walks one encoded list lazily: blocks are decoded only
//! when entered, and [`ListCursor::advance_to`] uses the skip table to jump
//! over blocks whose document range cannot contain the target — the
//! conjunctive-query fast path the block layout exists for. A [`SetCursor`]
//! chains a term's partial lists across runs and is lazy one level up: a
//! run part is opened only when iteration or `advance_to` reaches it, and a
//! part of one posting is served from its mapping-table row without a
//! cursor of its own. The `blocks_decoded` counters make the skipping
//! observable in tests and query stats.

use crate::block::{BlockScratch, BlockedList};
use crate::codec::{Codec, CodecError};
use crate::posting::Posting;
use crate::run::{RunEntry, RunFile};

/// What a block cursor decodes with and into. Owned by the cursor while it
/// is open; a [`SetCursor`] hands it from each run part to the next, so a
/// term costs one of these however many runs hold it.
#[derive(Debug, Default)]
pub(crate) struct DecodeBufs {
    /// Decoded postings of the current block.
    postings: Vec<Posting>,
    /// Boxed: the fixed decode arrays are ~1 KiB and cursors move through
    /// options and collections by value. Allocated by the first block that
    /// has a body to decode.
    scratch: Option<Box<BlockScratch>>,
}

/// Lazy decoding cursor over one block-layout list.
#[derive(Debug)]
pub struct ListCursor<'a> {
    blocks: BlockedList<'a>,
    codec: Codec,
    /// `bufs.postings` holds block `cur` once `loaded`.
    bufs: DecodeBufs,
    /// Next index into `bufs.postings`.
    pos: usize,
    /// Block index the buffer holds, or `n_blocks` when exhausted/unloaded.
    cur: usize,
    loaded: bool,
    blocks_decoded: u32,
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
        Self::reusing(blocks, codec, DecodeBufs::default())
    }

    /// [`Self::over`], decoding through buffers an earlier cursor is done
    /// with.
    pub(crate) fn reusing(blocks: BlockedList<'a>, codec: Codec, mut bufs: DecodeBufs) -> Self {
        bufs.postings.clear();
        ListCursor {
            blocks,
            codec: codec.resolve(blocks.n_postings()),
            bufs,
            pos: 0,
            cur: 0,
            loaded: false,
            blocks_decoded: 0,
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
        self.bufs.postings.clear();
        self.blocks.decode_block_into(
            b,
            self.codec,
            &mut self.bufs.scratch,
            &mut self.bufs.postings,
        )?;
        self.cur = b;
        self.pos = 0;
        self.loaded = true;
        self.blocks_decoded += 1;
        Ok(())
    }

    /// The next posting of the decoded block, if it has one left (the
    /// buffer is empty until a block is loaded).
    #[inline]
    fn buffered(&mut self) -> Option<Posting> {
        let p = *self.bufs.postings.get(self.pos)?;
        self.pos += 1;
        Some(p)
    }

    /// Next posting in document order, or `None` at the end. Not an
    /// `Iterator`: decoding is fallible and the error must surface.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Posting>, CodecError> {
        loop {
            if let Some(p) = self.buffered() {
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
            while self.pos < self.bufs.postings.len() {
                let p = self.bufs.postings[self.pos];
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

/// A term's postings across every run that contains it, in global document
/// order (runs cover disjoint, increasing document ranges by construction —
/// the pipeline's round-robin consumption order).
///
/// Set-up only finds the mapping-table rows. One part is open at a time: its
/// cursor is built when iteration or [`Self::advance_to`] reaches it, and a
/// part that ends below an `advance_to` target is never opened at all. A
/// part of one posting is its row ([`RunEntry::sole_posting`]): reaching it
/// counts as a part opened and a block decoded, and allocates nothing.
#[derive(Debug)]
pub struct SetCursor<'a> {
    /// The run and row of every partial list, ascending in document range.
    parts: Vec<(&'a RunFile, RunEntry)>,
    /// The part `open` reads, else the next one to open.
    idx: usize,
    open: Option<ListCursor<'a>>,
    /// Decode buffers on their way from a closed part to the next one.
    spare: Option<DecodeBufs>,
    df: u64,
    blocks_total: usize,
    /// Blocks decoded by the parts already closed.
    blocks_decoded: u32,
    parts_opened: usize,
}

impl<'a> SetCursor<'a> {
    /// A cursor over the partial lists of `handle` in `runs` (run order, so
    /// ascending document ranges). `None` when no run holds the handle.
    pub fn over(runs: &'a [RunFile], handle: u32) -> Option<Self> {
        Self::over_parts(runs, u64::MAX, handle, |_| true)
    }

    /// [`Self::over`] restricted to the parts whose row `keep` accepts;
    /// the others count towards nothing, as if their runs lacked the handle.
    /// Only the runs whose bit `position % 64` is set in `holders` are
    /// searched for the handle: the caller vouches that no other run's
    /// table has it (`RunSet::track_holders`).
    pub(crate) fn over_parts(
        runs: &'a [RunFile],
        holders: u64,
        handle: u32,
        keep: impl Fn(&RunEntry) -> bool,
    ) -> Option<Self> {
        if holders == 0 {
            return None;
        }
        let mut parts = Vec::with_capacity(runs.len().min(holders.count_ones() as usize));
        let (mut df, mut blocks_total) = (0u64, 0usize);
        for (position, run) in runs.iter().enumerate() {
            if holders >> (position % 64) & 1 == 0 {
                continue;
            }
            if let Some(e) = run.entry(handle).filter(|e| keep(e)) {
                df += u64::from(e.n_postings);
                blocks_total += crate::block::n_blocks(e.n_postings as usize);
                parts.push((run, e));
            }
        }
        (!parts.is_empty()).then_some(SetCursor {
            parts,
            idx: 0,
            open: None,
            spare: None,
            df,
            blocks_total,
            blocks_decoded: 0,
            parts_opened: 0,
        })
    }

    /// Document frequency (total postings behind this cursor).
    pub fn df(&self) -> u64 {
        self.df
    }

    /// The cursor of part `idx`, opened now if it was not; `None` past the
    /// last part.
    fn current(&mut self) -> Result<Option<&mut ListCursor<'a>>, CodecError> {
        if self.open.is_none() {
            let Some(&(run, e)) = self.parts.get(self.idx) else { return Ok(None) };
            let blocks = run.blocks_of(&e)?;
            let bufs = self.spare.take().unwrap_or_default();
            self.open = Some(ListCursor::reusing(blocks, e.codec, bufs));
            self.parts_opened += 1;
        }
        Ok(self.open.as_mut())
    }

    /// Leave part `idx`, opened or not.
    fn pass(&mut self) {
        if let Some(c) = self.open.take() {
            self.blocks_decoded += c.blocks_decoded();
            self.spare = Some(c.bufs);
        }
        self.idx += 1;
    }

    /// Next posting in global document order (fallible, so not an
    /// `Iterator`).
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Result<Option<Posting>, CodecError> {
        // Inlined into the caller's loop: one bounds check per posting while
        // the open part's decoded block lasts.
        if let Some(p) = self.open.as_mut().and_then(ListCursor::buffered) {
            return Ok(Some(p));
        }
        self.next_decoding()
    }

    /// The posting of part `idx` when that part is one posting and is not
    /// open: the part is counted as opened and decoded, and left behind.
    fn take_sole_posting(&mut self) -> Option<Posting> {
        if self.open.is_some() {
            return None;
        }
        let p = self.parts.get(self.idx)?.1.sole_posting()?;
        self.parts_opened += 1;
        self.blocks_decoded += 1;
        self.idx += 1;
        Some(p)
    }

    /// [`Self::next`] when a block or a part has to be decoded first.
    fn next_decoding(&mut self) -> Result<Option<Posting>, CodecError> {
        loop {
            if let Some(p) = self.take_sole_posting() {
                return Ok(Some(p));
            }
            let Some(cur) = self.current()? else { return Ok(None) };
            if let Some(p) = cur.next()? {
                return Ok(Some(p));
            }
            self.pass();
        }
    }

    /// Advance to the first posting with `doc >= target` and consume it.
    pub fn advance_to(&mut self, target: u32) -> Result<Option<Posting>, CodecError> {
        loop {
            // Whole parts below the target are passed by their row alone.
            while self.parts.get(self.idx).is_some_and(|(_, e)| e.doc_max < target) {
                self.pass();
            }
            // A one-posting part still here holds `doc_max >= target`.
            if let Some(p) = self.take_sole_posting() {
                return Ok(Some(p));
            }
            let Some(cur) = self.current()? else { return Ok(None) };
            if let Some(p) = cur.advance_to(target)? {
                return Ok(Some(p));
            }
            self.pass();
        }
    }

    /// Blocks decoded across all parts.
    pub fn blocks_decoded(&self) -> u32 {
        self.blocks_decoded + self.open.as_ref().map_or(0, ListCursor::blocks_decoded)
    }

    /// Total blocks across all parts, opened or not.
    pub fn blocks_total(&self) -> usize {
        self.blocks_total
    }

    /// Runs holding a partial list of the term.
    pub fn parts(&self) -> usize {
        self.parts.len()
    }

    /// Parts opened so far.
    pub fn parts_opened(&self) -> usize {
        self.parts_opened
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{encode_list, BLOCK_LEN};
    use crate::posting::PostingsList;
    use ii_corpus::DocId;

    fn mklist(n: usize) -> Vec<Posting> {
        (0..n as u32).map(|i| Posting { doc: DocId(i * 3), tf: 1 + i % 4 }).collect()
    }

    #[test]
    fn cursor_streams_all_postings() {
        let list = mklist(300);
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor] {
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

    /// `n_parts` runs, each holding `per_part` postings of handle 7 (and a
    /// decoy list under handle 3), part `r` covering docs from `r * 10_000`.
    fn runs_of(n_parts: u32, per_part: usize) -> (Vec<RunFile>, Vec<Vec<Posting>>) {
        let parts: Vec<Vec<Posting>> = (0..n_parts)
            .map(|r| {
                let mut part = mklist(per_part);
                part.iter_mut().for_each(|p| p.doc.0 += r * 10_000);
                part
            })
            .collect();
        let runs = parts
            .iter()
            .enumerate()
            .map(|(r, part)| {
                let lists: [(u32, PostingsList); 2] =
                    [(3, mklist(5).into_iter().collect()), (7, part.iter().copied().collect())];
                RunFile::build(r as u32, 0, &mut lists.iter().map(|(h, l)| (*h, l)), Codec::Auto)
            })
            .collect();
        (runs, parts)
    }

    fn drain(c: &mut SetCursor<'_>) -> Result<Vec<Posting>, CodecError> {
        let mut got = Vec::new();
        while let Some(p) = c.next()? {
            got.push(p);
        }
        Ok(got)
    }

    #[test]
    fn set_cursor_streams_what_eager_list_cursors_chain() {
        for per_part in [1, 100, 300] {
            let (runs, _) = runs_of(5, per_part);
            let mut eager = Vec::new();
            for run in &runs {
                let e = run.entry(7).unwrap();
                let mut c = ListCursor::over(run.blocks_of(&e).unwrap(), e.codec);
                while let Some(p) = c.next().unwrap() {
                    eager.push(p);
                }
            }
            let mut c = SetCursor::over(&runs, 7).unwrap();
            assert_eq!(drain(&mut c).unwrap(), eager);
            assert_eq!((c.parts(), c.parts_opened()), (5, 5));
            assert_eq!(c.blocks_decoded() as usize, c.blocks_total());
            assert_eq!(c.next().unwrap(), None, "stays exhausted");
        }
        assert!(SetCursor::over(&runs_of(3, 10).0, 99).is_none());
    }

    #[test]
    fn set_cursor_knows_df_and_blocks_before_reading_anything() {
        let (runs, _) = runs_of(4, 300);
        let c = SetCursor::over(&runs, 7).unwrap();
        assert_eq!(c.df(), 1200);
        assert_eq!(c.blocks_total(), 4 * 3);
        assert_eq!((c.parts(), c.parts_opened(), c.blocks_decoded()), (4, 0, 0));
    }

    #[test]
    fn advance_past_whole_parts_opens_none_of_them() {
        let (runs, parts) = runs_of(6, 300);
        let mut c = SetCursor::over(&runs, 7).unwrap();
        // Into part 4, over parts 0..=3 without opening one.
        let want = parts[4][200];
        assert_eq!(c.advance_to(want.doc.0).unwrap(), Some(want));
        assert_eq!(c.parts_opened(), 1);
        assert_eq!(c.blocks_decoded(), 1, "only the landing block of part 4");
        assert_eq!(c.blocks_total(), 6 * 3, "skipped parts still count");
        // Between two parts: part 4 is left behind, part 5 answers.
        assert_eq!(c.advance_to(parts[4][299].doc.0 + 1).unwrap(), Some(parts[5][0]));
        assert_eq!((c.parts_opened(), c.blocks_decoded()), (2, 2));
        assert_eq!(c.next().unwrap(), Some(parts[5][1]));
        assert_eq!(c.advance_to(u32::MAX).unwrap(), None);
        assert_eq!(c.next().unwrap(), None);
        // A part already open but wholly below the target decodes no more.
        let mut c = SetCursor::over(&runs, 7).unwrap();
        assert_eq!(c.next().unwrap(), Some(parts[0][0]));
        assert_eq!(c.advance_to(parts[5][0].doc.0).unwrap(), Some(parts[5][0]));
        assert_eq!((c.parts_opened(), c.blocks_decoded()), (2, 2));
    }

    #[test]
    fn one_posting_parts_are_served_from_their_rows() {
        let (runs, parts) = runs_of(4, 1);
        assert!(runs.iter().all(|r| r.entry(7).unwrap().len == 0));
        let mut c = SetCursor::over(&runs, 7).unwrap();
        assert_eq!((c.df(), c.blocks_total()), (4, 4));
        assert_eq!(c.next().unwrap(), Some(parts[0][0]));
        assert_eq!((c.parts_opened(), c.blocks_decoded()), (1, 1), "a row counts as a block");
        // Part 1 is passed by its row; part 2's posting is the target.
        assert_eq!(c.advance_to(parts[2][0].doc.0).unwrap(), Some(parts[2][0]));
        assert_eq!((c.parts_opened(), c.blocks_decoded()), (2, 2));
        // A target between two parts lands on the later one.
        assert_eq!(c.advance_to(parts[2][0].doc.0 + 1).unwrap(), Some(parts[3][0]));
        assert_eq!(c.next().unwrap(), None);
        assert_eq!(c.advance_to(0).unwrap(), None);
        assert_eq!((c.parts_opened(), c.blocks_decoded()), (3, 3));
        // Between block-coded parts: long, one, two, one postings.
        let sizes = [300usize, 1, 2, 1];
        let lists: Vec<Vec<Posting>> = sizes
            .iter()
            .enumerate()
            .map(|(r, &n)| mklist(n).iter().map(|p| Posting { doc: DocId(p.doc.0 + r as u32 * 10_000), ..*p }).collect())
            .collect();
        let runs: Vec<RunFile> = lists
            .iter()
            .enumerate()
            .map(|(r, l)| {
                let list: PostingsList = l.iter().copied().collect();
                let mut it = std::iter::once((7u32, &list));
                RunFile::build(r as u32, 0, &mut it, Codec::Auto)
            })
            .collect();
        let mut c = SetCursor::over(&runs, 7).unwrap();
        assert_eq!(drain(&mut c).unwrap(), lists.concat());
        assert_eq!((c.parts_opened(), c.blocks_decoded() as usize, c.blocks_total()), (4, 6, 6));
        let mut c = SetCursor::over(&runs, 7).unwrap();
        assert_eq!(c.advance_to(299 * 3).unwrap(), Some(lists[0][299]));
        assert_eq!(c.advance_to(20_003).unwrap(), Some(lists[2][1]));
        assert_eq!(c.next().unwrap(), Some(lists[3][0]));
        assert_eq!((c.parts_opened(), c.blocks_decoded()), (3, 3));
    }

    #[test]
    fn decode_error_in_a_later_part_surfaces_when_reached() {
        let (mut runs, parts) = runs_of(3, 40);
        // Unterminate the last varbyte value of part 1's list.
        let e = runs[1].entry(7).unwrap();
        runs[1].payload[(e.offset + u64::from(e.len)) as usize - 1] ^= 0x80;
        let mut c = SetCursor::over(&runs, 7).expect("set-up reads rows, not payloads");
        for want in &parts[0] {
            assert_eq!(c.next().unwrap(), Some(*want));
        }
        assert_eq!(c.next(), Err(CodecError::Truncated));
        assert_eq!(c.parts_opened(), 2);
        // Skipping the bad part by its row never touches its bytes.
        let mut c = SetCursor::over(&runs, 7).unwrap();
        assert_eq!(c.advance_to(parts[2][0].doc.0).unwrap(), Some(parts[2][0]));
    }
}
