//! The pending postings of one run, as compressed slices per term.
//!
//! Every indexer — the CPU thread here, the host drain of a GPU's device
//! log — accumulates a run's postings term by term, in document order
//! (§III.F). A term's latest posting is held in its state, unwritten, so a
//! repeat in the same document bumps its term frequency in O(1). When the
//! term's next document arrives, the held posting is appended to the term's
//! byte stream, varbyte-coded, and the new one is held. A term seen in one
//! document this run has no stream at all.
//!
//! The streams live in slices cut from one pooled arena, as Asadi & Lin hold
//! their in-memory postings: a term's first slice is [`FIRST_SLICE`] bytes
//! and each further slice twice the size of the last, so a term of n
//! postings spends O(log n) links and at most about half its last slice.
//! Until a slice fills, its last byte is a non-zero marker (the slice's
//! level + 1) in zeroed bytes; the write that meets it cuts the next slice,
//! moves the three bytes before the marker there and overwrites those four
//! bytes with the next slice's offset. At the end of the run
//! [`PostingLog::flush_run`] walks the handles in order, decodes each
//! term's stream and hands the list to the run writer.

use ii_corpus::DocId;
use ii_postings::{Codec, Posting, RunBuilder, RunFile};

/// `Term::head` of a handle with no posting this run.
const VACANT: u32 = u32::MAX;
/// `Term::head` of a term whose one posting this run is held: no slice yet.
const HELD: u32 = u32::MAX - 1;

/// Bytes of a term's first slice; slice `l` holds `FIRST_SLICE << l`.
const FIRST_SLICE: usize = 8;

/// One handle's pending postings: the held (latest) posting and, from its
/// second document on, the first slice of its stream and the offset of the
/// stream's next byte.
///
/// The stream of postings `(d1, t1) … (dn, tn)`, `(dn, tn)` held, is
/// `v(d1)` and then, for each `i < n`, `v((d(i+1) - di) << 1 | [ti == 1])`
/// followed by `v(ti)` when `ti != 1`; `v` is LEB128 varbyte (seven bits a
/// byte, low bits first).
#[derive(Clone, Copy, Debug)]
struct Term {
    doc: u32,
    tf: u32,
    /// [`VACANT`], [`HELD`] or the offset of the first slice.
    head: u32,
    tail: u32,
}

/// The state of a handle with no posting this run.
const UNTOUCHED: Term = Term { doc: 0, tf: 0, head: VACANT, tail: 0 };

/// One run's pending postings: [`Term`]'s 16 bytes per handle and the
/// slices (3–5 bytes per posting beyond each term's first on the ledger's
/// collections, slack included). Handles index a dense array, as the
/// dictionary allots them (0, 1, 2, …).
#[derive(Clone, Debug, Default)]
pub struct PostingLog {
    /// Per handle, its pending postings.
    terms: Vec<Term>,
    /// Every term's slices.
    arena: Vec<u8>,
    /// Handles with a posting this run.
    lists: usize,
    /// Postings pending.
    len: usize,
}

impl PostingLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one occurrence of term `handle` in `doc`: bumps the term
    /// frequency when `doc` is the term's latest document, appends a posting
    /// otherwise. `doc` must be >= the term's latest document.
    pub fn add_occurrence(&mut self, handle: u32, doc: DocId) {
        if let Some(t) = self.terms.get_mut(handle as usize) {
            if t.head != VACANT && t.doc == doc.0 {
                t.tf += 1;
                return;
            }
        }
        self.push(handle, Posting { doc, tf: 1 });
    }

    /// Append an already-aggregated posting of term `handle` (the drain of
    /// a device log). Its document must follow the term's latest one.
    pub fn push(&mut self, handle: u32, posting: Posting) {
        let slot = handle as usize;
        if slot >= self.terms.len() {
            self.terms.resize(slot + 1, UNTOUCHED);
        }
        self.len += 1;
        let t = &mut self.terms[slot];
        if t.head == VACANT {
            *t = Term { doc: posting.doc.0, tf: posting.tf, head: HELD, tail: 0 };
            self.lists += 1;
            return;
        }
        assert!(
            posting.doc.0 > t.doc,
            "postings must arrive in document order: {} after {}",
            posting.doc,
            DocId(t.doc)
        );
        let arena = &mut self.arena;
        if t.head == HELD {
            t.head = cut_slice(arena, 0);
            t.tail = t.head;
            put_varint(arena, &mut t.tail, u64::from(t.doc));
        }
        let gap = u64::from(posting.doc.0 - t.doc);
        put_varint(arena, &mut t.tail, gap << 1 | u64::from(t.tf == 1));
        if t.tf != 1 {
            put_varint(arena, &mut t.tail, u64::from(t.tf));
        }
        (t.doc, t.tf) = (posting.doc.0, posting.tf);
    }

    /// Postings pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Resident bytes the memory governor charges for the pending postings:
    /// one [`Posting`] each. The formula predates the slices and is kept —
    /// not the log's own size, [`Self::heap_bytes`] — because where a budget
    /// binds is a function of it: a new figure would move the early flushes
    /// of every budgeted build. Deterministic: a function of the documents
    /// indexed since the last flush, never of how the slices were cut.
    pub fn mem_bytes(&self) -> u64 {
        (self.len * std::mem::size_of::<Posting>()) as u64
    }

    /// Bytes the log holds: the slices cut this run and each handle's
    /// state. A function of the postings since the last flush and of the
    /// highest handle this log has seen, not of how its vectors grew.
    pub fn heap_bytes(&self) -> u64 {
        (self.arena.len() + self.terms.len() * std::mem::size_of::<Term>()) as u64
    }

    /// The pending postings of `handle`, in document order.
    pub fn postings_of(&self, handle: u32) -> Vec<Posting> {
        let mut list = Vec::new();
        if let Some(t) = self.terms.get(handle as usize).filter(|t| t.head != VACANT) {
            decode_into(&self.arena, t, &mut Vec::new(), &mut list);
        }
        list
    }

    /// End-of-run flush: encode every handle's postings into a run file and
    /// empty the log (handles remain valid; later runs append new partial
    /// lists under the same handles). Walks the handles in ascending order
    /// and decodes each touched term's stream into one reused list:
    /// O(stream bytes + handles).
    pub fn flush_run(&mut self, run_id: u32, indexer_id: u32, codec: Codec) -> RunFile {
        let mut run = RunBuilder::new(run_id, indexer_id, codec, self.lists);
        let (mut bytes, mut list) = (Vec::new(), Vec::new());
        for (handle, t) in self.terms.iter_mut().enumerate() {
            if t.head != VACANT {
                decode_into(&self.arena, t, &mut bytes, &mut list);
                run.push_list(handle as u32, &list);
                t.head = VACANT;
            }
        }
        self.arena.clear();
        self.lists = 0;
        self.len = 0;
        run.finish()
    }
}

/// Cut a zeroed slice of level `level` off the end of `arena`, its marker
/// in its last byte, and return its offset.
fn cut_slice(arena: &mut Vec<u8>, level: u8) -> u32 {
    let start = arena.len();
    let end = start + (FIRST_SLICE << level);
    let offset = u32::try_from(end).map(|_| start as u32);
    let offset = offset.expect("a run's slices fit below 4 GiB");
    arena.resize(end, 0);
    arena[end - 1] = level + 1;
    offset
}

/// Write `byte` at `*tail` and advance it; a marker there means the slice
/// is full, so the byte goes to the next slice, twice the size, linked in.
fn put_byte(arena: &mut Vec<u8>, tail: &mut u32, byte: u8) {
    let mut at = *tail as usize;
    let marker = arena[at];
    if marker != 0 {
        let next = cut_slice(arena, marker);
        let to = next as usize;
        arena.copy_within(at - 3..at, to);
        arena[at - 3..=at].copy_from_slice(&next.to_le_bytes());
        at = to + 3;
    }
    arena[at] = byte;
    *tail = at as u32 + 1;
}

/// Append `v` as LEB128 varbyte.
fn put_varint(arena: &mut Vec<u8>, tail: &mut u32, mut v: u64) {
    while v >= 0x80 {
        put_byte(arena, tail, v as u8 | 0x80);
        v >>= 7;
    }
    put_byte(arena, tail, v as u8);
}

/// Read one LEB128 value of `bytes` at `*at`, and advance past it.
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0u64, 0);
    loop {
        let b = bytes[*at];
        *at += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Replace `list` with `t`'s postings in document order, its stream copied
/// out of the slices into `bytes` first.
fn decode_into(arena: &[u8], t: &Term, bytes: &mut Vec<u8>, list: &mut Vec<Posting>) {
    bytes.clear();
    list.clear();
    if t.head != HELD {
        let (tail, mut start, mut level) = (t.tail as usize, t.head as usize, 0);
        loop {
            let end = start + (FIRST_SLICE << level);
            if (start..end).contains(&tail) {
                bytes.extend_from_slice(&arena[start..tail]);
                break;
            }
            bytes.extend_from_slice(&arena[start..end - 4]);
            start = u32::from_le_bytes(arena[end - 4..end].try_into().unwrap()) as usize;
            level += 1;
        }
        let mut at = 0;
        let mut doc = get_varint(bytes, &mut at) as u32;
        while at < bytes.len() {
            let code = get_varint(bytes, &mut at);
            let tf = if code & 1 == 1 { 1 } else { get_varint(bytes, &mut at) as u32 };
            list.push(Posting { doc: DocId(doc), tf });
            doc += (code >> 1) as u32;
        }
        debug_assert_eq!(doc, t.doc, "the stream's gaps end at the held document");
    }
    list.push(Posting { doc: DocId(t.doc), tf: t.tf });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occurrences_aggregate_by_doc_and_flush_groups_by_handle() {
        let mut log = PostingLog::new();
        for (handle, doc) in [(3, 1), (0, 1), (3, 1), (3, 4), (0, 2), (3, 4), (3, 4)] {
            log.add_occurrence(handle, DocId(doc));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.mem_bytes(), 4 * 8);
        let p = |doc, tf| Posting { doc: DocId(doc), tf };
        assert_eq!(log.postings_of(3), vec![p(1, 2), p(4, 3)]);
        let run = log.flush_run(7, 2, Codec::VarByte);
        assert_eq!((run.run_id, run.indexer_id), (7, 2));
        let handles: Vec<u32> = run.entries.iter().map(|e| e.handle).collect();
        assert_eq!(handles, vec![0, 3]);
        assert_eq!(run.get(0).unwrap(), vec![p(1, 1), p(2, 1)]);
        assert_eq!(run.get(3).unwrap(), vec![p(1, 2), p(4, 3)]);
        // Drained: the same handle starts a new partial list, and a document
        // below the flushed ones is in order again.
        assert!(log.is_empty());
        log.add_occurrence(3, DocId(0));
        assert_eq!(log.flush_run(8, 2, Codec::VarByte).get(3).unwrap(), vec![p(0, 1)]);
    }

    #[test]
    fn one_posting_is_held_and_a_stream_grows_by_doubling_slices() {
        let mut log = PostingLog::new();
        log.add_occurrence(5, DocId(9));
        // The held posting costs only its handle's state.
        assert_eq!(log.heap_bytes(), 6 * 16);
        log.add_occurrence(5, DocId(10));
        assert_eq!(log.heap_bytes(), 6 * 16 + 8, "the second document cuts a first slice");
        // One-byte codes: a slice of level l holds (8 << l) - 4 bytes once
        // linked, so the 41 bytes of 40 appended postings reach the third.
        for doc in 11..50 {
            log.add_occurrence(5, DocId(doc));
        }
        assert_eq!(log.heap_bytes(), 6 * 16 + 8 + 16 + 32);
        let want: Vec<Posting> = (9..50).map(|doc| Posting { doc: DocId(doc), tf: 1 }).collect();
        assert_eq!(log.postings_of(5), want);
        log.flush_run(0, 0, Codec::VarByte);
        assert_eq!(log.heap_bytes(), 6 * 16, "a flush keeps only the handles' states");
    }

    #[test]
    #[should_panic(expected = "document order")]
    fn out_of_order_rejected() {
        let mut log = PostingLog::new();
        log.add_occurrence(1, DocId(5));
        log.add_occurrence(1, DocId(2));
    }
}
