//! The pending postings of one run, as one threaded log instead of one
//! list per term.
//!
//! Every indexer — the CPU thread here, the GPU kernel on its device —
//! accumulates a run's postings as records in arrival order: one contiguous
//! vector per run, not a heap vector per term. Each record holds its
//! posting and the index of its term's previous record, and a per-handle
//! index of each term's latest record heads the chain; that is all the CPU
//! path needs to bump a term frequency. At the end of the run
//! [`PostingLog::flush_run`] walks each handle's chain from its latest
//! record back, reverses it into document order (§III.F) and hands it to
//! the run writer: no sort and no copy of the log.

use ii_corpus::DocId;
use ii_postings::{Codec, Posting, RunBuilder, RunFile};

/// "No record": the end of a chain, or a handle with none this run.
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Record {
    /// The index in `records` of the same term's previous record, or
    /// [`NONE`] for its first this run.
    prev: u32,
    posting: Posting,
}

/// One run's pending postings: 12 bytes per record plus 4 per handle.
/// Handles index a dense array, as the dictionary allots them (0, 1, 2, …).
#[derive(Clone, Debug, Default)]
pub struct PostingLog {
    records: Vec<Record>,
    /// Per handle, the index in `records` of its latest record, or [`NONE`].
    last: Vec<u32>,
}

impl PostingLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty log with room for `records` records over handles `0..handles`.
    pub fn with_capacity(records: usize, handles: usize) -> Self {
        PostingLog { records: Vec::with_capacity(records), last: vec![NONE; handles] }
    }

    /// Record one occurrence of term `handle` in `doc`: bumps the term
    /// frequency when `doc` is the term's latest document, appends a record
    /// otherwise. `doc` must be >= the term's latest document.
    pub fn add_occurrence(&mut self, handle: u32, doc: DocId) {
        if let Some(&at) = self.last.get(handle as usize) {
            if at != NONE && self.records[at as usize].posting.doc == doc {
                self.records[at as usize].posting.tf += 1;
                return;
            }
        }
        self.push(handle, Posting { doc, tf: 1 });
    }

    /// Append an already-aggregated posting of term `handle` (the drain of
    /// a device log). Its document must follow the term's latest one.
    pub fn push(&mut self, handle: u32, posting: Posting) {
        let slot = handle as usize;
        if slot >= self.last.len() {
            self.last.resize(slot + 1, NONE);
        }
        if self.last[slot] != NONE {
            let latest = self.records[self.last[slot] as usize].posting.doc;
            assert!(
                posting.doc > latest,
                "postings must arrive in document order: {} after {}",
                posting.doc,
                latest
            );
        }
        let at = u32::try_from(self.records.len()).ok().filter(|&at| at != NONE);
        let at = at.expect("a run's records fit below u32::MAX");
        let prev = std::mem::replace(&mut self.last[slot], at);
        self.records.push(Record { prev, posting });
    }

    /// Postings pending (one per record).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Resident bytes the memory governor charges for the pending postings:
    /// one [`Posting`] per record. The formula predates the log and is kept
    /// — not the records' own size — so that every budget decision, early
    /// flush and high-water figure of a build is what it was. Deterministic:
    /// a function of the documents indexed since the last flush.
    pub fn mem_bytes(&self) -> u64 {
        (self.records.len() * std::mem::size_of::<Posting>()) as u64
    }

    /// The pending postings of `handle`, in document order.
    pub fn postings_of(&self, handle: u32) -> Vec<Posting> {
        let mut list = Vec::new();
        self.chain_into(self.last.get(handle as usize).copied().unwrap_or(NONE), &mut list);
        list
    }

    /// Replace `list` with the chain that ends at record `at`, in document
    /// order: the walk goes from the latest record back, so it reverses.
    fn chain_into(&self, mut at: u32, list: &mut Vec<Posting>) {
        list.clear();
        while at != NONE {
            let r = self.records[at as usize];
            list.push(r.posting);
            at = r.prev;
        }
        list.reverse();
    }

    /// End-of-run flush: encode every handle's postings into a run file and
    /// empty the log (handles remain valid; later runs append new partial
    /// lists under the same handles). Walks the handles in ascending order
    /// and each one's chain into one reused list: O(postings + handles).
    pub fn flush_run(&mut self, run_id: u32, indexer_id: u32, codec: Codec) -> RunFile {
        let lists = self.last.iter().filter(|&&at| at != NONE).count();
        let mut run = RunBuilder::new(run_id, indexer_id, codec, lists);
        let mut list = Vec::new();
        for (handle, &at) in self.last.iter().enumerate() {
            if at != NONE {
                self.chain_into(at, &mut list);
                run.push_list(handle as u32, &list);
            }
        }
        self.records.clear();
        self.last.fill(NONE);
        run.finish()
    }
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
    #[should_panic(expected = "document order")]
    fn out_of_order_rejected() {
        let mut log = PostingLog::new();
        log.add_occurrence(1, DocId(5));
        log.add_occurrence(1, DocId(2));
    }
}
