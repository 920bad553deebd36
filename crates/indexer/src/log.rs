//! The pending postings of one run, as one log instead of one list per term.
//!
//! Every indexer — the CPU thread here, the GPU kernel on its device —
//! accumulates a run's postings as `(handle, doc, tf)` records in arrival
//! order: one contiguous vector per run, not a heap vector per term. A
//! per-handle index of each term's latest record is all the CPU path needs
//! to bump a term frequency. At the end of the run [`PostingLog::flush_run`]
//! groups the records by handle with one stable counting sort and hands each
//! group to the run writer; within a handle the records keep their arrival
//! order, which is document order (§III.F).

use ii_corpus::DocId;
use ii_postings::{Codec, Posting, RunBuilder, RunFile};

/// "No record this run" in [`PostingLog::last`].
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Record {
    handle: u32,
    posting: Posting,
}

/// One run's pending postings. Handles index a dense array, as the
/// dictionary allots them (0, 1, 2, …).
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
        self.last[slot] = u32::try_from(self.records.len()).expect("a run's records fit a u32");
        self.records.push(Record { handle, posting });
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

    /// The pending postings of `handle`, in document order. A scan of the
    /// whole log: for tests, not for the indexing path.
    pub fn postings_of(&self, handle: u32) -> Vec<Posting> {
        self.records.iter().filter(|r| r.handle == handle).map(|r| r.posting).collect()
    }

    /// End-of-run flush: encode every handle's postings into a run file and
    /// empty the log (handles remain valid; later runs append new partial
    /// lists under the same handles).
    pub fn flush_run(&mut self, run_id: u32, indexer_id: u32, codec: Codec) -> RunFile {
        // Stable counting sort on handle. `slot[h]` starts as the first slot
        // of handle h's group and ends one past its last.
        let mut slot = vec![0u32; self.last.len()];
        for r in &self.records {
            slot[r.handle as usize] += 1;
        }
        let (mut lists, mut next) = (0usize, 0u32);
        for s in &mut slot {
            let n = *s;
            *s = next;
            next += n;
            lists += usize::from(n > 0);
        }
        let mut sorted = vec![Posting { doc: DocId(0), tf: 0 }; self.records.len()];
        for r in &self.records {
            let s = &mut slot[r.handle as usize];
            sorted[*s as usize] = r.posting;
            *s += 1;
        }
        let mut run = RunBuilder::new(run_id, indexer_id, codec, lists);
        let mut start = 0usize;
        for (handle, &end) in slot.iter().enumerate() {
            let end = end as usize;
            if end > start {
                run.push_list(handle as u32, &sorted[start..end]);
                start = end;
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
