//! Frozen posting-log reference: `PostingLog` as it was while
//! `flush_run` grouped a run's records with a stable counting sort. Each
//! 12-byte record carries its `handle`; flush counts the records per handle
//! into a `slot` array, scatters every posting into a `sorted` copy and
//! hands each handle's slice to the run writer. The product now threads
//! each term's records into a chain and flushes along it, with no copy;
//! `tests/posting_log_diff.rs` holds it to this module on seeded random
//! sequences, run bytes and pending postings alike. Do not optimise it —
//! its value is that it stays the old code.

use ii_core::corpus::DocId;
use ii_core::postings::{Codec, Posting, RunBuilder, RunFile};

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
