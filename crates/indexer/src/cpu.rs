//! The CPU indexer (paper §III.D.1).
//!
//! A single CPU thread owning a set of popular trie collections: for every
//! incoming `<term, doc>` tuple it inserts the term into the collection's
//! B-tree (string caches included) and records the occurrence in the run's
//! posting log.
//! Zipf-head collections are CPU-friendly because the B-tree paths to the
//! few dominant terms stay hot in cache.

use crate::log::PostingLog;
use crate::stats::WorkloadStats;
use ii_dict::PartialDictionary;
use ii_obs::{TraceKind, TraceSink};
use ii_postings::{Codec, RunFile};
use ii_text::TrieGroup;

/// One CPU indexing thread's state.
#[derive(Clone, Debug)]
pub struct CpuIndexer {
    /// Indexer identity (also stamped on run files and dictionary shard).
    pub id: u32,
    /// This indexer's exclusive dictionary shard.
    pub dict: PartialDictionary,
    /// Postings accumulated since the last flush, keyed by postings handle.
    log: PostingLog,
    /// Lifetime workload counters.
    pub stats: WorkloadStats,
}

impl CpuIndexer {
    /// New indexer with an empty shard.
    pub fn new(id: u32) -> Self {
        CpuIndexer {
            id,
            dict: PartialDictionary::new(id),
            log: PostingLog::new(),
            stats: WorkloadStats::default(),
        }
    }

    /// Take over a dead worker's shard mid-run: adopt its dictionary
    /// *and* its pending (un-flushed) posting log, so indexing continues
    /// exactly where the dead worker stopped — the GPU salvage drain hands
    /// over each term's records in the same doc order the CPU path
    /// maintains, so the continued build's run files stay byte-identical.
    /// (A shard restored from a run-boundary checkpoint is adopted with an
    /// empty log: the next new term allocates the handle an uninterrupted
    /// build would.) Workload counters restart from zero: they describe
    /// work this process performed.
    pub fn adopt(dict: PartialDictionary, log: PostingLog) -> Self {
        CpuIndexer { id: dict.indexer_id, dict, log, stats: WorkloadStats::default() }
    }

    /// Index one parsed trie group. `doc_offset` is the global document-ID
    /// offset of the batch (the parser assigned local IDs from 0).
    pub fn index_group(&mut self, group: &TrieGroup, doc_offset: u32) {
        for (local_doc, term) in group.iter_terms() {
            let doc = local_doc.with_offset(doc_offset);
            let out = self.dict.insert_term(group.trie_index, term);
            self.stats.tokens += 1;
            self.stats.chars += term.len() as u64;
            if out.is_new {
                self.stats.terms += 1;
            }
            self.log.add_occurrence(out.postings, doc);
        }
    }

    /// Index a batch's routed group slice under one `index` trace span on
    /// this worker's timeline (`sink` disabled → identical to looping
    /// [`Self::index_group`]). The span carries the batch id, the trie-slot
    /// range touched, and the term payload bytes.
    pub fn index_groups(
        &mut self,
        groups: &[&TrieGroup],
        doc_offset: u32,
        sink: &TraceSink,
        batch_id: u32,
    ) {
        let mut span = sink.span(TraceKind::Index);
        span.set_batch(batch_id);
        if let (Some(lo), Some(hi)) = (
            groups.iter().map(|g| g.trie_index).min(),
            groups.iter().map(|g| g.trie_index).max(),
        ) {
            span.set_tries(lo, hi);
        }
        span.add_bytes(groups.iter().map(|g| g.term_bytes.len() as u64).sum());
        for g in groups {
            self.index_group(g, doc_offset);
        }
    }

    /// Number of in-memory postings accumulated since the last flush.
    pub fn pending_postings(&self) -> usize {
        self.log.len()
    }

    /// Resident bytes of the pending (un-flushed) postings
    /// (memory-governor accounting, see [`PostingLog::mem_bytes`]).
    pub fn pending_postings_bytes(&self) -> u64 {
        self.log.mem_bytes()
    }

    /// End-of-run flush: encode every term's pending postings into a run
    /// file and empty the log (handles remain valid; later runs append new
    /// partial lists under the same handles).
    pub fn flush_run(&mut self, run_id: u32, codec: Codec) -> RunFile {
        self.log.flush_run(run_id, self.id, codec)
    }

    /// The pending posting log.
    pub fn log(&self) -> &PostingLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::DocId;
    use ii_text::parse_documents;

    fn parse(bodies: &[&str]) -> ii_text::ParsedBatch {
        let docs: Vec<ii_corpus::RawDocument> = bodies
            .iter()
            .map(|b| ii_corpus::RawDocument { url: String::new(), body: (*b).into() })
            .collect();
        parse_documents(&docs, false, 0)
    }

    #[test]
    fn indexes_groups_and_builds_postings() {
        let batch = parse(&["zebra zebra quilt", "zebra"]);
        let mut idx = CpuIndexer::new(0);
        for g in &batch.groups {
            idx.index_group(g, 0);
        }
        assert_eq!(idx.stats.tokens, 4);
        assert_eq!(idx.stats.terms, 2);
        // zebra appears in docs 0 (tf 2) and 1 (tf 1).
        let h = idx.dict.lookup(ii_dict::trie_index("zebra").0, b"ra").unwrap();
        let l = idx.log().postings_of(h);
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].tf, 2);
        assert_eq!(l[1].doc, DocId(1));
    }

    #[test]
    fn doc_offset_applied() {
        let batch = parse(&["quilt"]);
        let mut idx = CpuIndexer::new(0);
        for g in &batch.groups {
            idx.index_group(g, 500);
        }
        let h = idx.dict.lookup(ii_dict::trie_index("quilt").0, b"lt").unwrap();
        assert_eq!(idx.log().postings_of(h)[0].doc, DocId(500));
    }

    #[test]
    fn flush_run_drains_and_handles_persist() {
        let mut idx = CpuIndexer::new(2);
        let b1 = parse(&["zebra"]);
        for g in &b1.groups {
            idx.index_group(g, 0);
        }
        let run0 = idx.flush_run(0, Codec::VarByte);
        assert_eq!(run0.indexer_id, 2);
        assert_eq!(run0.entries.len(), 1);
        assert_eq!(idx.pending_postings(), 0);

        // Same term again in a later batch: same handle, new run.
        let b2 = parse(&["zebra zebra"]);
        for g in &b2.groups {
            idx.index_group(g, 10);
        }
        let run1 = idx.flush_run(1, Codec::VarByte);
        assert_eq!(run1.entries.len(), 1);
        let (row0, row1) = (run0.entries.last().unwrap(), run1.entries.last().unwrap());
        assert_eq!(row0.handle, row1.handle);
        assert_eq!(row1.doc_min, 10);
        // Stats count both batches.
        assert_eq!(idx.stats.tokens, 3);
        assert_eq!(idx.stats.terms, 1);
    }

    #[test]
    fn multiple_collections_one_indexer() {
        let batch = parse(&["zebra quilt xylophone banana"]);
        let mut idx = CpuIndexer::new(0);
        for g in &batch.groups {
            idx.index_group(g, 0);
        }
        assert!(idx.dict.trie_indices().count() >= 3);
        assert_eq!(idx.stats.terms, 4);
    }
}
