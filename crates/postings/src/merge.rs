//! Post-processing merge of partial postings lists (paper §III.F).
//!
//! "If necessary, we can combine the partial postings lists of each term
//! into a single list in a post-processing step, with an additional cost of
//! less than 10% of the total running time." This module implements that
//! step: it folds a [`RunSet`] into one monolithic run file containing each
//! term's full list.
//!
//! The merge is block-aligned: when a source entry already uses the target
//! codec, its full 128-document blocks are copied **verbatim** (bytes, skip
//! entry and block-max included) whenever the output sits on a block
//! boundary — no decode, no re-encode. Only boundary-straddling tail
//! blocks and codec-mismatched lists are recoded. Because blocks are
//! block-independent (gaps relative to their own first document), the
//! copied bytes are exactly what re-encoding would produce, so the merged
//! file is byte-identical to building the full list from scratch.

use crate::block::BLOCK_LEN;
use crate::codec::Codec;
use crate::run::{RunBuilder, RunEntry, RunFile, RunSet};
use std::collections::BTreeMap;

/// Merge every term's partial lists across `runs` into a single run file
/// (run id = one past the last input run). Lists stay doc-sorted because
/// runs are processed in order.
///
/// Records one span on the process-global `merge` stage
/// (`ii_obs::global()`): wall time, one item per call, and the input
/// payload bytes folded. Two global counters make the fast path
/// observable: `merge.blocks_copied` (verbatim block copies) and
/// `merge.postings_recoded` (postings that went through decode+encode).
pub fn merge_runs(runs: &RunSet, codec: Codec) -> RunFile {
    let stage = ii_obs::global().stage("merge");
    let mut span = stage.span();
    span.add_bytes(runs.runs().iter().map(|r| r.payload.len() as u64).sum());
    let copied_ctr = ii_obs::global().counter("merge.blocks_copied");
    let recoded_ctr = ii_obs::global().counter("merge.postings_recoded");

    let mut by_handle: BTreeMap<u32, Vec<(&RunFile, RunEntry)>> = BTreeMap::new();
    let mut indexer_id = 0;
    let mut next_run = 0;
    for r in runs.runs() {
        indexer_id = r.indexer_id;
        next_run = next_run.max(r.run_id + 1);
        for e in &r.entries {
            by_handle.entry(e.handle).or_default().push((r, e));
        }
    }

    let mut merged = RunBuilder::new(next_run, indexer_id, codec, by_handle.len());
    let mut scratch = None;
    let mut tmp = Vec::with_capacity(BLOCK_LEN);
    for (handle, parts) in by_handle {
        if let [(_, e)] = parts[..] {
            if let Some(p) = e.sole_posting() {
                // A list of one posting stays its row.
                merged.push_posting(handle, p);
                continue;
            }
        }
        let total: usize = parts.iter().map(|(_, e)| e.n_postings as usize).sum();
        let target = codec.resolve(total);
        let doc_range = (
            parts.first().map(|(_, e)| e.doc_min).unwrap_or(0),
            parts.last().map(|(_, e)| e.doc_max).unwrap_or(0),
        );
        merged.push_list_with(handle, target, total, doc_range, |enc| {
            for (r, e) in &parts {
                if e.codec == target {
                    // Codec-aligned source: stream blocks, copying full ones
                    // verbatim when the output is on a block boundary.
                    let blocks = r.blocks_of(e).expect("committed run entry parses");
                    for b in 0..blocks.n_blocks() {
                        if blocks.len_of(b) == BLOCK_LEN && enc.at_block_boundary() {
                            let body = blocks.body(b).expect("committed run entry parses");
                            enc.push_raw_block(blocks.entry(b), body);
                            copied_ctr.inc();
                        } else {
                            tmp.clear();
                            blocks
                                .decode_block_into(b, target, &mut scratch, &mut tmp)
                                .expect("committed run entry decodes");
                            recoded_ctr.add(tmp.len() as u64);
                            enc.extend(&tmp);
                        }
                    }
                } else {
                    // Codec-mismatched source: full decode + re-encode.
                    let part = r.decode_entry(e).expect("committed run entry decodes");
                    recoded_ctr.add(part.len() as u64);
                    enc.extend(&part);
                }
            }
        });
    }
    merged.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posting::{Posting, PostingsList};
    use ii_corpus::DocId;

    fn run_with(run_id: u32, handle: u32, docs: &[u32]) -> RunFile {
        let list: PostingsList =
            docs.iter().map(|&d| Posting { doc: DocId(d), tf: 1 }).collect();
        let pairs = [(handle, list)];
        let mut it = pairs.iter().map(|(h, l)| (*h, l));
        RunFile::build(run_id, 0, &mut it, Codec::VarByte)
    }

    #[test]
    fn merge_concatenates_per_handle() {
        let mut rs = RunSet::new();
        rs.push(run_with(0, 4, &[1, 2]));
        rs.push(run_with(1, 4, &[10, 11]));
        rs.push(run_with(2, 8, &[5]));
        let merged = merge_runs(&rs, Codec::VarByte);
        assert_eq!(merged.run_id, 3);
        let l4: Vec<u32> = merged.get(4).unwrap().iter().map(|p| p.doc.0).collect();
        assert_eq!(l4, vec![1, 2, 10, 11]);
        let l8: Vec<u32> = merged.get(8).unwrap().iter().map(|p| p.doc.0).collect();
        assert_eq!(l8, vec![5]);
    }

    #[test]
    fn merged_file_equals_runset_fetch() {
        let mut rs = RunSet::new();
        for r in 0..4 {
            rs.push(run_with(r, 1, &[r * 10, r * 10 + 3]));
        }
        let merged = merge_runs(&rs, Codec::VarByte);
        assert_eq!(merged.get(1).unwrap(), rs.fetch(1).unwrap().postings().to_vec());
    }

    #[test]
    fn one_posting_rows_merge_into_what_a_build_of_the_full_list_writes() {
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto] {
            // Handle 4 once in each run, handle 8 once in all.
            let mut rs = RunSet::new();
            rs.push(run_with(0, 4, &[3]));
            rs.push(run_with(1, 4, &[12]));
            rs.push(run_with(2, 8, &[20]));
            assert!(rs.runs().iter().all(|r| r.payload.is_empty()), "rows only");
            let merged = merge_runs(&rs, codec);
            let lists: Vec<(u32, PostingsList)> =
                [4, 8].iter().map(|&h| (h, rs.fetch(h).unwrap())).collect();
            let rebuilt = RunFile::build(3, 0, &mut lists.iter().map(|(h, l)| (*h, l)), codec);
            assert_eq!(merged, rebuilt, "{codec:?}");
            assert_eq!(merged.entry(8).unwrap().len, 0, "a list of one posting stays its row");
            assert_eq!(RunFile::from_bytes(&merged.to_bytes()).unwrap(), merged);
        }
    }

    #[test]
    fn merge_empty_runset() {
        let merged = merge_runs(&RunSet::new(), Codec::VarByte);
        assert!(merged.entries.is_empty());
        assert!(merged.payload.is_empty());
    }

    #[test]
    fn merge_records_global_stage_metrics() {
        let stage = ii_obs::global().stage("merge");
        let items_before = stage.items.get();
        let bytes_before = stage.bytes.get();
        let mut rs = RunSet::new();
        rs.push(run_with(0, 1, &[1, 2, 3]));
        merge_runs(&rs, Codec::VarByte);
        assert_eq!(stage.items.get(), items_before + 1);
        assert!(stage.bytes.get() > bytes_before, "input payload bytes recorded");
    }

    #[test]
    fn merge_can_recode() {
        let mut rs = RunSet::new();
        rs.push(run_with(0, 2, &[1, 5, 9]));
        let merged = merge_runs(&rs, Codec::Bp128);
        assert_eq!(merged.codec, Codec::Bp128);
        assert_eq!(merged.entry(2).unwrap().codec, Codec::Bp128);
        let docs: Vec<u32> = merged.get(2).unwrap().iter().map(|p| p.doc.0).collect();
        assert_eq!(docs, vec![1, 5, 9]);
    }

    fn big_run(run_id: u32, handle: u32, base: u32, n: u32, codec: Codec) -> RunFile {
        let list: PostingsList =
            (0..n).map(|i| Posting { doc: DocId(base + i * 2), tf: 1 + i % 5 }).collect();
        let pairs = [(handle, list)];
        let mut it = pairs.iter().map(|(h, l)| (*h, l));
        RunFile::build(run_id, 0, &mut it, codec)
    }

    #[test]
    fn aligned_merge_is_byte_identical_to_full_rebuild_and_copies_blocks() {
        // Three aligned runs of a long list: merge must equal building the
        // concatenated list from scratch, and the aligned full blocks must
        // travel the verbatim-copy path.
        // The counter is process-global and other tests run concurrently,
        // so assert a lower bound over the whole matrix (96 copies per
        // codec: 3 parts x 32 full blocks each, output always aligned).
        let copied_before = ii_obs::global().counter("merge.blocks_copied").get();
        for codec in [Codec::VarByte, Codec::Bp128, Codec::PFor, Codec::Auto] {
            let n = 4096u32; // long class: Auto resolves to BP128
            let mut rs = RunSet::new();
            for r in 0..3u32 {
                rs.push(big_run(r, 9, r * 100_000, n, codec));
            }
            let merged = merge_runs(&rs, codec);
            // Byte-identity with a from-scratch build of the full list.
            let full: PostingsList = rs.fetch(9).unwrap().postings().iter().copied().collect();
            let pairs = [(9u32, full)];
            let mut it = pairs.iter().map(|(h, l)| (*h, l));
            let rebuilt = RunFile::build(merged.run_id, 0, &mut it, codec);
            assert_eq!(merged.payload, rebuilt.payload, "{codec:?}");
            assert_eq!(merged.entries, rebuilt.entries, "{codec:?}");
        }
        let copied = ii_obs::global().counter("merge.blocks_copied").get() - copied_before;
        assert!(copied >= 96 * 4, "verbatim copies must dominate, got {copied}");
    }

    #[test]
    fn misaligned_merge_still_byte_identical() {
        // Part sizes not multiples of 128: tail blocks force recoding, but
        // the result must still equal the from-scratch build.
        let mut rs = RunSet::new();
        rs.push(big_run(0, 9, 0, 300, Codec::PFor));
        rs.push(big_run(1, 9, 1_000_000, 129, Codec::PFor));
        rs.push(big_run(2, 9, 2_000_000, 127, Codec::PFor));
        let merged = merge_runs(&rs, Codec::PFor);
        let full: PostingsList = rs.fetch(9).unwrap().postings().iter().copied().collect();
        let pairs = [(9u32, full)];
        let mut it = pairs.iter().map(|(h, l)| (*h, l));
        let rebuilt = RunFile::build(merged.run_id, 0, &mut it, Codec::PFor);
        assert_eq!(merged.payload, rebuilt.payload);
        assert_eq!(merged.entries, rebuilt.entries);
        assert_eq!(merged.get(9).unwrap(), rs.fetch(9).unwrap().postings());
    }
}
