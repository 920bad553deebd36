//! Ranked retrieval over the inverted files.
//!
//! The paper's output — postings lists with term frequencies, doc-sorted —
//! is exactly what classic ranked retrieval consumes. This module adds a
//! BM25 scorer and boolean modes on top of [`Index`], demonstrating the
//! index as a drop-in retrieval substrate. Document lengths are not stored
//! in the paper's postings (only `<doc, tf>`), so BM25's length
//! normalization is disabled (b = 0), reducing it to the Robertson/Sparck
//! Jones tf-idf saturation form.

use crate::index::Index;
use ii_corpus::DocId;
use std::collections::HashMap;

/// Boolean combination mode for multi-term queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryMode {
    /// Documents must contain every term.
    And,
    /// Documents may contain any subset of the terms.
    Or,
}

/// BM25 parameters (b is fixed at 0 — no document lengths in the index).
#[derive(Clone, Copy, Debug)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2 }
    }
}

/// A scored document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankedHit {
    /// Document ID.
    pub doc: DocId,
    /// BM25 score.
    pub score: f64,
}

impl Index {
    /// BM25-ranked retrieval. Query terms are normalized like document
    /// terms; stop words are dropped. Returns hits best-first.
    pub fn search_ranked(&self, query: &str, mode: QueryMode, params: Bm25Params) -> Vec<RankedHit> {
        let stage = self.obs.stage("query");
        let _span = stage.span();
        let scanned = self.obs.counter("query.postings_scanned");
        // Collect normalized query terms through the same scratch-based
        // normalizer as the parse path: stem_into only allocates when a
        // kept term is pushed. Sort + dedup keeps idf honest for repeated
        // query words (per-term scores are summed, so order is free).
        let mut terms: Vec<String> = Vec::new();
        let mut stem_buf = ii_text::StemBuf::new();
        let mut it = ii_text::tokenize::tokens(query);
        while let Some(tok) = it.next_token() {
            let stemmed = ii_text::stem_into(tok, &mut stem_buf);
            if !ii_text::is_stop_word(stemmed) {
                terms.push(stemmed.to_string());
            }
        }
        terms.sort_unstable();
        terms.dedup();
        if terms.is_empty() {
            return Vec::new();
        }
        let n_docs = self.num_docs().max(self.doc_map.total_docs()).max(1) as f64;
        let idf_of = |df: f64| ((n_docs - df + 0.5) / (df + 0.5) + 1.0).ln();

        if mode == QueryMode::And {
            // Conjunctive retrieval rides the skip cursors: the rarest
            // term's list drives and the others leapfrog block to block,
            // decoding only the 128-document blocks they land in.
            let mut pairs = Vec::with_capacity(terms.len());
            for term in &terms {
                let cursor = self
                    .dictionary
                    .lookup(term)
                    .and_then(|e| self.run_sets.get(&e.indexer).zip(Some(e.postings)))
                    .and_then(|(set, handle)| set.cursor(handle).ok().flatten());
                // A missing term — or an unreadable list — empties the
                // conjunction.
                let Some(c) = cursor else { return Vec::new() };
                scanned.add(c.df());
                pairs.push((idf_of(c.df() as f64), c));
            }
            pairs.sort_by_key(|(_, c)| c.df());
            let idfs: Vec<f64> = pairs.iter().map(|(idf, _)| *idf).collect();
            let mut cursors: Vec<_> = pairs.into_iter().map(|(_, c)| c).collect();
            let hits = crate::index::intersect_cursors(&mut cursors).unwrap_or_default();
            self.record_block_metrics(&cursors);
            let mut out: Vec<RankedHit> = hits
                .into_iter()
                .map(|(doc, tfs)| {
                    let score = idfs
                        .iter()
                        .zip(&tfs)
                        .map(|(idf, &tf)| {
                            let tf = tf as f64;
                            idf * (tf * (params.k1 + 1.0)) / (tf + params.k1)
                        })
                        .sum();
                    RankedHit { doc, score }
                })
                .collect();
            out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
            return out;
        }

        let mut scores: HashMap<u32, (f64, usize)> = HashMap::new();
        let mut matched_terms = 0usize;
        for term in &terms {
            let Some(list) = self.postings_stemmed(term) else {
                if mode == QueryMode::And {
                    return Vec::new();
                }
                continue;
            };
            matched_terms += 1;
            scanned.add(list.len() as u64);
            let df = list.len() as f64;
            // BM25 idf with the +1 smoothing that keeps it positive.
            let idf = ((n_docs - df + 0.5) / (df + 0.5) + 1.0).ln();
            for p in list.postings() {
                let tf = p.tf as f64;
                let contrib = idf * (tf * (params.k1 + 1.0)) / (tf + params.k1);
                let e = scores.entry(p.doc.0).or_insert((0.0, 0));
                e.0 += contrib;
                e.1 += 1;
            }
        }
        let mut out: Vec<RankedHit> = scores
            .into_iter()
            .filter(|(_, (_, hit_terms))| mode == QueryMode::Or || *hit_terms == matched_terms)
            .map(|(doc, (score, _))| RankedHit { doc: DocId(doc), score })
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ii_corpus::{CollectionSpec, RawDocument, StoredCollection};
    use ii_pipeline::{build_index, PipelineConfig};
    use std::sync::Arc;

    fn index_of(bodies: &[&str]) -> Index {
        // Tests run in parallel in one process: a per-call sequence number
        // keeps two tests with equally many bodies out of one directory.
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ii-query-test-{seq}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let docs: Vec<RawDocument> = bodies
            .iter()
            .map(|b| RawDocument { url: String::new(), body: (*b).into() })
            .collect();
        let raw = ii_corpus::container::write_container(&docs);
        let packed = ii_corpus::compress::compress(&raw);
        std::fs::write(dir.join("file_00000.iic"), &packed).unwrap();
        let manifest = ii_corpus::Manifest {
            spec: CollectionSpec {
                name: "query-test".into(),
                num_files: 1,
                docs_per_file: docs.len(),
                mean_doc_tokens: 8,
                vocab_size: 100,
                zipf_s: 1.0,
                html: false,
                seed: 0,
                shift: None,
            },
            stats: ii_corpus::CollectionStats {
                documents: docs.len() as u64,
                uncompressed_bytes: raw.len() as u64,
                compressed_bytes: packed.len() as u64,
                ..Default::default()
            },
            file_compressed_bytes: vec![packed.len() as u64],
            file_uncompressed_bytes: vec![raw.len() as u64],
        };
        std::fs::write(dir.join("manifest.json"), serde_json::to_vec(&manifest).unwrap())
            .unwrap();
        let coll = Arc::new(StoredCollection::open(&dir).unwrap());
        let out = build_index(&coll, &PipelineConfig::small(1, 1, 0)).expect("build");
        std::fs::remove_dir_all(&dir).unwrap();
        Index::from_output(out)
    }

    #[test]
    fn or_mode_returns_partial_matches() {
        let idx = index_of(&["apple banana", "apple", "cherry"]);
        let or = idx.search_ranked("apple banana", QueryMode::Or, Bm25Params::default());
        let or_docs: Vec<u32> = or.iter().map(|h| h.doc.0).collect();
        assert!(or_docs.contains(&0) && or_docs.contains(&1));
        let and = idx.search_ranked("apple banana", QueryMode::And, Bm25Params::default());
        let and_docs: Vec<u32> = and.iter().map(|h| h.doc.0).collect();
        assert_eq!(and_docs, vec![0]);
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        // "apple" in every doc, "quetzal" in one: doc with the rare term
        // must rank first in OR mode.
        let idx = index_of(&["apple", "apple", "apple quetzal", "apple"]);
        let hits = idx.search_ranked("apple quetzal", QueryMode::Or, Bm25Params::default());
        assert_eq!(hits[0].doc, DocId(2));
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn tf_saturates() {
        // BM25's k1 saturation: 10x the tf must NOT give 10x the score.
        let idx = index_of(&[
            "zebra",
            &"zebra ".repeat(10),
        ]);
        let hits = idx.search_ranked("zebra", QueryMode::Or, Bm25Params::default());
        assert_eq!(hits[0].doc, DocId(1), "higher tf still ranks first");
        assert!(
            hits[0].score < hits[1].score * 3.0,
            "saturation bounds the gain: {} vs {}",
            hits[0].score,
            hits[1].score
        );
    }

    #[test]
    fn and_mode_missing_term_empty() {
        let idx = index_of(&["apple banana"]);
        assert!(idx
            .search_ranked("apple nosuchterm", QueryMode::And, Bm25Params::default())
            .is_empty());
        assert!(!idx
            .search_ranked("apple nosuchterm", QueryMode::Or, Bm25Params::default())
            .is_empty());
    }

    #[test]
    fn empty_and_stopword_queries() {
        let idx = index_of(&["apple"]);
        assert!(idx.search_ranked("", QueryMode::Or, Bm25Params::default()).is_empty());
        assert!(idx
            .search_ranked("the of and", QueryMode::Or, Bm25Params::default())
            .is_empty());
    }
}
